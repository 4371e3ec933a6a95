// Command hwatchvet runs the repo's static-analysis suite: the seven
// custom contract analyzers (detrand, pktown, schedclosure, lockscope,
// hookpure, ctxflow, hwatchdirective — see DESIGN.md §6f and §6k) plus the
// two vendored standard go/analysis passes stock `go vet` does not run,
// the SSA-backed nilness and unusedwrite. Everything `go tool vet help`
// lists is left to `go vet ./...`, which `make lint` runs first.
//
// Usage:
//
//	go run ./cmd/hwatchvet ./...        # analyze packages (the common case)
//	go run ./cmd/hwatchvet -json ./...  # one merged JSON document on stdout
//	go run ./cmd/hwatchvet help         # list analyzers
//	go run ./cmd/hwatchvet help detrand # analyzer detail + flags
//
// The binary speaks the go vet unitchecker protocol: when invoked by the
// go command with -V=full / -flags / a *.cfg argument it behaves as a
// vet tool. For package-pattern arguments it re-executes itself through
// `go vet -vettool=<self>` so the build system handles loading, export
// data and caching — this is how a multichecker works without network
// access to the full x/tools module.
//
// In -json mode the per-package JSON objects the unitchecker emits are
// merged into a single {package: {analyzer: [diagnostics]}} document on
// stdout, and the exit code is 1 when any diagnostic (or analyzer error)
// is present — unlike plain `go vet -json`, which always exits 0, so CI
// can gate on it directly.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"hwatch/internal/analysis/suite"
)

func main() {
	args := os.Args[1:]
	if isUnitcheckerInvocation(args) {
		unitchecker.Main(suite.All()...) // does not return
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwatchvet: cannot locate own executable: %v\n", err)
		os.Exit(1)
	}
	jsonMode, args := splitJSONFlag(args)
	if len(args) == 0 {
		args = []string{"./..."}
	}
	if jsonMode {
		os.Exit(runJSON(self, args))
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "hwatchvet: %v\n", err)
		os.Exit(1)
	}
}

// splitJSONFlag strips -json / --json from the argument list.
func splitJSONFlag(args []string) (bool, []string) {
	var rest []string
	found := false
	for _, a := range args {
		if a == "-json" || a == "--json" {
			found = true
			continue
		}
		rest = append(rest, a)
	}
	return found, rest
}

// runJSON drives `go vet -json` and merges its per-package output (a
// sequence of JSON objects interleaved with `# package` comment lines on
// stderr) into one document on stdout. Returns the process exit code.
func runJSON(self string, patterns []string) int {
	cmd := exec.Command("go", append([]string{"vet", "-json", "-vettool=" + self}, patterns...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			fmt.Fprintf(os.Stderr, "hwatchvet: %v\n", err)
			return 1
		}
		// A vet exit error in JSON mode means a build or loader failure:
		// the output is not a clean JSON stream, so surface it raw.
		fmt.Fprint(os.Stderr, out.String())
		return 1
	}

	merged, err := mergeJSONStream(out.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwatchvet: merging vet JSON output: %v\n", err)
		fmt.Fprint(os.Stderr, out.String())
		return 1
	}
	data, err := json.MarshalIndent(merged, "", "\t")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hwatchvet: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if len(merged) > 0 {
		return 1
	}
	return 0
}

// mergeJSONStream strips `#` comment lines and decodes the remaining
// concatenated JSON objects, merging them into one
// {package: {analyzer: result}} tree. Packages with no findings emit
// empty objects and are dropped.
func mergeJSONStream(raw string) (map[string]map[string]json.RawMessage, error) {
	var filtered strings.Builder
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		filtered.WriteString(line)
		filtered.WriteString("\n")
	}
	merged := make(map[string]map[string]json.RawMessage)
	dec := json.NewDecoder(strings.NewReader(filtered.String()))
	for dec.More() {
		var one map[string]map[string]json.RawMessage
		if err := dec.Decode(&one); err != nil {
			return nil, err
		}
		for pkg, byAnalyzer := range one {
			if len(byAnalyzer) == 0 {
				continue
			}
			m, ok := merged[pkg]
			if !ok {
				m = make(map[string]json.RawMessage)
				merged[pkg] = m
			}
			for name, res := range byAnalyzer {
				m[name] = res
			}
		}
	}
	return merged, nil
}

// isUnitcheckerInvocation reports whether the go command (or a user asking
// for help) is driving us via the vet tool protocol.
func isUnitcheckerInvocation(args []string) bool {
	if len(args) == 0 {
		return false
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-V") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return args[0] == "help"
}
