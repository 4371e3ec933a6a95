// Command hwatchsim runs the paper's experiments by name and prints what
// their figures plot. Flags come first, then targets: kind/name rows of
// the experiment table (fig/fig8 or fig8, ablation/k, study/coflow,
// rung/storm/websearch), all (every figure, study and ablation), ladder
// (every rung), spec:<file> or scheme:<name>; -list prints them. A flag
// none of the targets reads is an error.
//
//	hwatchsim -scale 0.1 -out out all   # every table, CSV curves under out/
//	hwatchsim -long 5 -faults f.json -digest scheme:hwatch
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hwatch"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

type options struct {
	scale                           float64
	out, faults, schemes, server    string
	long, short, parallel, shards   int
	seed                            int64
	check, json, digest, specDigest bool
	list, listSchemes, listFaults   bool
}

// newFlags defines every flag of the command on one set.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("hwatchsim", flag.ExitOnError)
	fs.Float64Var(&o.scale, "scale", 1.0, "scale in (0,1] of figures, ablations and rungs; 1.0 = paper scale")
	fs.StringVar(&o.out, "out", "", "directory for the runs' CSV curves and gnuplot scripts (optional)")
	fs.StringVar(&o.faults, "faults", "", "JSON fault-schedule file armed on spec: and scheme: targets")
	fs.StringVar(&o.schemes, "schemes", "", "comma-separated registered schemes the studies compare (default: the paper's four)")
	fs.StringVar(&o.server, "server", "", "run the targets on a hwatchd instance (e.g. http://127.0.0.1:8080)")
	fs.IntVar(&o.long, "long", 25, "scheme: long-lived sources")
	fs.IntVar(&o.short, "short", 25, "scheme: short-lived sources")
	fs.Int64Var(&o.seed, "seed", 42, "scheme: scenario seed")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
	fs.IntVar(&o.shards, "shards", 0, "engine shards per run (0/1 = single loop; digests must not change)")
	fs.BoolVar(&o.check, "check", false, "run the physical-invariant checker; exit 1 on violations")
	fs.BoolVar(&o.json, "json", false, "print run summaries as JSON")
	fs.BoolVar(&o.digest, "digest", false, "print only '<digest> <label>' per run (for CI diffing)")
	fs.BoolVar(&o.specDigest, "spec-digest", false, "print the canonical digest of each spec: or scheme: target and exit")
	fs.BoolVar(&o.list, "list", false, "list every target and exit")
	fs.BoolVar(&o.listSchemes, "list-schemes", false, "list every registered scheme and exit")
	fs.BoolVar(&o.listFaults, "list-faults", false, "list every fault kind for -faults files and exit")
	return fs
}

// reads reports whether t reads the named flag; flags not named here are
// read by every target.
func reads(t hwatch.Target, name string) bool {
	switch name {
	case "scale":
		return t.Scaled
	case "schemes":
		return t.Schemed
	case "out", "json", "digest", "check":
		// Row targets print rows, not runs: no curves, digests or
		// violations to report.
		return t.Kind != "ablation" && t.Kind != "study"
	case "faults", "spec-digest":
		return t.Spec != nil
	case "long", "short", "seed":
		return t.Kind == "scheme"
	}
	return true
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwatchsim: ")
	var o options
	fs := newFlags(&o)
	fs.Parse(os.Args[1:])
	// Ctrl-C cancels the runs in flight instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hwatch.SetParallel(o.parallel)
	hwatch.SetShards(o.shards)
	hwatch.SetInvariantChecks(o.check)
	if o.list || o.listSchemes || o.listFaults {
		list(&o)
		return
	}
	if fs.NArg() == 0 {
		log.Fatal("no target: name one or more after the flags (hwatchsim -list prints them)")
	}

	var targets []hwatch.Target
	for _, arg := range fs.Args() {
		targets = append(targets, must(resolve(arg, &o))...)
	}
	fs.Visit(func(f *flag.Flag) {
		for _, t := range targets {
			if reads(t, f.Name) {
				return
			}
		}
		log.Fatalf("-%s is read by none of the targets %s", f.Name, strings.Join(fs.Args(), " "))
	})
	// The studies' schemes, normalized as hwatchd digests them; none = the paper's four.
	names := strings.Fields(strings.ToLower(strings.ReplaceAll(o.schemes, ",", " ")))
	set := must(hwatch.LookupSchemes(names))

	// Runs and rows come from the local simulator or, with -server, from
	// hwatchd, whose every run digest the client re-verifies.
	fetch := func(t hwatch.Target) ([]*hwatch.Run, []string, string, error) {
		runs, rows, err := t.Run(ctx, o.scale, set, nil)
		return runs, rows, "", err
	}
	if o.server != "" {
		if o.check {
			log.Fatal("-check runs locally; it cannot be combined with -server")
		}
		cl := client.New(o.server, nil)
		fetch = func(t hwatch.Target) ([]*hwatch.Run, []string, string, error) {
			req := &server.JobRequest{Kind: t.Kind, Name: t.Name, Scale: o.scale, Schemes: names}
			if t.Spec != nil {
				req = &server.JobRequest{Kind: "spec", Spec: must(json.Marshal(t.Spec))}
			}
			return cl.Run(ctx, req)
		}
	}

	violations, start := 0, time.Now()
	for _, t := range targets {
		if o.specDigest {
			// The canonical digest is the job id and cache address hwatchd
			// assigns the spec, so CLI and server path can be cross-checked.
			if t.Spec != nil {
				fmt.Println(must(t.Spec.CanonicalDigest()))
			}
			continue
		}
		runs, rows, via, err := fetch(t)
		if err != nil {
			// A failed or cancelled target is an error, not an empty table.
			log.Fatalf("%s: %v", t.Title, err)
		}
		// The titled block goes to stderr when stdout carries digest lines
		// (no timing: they diff clean at any -parallel) or JSON.
		block := os.Stdout
		switch {
		case len(runs) > 0 && o.digest:
			for _, r := range runs {
				fmt.Printf("%s %s\n", r.DigestHex(), r.Label)
			}
			block = os.Stderr
		case len(runs) > 0 && o.json:
			fmt.Println(must(hwatch.JSON(runs)))
			block = os.Stderr
		}
		violations += t.Print(block, via, runs, rows)
		if o.out != "" && len(runs) > 0 {
			if err := t.Save(o.out, runs); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d targets in %v\n", len(targets), time.Since(start).Round(time.Millisecond))
	if violations > 0 {
		log.Fatalf("%d invariant violations", violations)
	}
}

// must returns v, or ends the command on err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// resolve expands one command-line target.
func resolve(arg string, o *options) ([]hwatch.Target, error) {
	if strings.HasPrefix(arg, "-") {
		return nil, fmt.Errorf("unknown target %q: flags go before the targets", arg)
	}
	if kind, name, _ := strings.Cut(arg, ":"); (kind == "spec" || kind == "scheme") && name != "" {
		return specTarget(kind, name, o)
	}
	return hwatch.SelectTargets(arg)
}

// specTarget builds what a spec:<file> or scheme:<name> target runs: the
// file, or the scheme on the paper dumbbell with a 1 s drain after a
// fault schedule for RTO-backed recovery. -faults replaces the schedule.
func specTarget(kind, name string, o *options) ([]hwatch.Target, error) {
	sp, err := &hwatch.Spec{Kind: "dumbbell", Scheme: strings.ToLower(name), LongSources: o.long, ShortSources: o.short, Seed: o.seed}, error(nil)
	if kind == "spec" {
		sp, err = hwatch.LoadSpec(name)
	}
	if err == nil && o.faults != "" {
		sp.Faults, err = hwatch.LoadFaults(o.faults)
		if kind == "scheme" {
			sp.DrainAfterMs = 1000
		}
	}
	if err == nil {
		sp, err = hwatch.ParseSpec(must(json.Marshal(sp)))
	}
	if err != nil {
		return nil, err
	}
	return []hwatch.Target{hwatch.SpecTarget(kind, name, sp)}, nil
}

func list(o *options) {
	switch {
	case o.listSchemes:
		for _, def := range hwatch.Schemes() {
			fmt.Printf("%-12s %-16s %s\n", def.Name, def.Label, def.Description)
		}
	case o.listFaults:
		for _, ki := range hwatch.FaultKinds() {
			shape := "point"
			if ki.Windowed {
				shape = "window"
			}
			fields := strings.Join(ki.Fields, ",")
			if fields == "" {
				fields = "-"
			}
			fmt.Printf("%-15s %-6s %-40s %s\n", ki.Kind, shape, fields, ki.Doc)
		}
	default:
		for _, t := range hwatch.Targets() {
			fmt.Printf("%-22s %s\n", t.ID(), t.Caption)
		}
		fmt.Printf("%-22s %s\n%-22s %s\n%-22s %s\n%-22s %s\n", "all", "every figure, study and ablation",
			"ladder", "every rung", "spec:<file>", "a JSON scenario file (-faults)",
			"scheme:<name>", "one registered scheme on the paper dumbbell (-long, -short, -seed, -faults)")
	}
}
