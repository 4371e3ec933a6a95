package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealCommandsAndFlags reads the documents that tell a reader
// how to build and run the repository: every cmd/<x> they name must exist,
// and every -flag that follows hwatchsim on a command line must be one the
// command defines. A renamed or deleted command or flag fails here, not in
// a reader's shell.
func TestDocsNameRealCommandsAndFlags(t *testing.T) {
	defined := map[string]bool{}
	newFlags(&options{}).VisitAll(func(f *flag.Flag) { defined[f.Name] = true })
	cmdPath := regexp.MustCompile("(?:\\./|`|\\s|\\()cmd/(\\w+)")
	flagName := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	docs := []string{"README.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	for _, doc := range docs {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		cmdline := ""
		for i, line := range strings.Split(string(raw), "\n") {
			// A shell line ending in a backslash continues on the next.
			cmdline += line
			if strings.HasSuffix(cmdline, "\\") {
				cmdline = strings.TrimSuffix(cmdline, "\\")
				continue
			}
			for _, m := range cmdPath.FindAllStringSubmatch(cmdline, -1) {
				if _, err := os.Stat(filepath.Join("..", m[1])); err != nil {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
			for _, rest := range strings.Split(cmdline, "hwatchsim")[1:] {
				// The command ends at a code span's end, a pipe, a comment,
				// a redirection or a list operator.
				if end := strings.IndexAny(rest, "`|#;>&)"); end >= 0 {
					rest = rest[:end]
				}
				for _, tok := range strings.Fields(rest) {
					if m := flagName.FindStringSubmatch(tok); m != nil && !defined[m[1]] {
						t.Errorf("%s:%d passes hwatchsim %s, a flag it does not define", doc, i+1, tok)
					}
				}
			}
			cmdline = ""
		}
	}
}
