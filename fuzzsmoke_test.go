package hwatch

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeCoversEveryCorpus: every fuzz target with a committed
// corpus, internal/<pkg>/testdata/fuzz/<Name>, has its line in the
// Makefile's fuzz-smoke recipe, fuzzing <Name> in ./internal/<pkg>.
func TestFuzzSmokeCoversEveryCorpus(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(raw), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	smoked := map[string]bool{}
	for _, m := range regexp.MustCompile(`-fuzz (\w+) .*\./internal/(\S+)`).FindAllStringSubmatch(recipe, -1) {
		smoked[m[2]+"/"+m[1]] = true
	}
	corpora, err := filepath.Glob("internal/*/testdata/fuzz/*")
	if err != nil || len(corpora) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	for _, dir := range corpora {
		parts := strings.Split(filepath.ToSlash(dir), "/")
		if key := parts[1] + "/" + parts[4]; !smoked[key] {
			t.Errorf("%s has a corpus but no -fuzz %s line for ./internal/%s in fuzz-smoke", dir, parts[4], parts[1])
		}
	}
}
