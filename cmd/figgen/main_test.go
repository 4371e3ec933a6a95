package main

import (
	"os"
	"path/filepath"
	"testing"

	"hwatch"
)

// TestCSVPrefixesAreTheCommittedNames pins the curve file names to the
// ones committed under out/: local and -server runs share one loop, and
// that loop must keep writing fig1_icw5, fig2_mix_hwatch,
// fig8_tcp-droptail, fig11_hwatch and their siblings.
func TestCSVPrefixesAreTheCommittedNames(t *testing.T) {
	n := 0
	for _, fig := range hwatch.Figures() {
		for _, key := range fig.Keys {
			n++
			name := csvPrefix(fig.Name, key) + "_fct_cdf.csv"
			if _, err := os.Stat(filepath.Join("..", "..", "out", name)); err != nil {
				t.Errorf("%s/%s: no committed curve file: %v", fig.Name, key, err)
			}
		}
	}
	if n != 18 {
		t.Errorf("the figure table names %d curves, out/ holds 18", n)
	}
}
