package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCSVPrefixesAreTheCommittedNames pins the curve file names to the
// ones committed under out/: Target.Save must keep writing fig1_icw5,
// fig2_mix_hwatch, fig8_tcp-droptail, fig11_hwatch and their siblings.
func TestCSVPrefixesAreTheCommittedNames(t *testing.T) {
	n := 0
	for _, tg := range Targets() {
		for _, key := range tg.Keys {
			n++
			name := csvPrefix(tg.Name, key) + "_fct_cdf.csv"
			if _, err := os.Stat(filepath.Join("..", "..", "out", name)); err != nil {
				t.Errorf("%s/%s: no committed curve file: %v", tg.ID(), key, err)
			}
		}
	}
	if n != 18 {
		t.Errorf("the figure targets name %d curves, out/ holds 18", n)
	}
}
