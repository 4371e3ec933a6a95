package experiments

import (
	"context"
	"strconv"
	"strings"

	"hwatch/internal/scenario"
)

// Figure is one row of the figure table: a data figure of the paper as a
// list of scenario specs, one per curve.
type Figure struct {
	// Name is the figure's target name (fig/<Name>; hwatchsim also takes
	// it bare).
	Name    string
	Caption string
	// Keys names the curves in run order: the figure's golden digests are
	// keyed Name/Key, hwatchsim -out's CSV files are prefixed Name_Key.
	Keys  []string
	specs func(scale float64) []*scenario.Spec
}

// Run executes the figure and returns its runs in curve order, each
// carrying its display label ("DCTCP", "MIX+HWatch", "ICWND=5", ...).
// scale in (0,1] shrinks source counts and duration for quick runs; 1 is
// the paper's scale. Parameters and seeds are fixed by the table, so a
// server-path result is byte-comparable against the committed goldens.
func (f Figure) Run(ctx context.Context, scale float64) ([]*scenario.Run, error) {
	return runSpecs(ctx, f.specs(scale))
}

var figures = []Figure{
	{"fig1", "DCTCP vs initial congestion window",
		[]string{"icw1", "icw5", "icw10", "icw15", "icw20"}, fig1Specs},
	{"fig2", "DCTCP alone vs coexistence MIX",
		[]string{"dctcp", "mix", "mix+hwatch"}, fig2Specs},
	{"fig8", "50 sources: DropTail / RED / HWatch / DCTCP", schemeKeys(),
		func(scale float64) []*scenario.Spec { return schemeSpecs(25, 25, scale) }},
	{"fig9", "100 sources (scalability)", schemeKeys(),
		func(scale float64) []*scenario.Spec { return schemeSpecs(50, 50, scale) }},
	{"fig11", "testbed: TCP vs TCP-HWatch",
		[]string{"tcp", "hwatch"}, fig11Specs},
}

// LookupFigure finds a figure by name.
func LookupFigure(name string) (Figure, error) {
	return find("figure", figures, func(f Figure) string { return f.Name }, name)
}

// FigRuns executes one named figure under ctx; see Figure.Run. It is the
// entry point bench/ and the library facade call.
func FigRuns(ctx context.Context, name string, scale float64) ([]*scenario.Run, error) {
	f, err := LookupFigure(name)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx, scale)
}

// dumbbellSpec is one scheme on the dumbbell, labelled as the scheme.
func dumbbellSpec(s scenario.Scheme, p scenario.DumbbellParams) *scenario.Spec {
	return &scenario.Spec{
		Kind:     scenario.KindDumbbell,
		Schemes:  []scenario.Share{{Scheme: s}},
		Dumbbell: p,
	}
}

// fig1Specs is the DCTCP initial-window study (Fig. 1a-d): DCTCP
// background flows plus incast surges, sweeping ICW over the paper's
// values.
func fig1Specs(scale float64) []*scenario.Spec {
	var specs []*scenario.Spec
	for _, icw := range []int{1, 5, 10, 15, 20} {
		p := scaled(scenario.PaperDumbbell(25, 25), scale)
		p.ICW = icw
		p.Seed = 42 // identical traffic across ICW values
		spec := dumbbellSpec(scenario.DCTCP, p)
		spec.Label = "ICWND=" + strconv.Itoa(icw)
		specs = append(specs, spec)
	}
	return specs
}

// fig2Specs is the controller-coexistence study (Fig. 2a-d): the same
// scenario with all-DCTCP tenants and with tenants split evenly across
// DCTCP, ECN-responsive NewReno, and ECN-non-responsive NewReno — and, as
// an extension not in the paper, the MIX again with HWatch shims on every
// host (the transport-agnostic claim: the hypervisor watch disciplines
// even the ECN-deaf tenant via its receive window).
func fig2Specs(scale float64) []*scenario.Spec {
	p := scaled(scenario.PaperDumbbell(25, 25), scale)
	return []*scenario.Spec{
		dumbbellSpec(scenario.DCTCP, p),
		mixSpec(p, false),
		mixSpec(p, true),
	}
}

// mixSpec is the dumbbell with per-host controller flavours over the
// DCTCP marking discipline (threshold marking, as in the paper's rerun of
// the same experiment): sender hosts cycle through DCTCP, ECN-responsive
// NewReno and ECN-deaf NewReno. withShims additionally installs HWatch on
// every host (the extension run).
func mixSpec(p scenario.DumbbellParams, withShims bool) *scenario.Spec {
	label := "MIX"
	if withShims {
		label = "MIX+HWatch"
	}
	return &scenario.Spec{
		Kind: scenario.KindDumbbell,
		Schemes: []scenario.Share{
			{Scheme: scenario.DCTCP},
			{Scheme: scenario.RenoECN},
			{Scheme: scenario.RenoDeaf},
		},
		Label:       label,
		ShimOverlay: withShims,
		Dumbbell:    p,
	}
}

// schemeSpecs is the Fig. 8/9 comparison: TCP-DropTail / TCP-RED /
// TCP-HWatch / DCTCP over the same long + short source split.
func schemeSpecs(longN, shortN int, scale float64) []*scenario.Spec {
	var specs []*scenario.Spec
	for _, s := range scenario.AllSchemes() {
		p := scaled(scenario.PaperDumbbell(longN, shortN), scale)
		p.ByteBuffers = true // Fig. 8c/9c report queue occupancy in bytes
		specs = append(specs, dumbbellSpec(s, p))
	}
	return specs
}

func schemeKeys() []string {
	var keys []string
	for _, s := range scenario.AllSchemes() {
		keys = append(keys, strings.ToLower(s.String()))
	}
	return keys
}

// fig11Specs is the testbed experiment (Fig. 11a-b): plain TCP against
// TCP with HWatch shims on the leaf-spine fabric.
func fig11Specs(scale float64) []*scenario.Spec {
	p := scenario.PaperTestbed()
	if scale > 0 && scale < 1 {
		shrink := func(n int) int {
			v := int(float64(n) * scale)
			if v < 1 {
				v = 1
			}
			return v
		}
		p.LongPerRack = shrink(p.LongPerRack)
		p.WebServers = shrink(p.WebServers)
		p.WebClients = shrink(p.WebClients)
		p.Parallel = shrink(p.Parallel)
		p.Epochs = shrink(p.Epochs)
		p.Duration = p.FirstEpoch + int64(p.Epochs)*p.EpochInterval
	}
	testbed := func(s scenario.Scheme, label string) *scenario.Spec {
		return &scenario.Spec{
			Kind:    scenario.KindTestbed,
			Schemes: []scenario.Share{{Scheme: s}},
			Label:   label,
			Testbed: p,
		}
	}
	return []*scenario.Spec{testbed(scenario.DropTail, "TCP"), testbed(scenario.HWatch, "TCP-HWatch")}
}

// scaled shrinks a scenario for fast runs: source counts scale linearly,
// epochs and duration stay (they bound wall-clock less than event volume).
func scaled(p scenario.DumbbellParams, scale float64) scenario.DumbbellParams {
	if scale >= 1 || scale <= 0 {
		return p
	}
	shrink := func(n int) int {
		v := int(float64(n) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	p.LongSources = shrink(p.LongSources)
	p.ShortSources = shrink(p.ShortSources)
	p.Duration = int64(float64(p.Duration) * scaleClamp(scale*2))
	p.Epochs = int(float64(p.Epochs)*scaleClamp(scale*2)) + 1
	return p
}

func scaleClamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
