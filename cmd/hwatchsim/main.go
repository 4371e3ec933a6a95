// Command hwatchsim runs one of the paper's experiments and prints the
// rows/series the corresponding figure plots.
//
// Usage:
//
//	hwatchsim -exp fig8                  # comparison table for Fig. 8
//	hwatchsim -exp fig9 -scale 0.5       # half-scale quick run
//	hwatchsim -exp fig1 -out out/        # also dump CSV series per run
//	hwatchsim -exp scheme -scheme hwatch -long 25 -short 25
//	hwatchsim -exp ladder -rung storm/websearch -scale 0.1
//	hwatchsim -list-schemes              # every registered scheme name
//	hwatchsim -list-rungs                # every registered ladder rung
//	hwatchsim -list-faults               # every fault kind for -faults files
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hwatch"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwatchsim: ")
	var (
		exp         = flag.String("exp", "fig8", "experiment: fig1|fig2|fig8|fig9|fig11|scheme|spec|ladder")
		spec        = flag.String("spec", "", "JSON scenario file (with -exp spec)")
		faultsFile  = flag.String("faults", "", "JSON fault-schedule file armed on the run (with -exp scheme or spec)")
		scale       = flag.Float64("scale", 1.0, "scenario scale in (0,1]; 1.0 = paper scale")
		outDir      = flag.String("out", "", "directory for per-run CSV series (optional)")
		scheme      = flag.String("scheme", "hwatch", "for -exp scheme: a registered scheme name (see -list-schemes)")
		rung        = flag.String("rung", "", "for -exp ladder: run one rung (see -list-rungs); empty = whole ladder")
		longN       = flag.Int("long", 25, "for -exp scheme: long-lived sources")
		shortN      = flag.Int("short", 25, "for -exp scheme: short-lived sources")
		seed        = flag.Int64("seed", 42, "scenario seed")
		asJSON      = flag.Bool("json", false, "emit run summaries as JSON")
		parallel    = flag.Int("parallel", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 0, "engine shards per run (0/1 = single loop; digests must not change)")
		check       = flag.Bool("check", false, "run the physical-invariant checker; exit 1 on violations")
		digest      = flag.Bool("digest", false, "print only '<digest> <label>' per run (for CI diffing)")
		specDigest  = flag.Bool("spec-digest", false, "print the canonical content digest of -spec and exit (no simulation)")
		listSchemes = flag.Bool("list-schemes", false, "list every registered scheme and exit")
		listRungs   = flag.Bool("list-rungs", false, "list every registered ladder rung and exit")
		listFaults  = flag.Bool("list-faults", false, "list every fault kind for -faults files and exit")
		noPool      = flag.Bool("nopool", false, "disable packet pooling (escape hatch; digests must not change)")
		noWheel     = flag.Bool("nowheel", false, "schedule on the plain binary heap instead of the timer wheel")
	)
	flag.Parse()
	// Ctrl-C cancels the run in flight instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hwatch.SetParallel(*parallel)
	hwatch.SetShards(*shards)
	hwatch.SetInvariantChecks(*check)
	if *noPool {
		netem.SetPacketPooling(false)
	}
	if *noWheel {
		sim.SetDefaultOptions(sim.Options{NoWheel: true, NoSlab: true})
	}

	if *listSchemes {
		for _, def := range hwatch.Schemes() {
			fmt.Printf("%-12s %-16s %s\n", def.Name, def.Label, def.Description)
		}
		return
	}
	if *listRungs {
		for _, r := range hwatch.Rungs() {
			fmt.Printf("%-18s %s\n", r.Name, r.Description)
		}
		return
	}
	if *listFaults {
		for _, ki := range hwatch.FaultKinds() {
			shape := "point"
			if ki.Windowed {
				shape = "window"
			}
			fmt.Printf("%-15s %-6s %s\n", ki.Kind, shape, ki.Doc)
		}
		return
	}

	if *specDigest {
		if *spec == "" {
			log.Fatal("-spec-digest requires -spec file.json")
		}
		sp, err := hwatch.LoadSpec(*spec)
		if err != nil {
			log.Fatal(err)
		}
		d, err := sp.CanonicalDigest()
		if err != nil {
			log.Fatal(err)
		}
		// The canonical digest is the job id and cache address hwatchd
		// assigns this spec, so CLI and server path can be cross-checked.
		fmt.Println(d)
		return
	}

	var sched hwatch.FaultSchedule
	if *faultsFile != "" {
		if *exp != "scheme" && *exp != "spec" {
			log.Fatalf("-faults applies to -exp scheme or -exp spec, not %q", *exp)
		}
		var err error
		if sched, err = hwatch.LoadFaults(*faultsFile); err != nil {
			log.Fatal(err)
		}
	}

	var runs []*hwatch.Run
	switch *exp {
	case "scheme":
		name := strings.ToLower(*scheme)
		if _, ok := hwatch.LookupScheme(name); !ok {
			log.Fatalf("unknown scheme %q: registered schemes are %s",
				*scheme, strings.Join(hwatch.SchemeNames(), ", "))
		}
		p := hwatch.PaperDumbbell(*longN, *shortN)
		p.Seed = *seed
		p.ByteBuffers = true
		if len(sched) > 0 {
			// Leave room for RTO-backed recovery after the last fault.
			p.DrainAfter = 1_000_000_000 // 1 s, in engine ns
		}
		sc := &hwatch.Scenario{
			Kind:     hwatch.KindDumbbell,
			Schemes:  []hwatch.SchemeShare{{Scheme: hwatch.Scheme(name)}},
			Dumbbell: p,
			Faults:   sched,
		}
		run, err := sc.RunContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		runs = []*hwatch.Run{run}
	case "ladder":
		names := []string{}
		if *rung != "" {
			if _, ok := hwatch.LookupRung(*rung); !ok {
				log.Fatalf("unknown rung %q: registered rungs are %s",
					*rung, strings.Join(hwatch.RungNames(), ", "))
			}
			names = append(names, *rung)
		} else {
			for _, r := range hwatch.Rungs() {
				names = append(names, r.Name)
			}
		}
		for _, name := range names {
			run, err := hwatch.RunRung(ctx, name, *scale)
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, run)
		}
	case "spec":
		if *spec == "" {
			log.Fatal("-exp spec requires -spec file.json")
		}
		sp, err := hwatch.LoadSpec(*spec)
		if err != nil {
			log.Fatal(err)
		}
		sc := sp.Scenario()
		if len(sched) > 0 {
			// -faults overrides the file's own schedule.
			sc.Faults = sched
		}
		run, err := sc.RunContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		runs = []*hwatch.Run{run}
	default:
		// Anything else names a row of the figure table.
		var err error
		if runs, err = hwatch.FigRuns(ctx, *exp, *scale); err != nil {
			log.Fatalf("-exp %s: %v (or scheme, spec, ladder)", *exp, err)
		}
	}

	if *check {
		bad := false
		for _, r := range runs {
			for _, v := range r.InvariantViolations {
				bad = true
				fmt.Fprintf(os.Stderr, "invariant violation [%s]: %s\n", r.Label, v)
			}
		}
		if bad {
			os.Exit(1)
		}
	}

	switch {
	case *digest:
		// Digest lines carry no timing, so two invocations of the same spec
		// and seed diff clean at any -parallel value.
		for _, r := range runs {
			fmt.Printf("%s %s\n", r.DigestHex(), r.Label)
		}
		return
	case *asJSON:
		out, err := hwatch.JSON(runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	default:
		fmt.Printf("experiment %s (scale %.2f)\n\n", *exp, *scale)
		fmt.Print(hwatch.Table(runs))
	}

	if *outDir != "" {
		for _, r := range runs {
			prefix := *exp + "_" + sanitize(r.Label)
			if err := hwatch.SaveRun(*outDir, prefix, r); err != nil {
				log.Fatalf("saving %s: %v", prefix, err)
			}
		}
		fmt.Fprintf(os.Stderr, "CSV series written to %s\n", *outDir)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
