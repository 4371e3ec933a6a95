// Command figgen regenerates the data behind every figure in the paper's
// evaluation in one run, writing comparison tables to stdout and CSV curve
// data under -out (default "out/").
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
	"time"

	"hwatch"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figgen: ")
	var (
		outDir    = flag.String("out", "out", "directory for CSV curve data")
		scale     = flag.Float64("scale", 1.0, "scenario scale in (0,1]")
		only      = flag.String("only", "", "comma-separated subset, e.g. fig8,fig11")
		parallel  = flag.Int("parallel", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
		check     = flag.Bool("check", false, "run the physical-invariant checker; exit 1 on violations")
		serverURL = flag.String("server", "", "run figures via a hwatchd instance (e.g. http://127.0.0.1:8080) instead of locally")
	)
	flag.Parse()
	// Ctrl-C cancels the figure in flight instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hwatch.SetParallel(*parallel)
	hwatch.SetInvariantChecks(*check)

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	// A figure's runs come from the local simulator or, with -server, from
	// a hwatchd instance; everything after that is the same. Server
	// results arrive in wire form and client.Runs re-verifies every run
	// digest, so the CSVs are bit-equivalent to a local regeneration on
	// the same code version.
	fetch := func(fig hwatch.Figure) (runs []*hwatch.Run, via string, err error) {
		runs, err = fig.Run(ctx, *scale)
		return runs, "", err
	}
	if *serverURL != "" {
		if *check {
			log.Fatal("-check runs locally; it cannot be combined with -server")
		}
		cl := client.New(*serverURL, nil)
		fetch = func(fig hwatch.Figure) ([]*hwatch.Run, string, error) {
			res, err := cl.Submit(ctx, &server.JobRequest{Kind: "fig", Name: fig.Name, Scale: *scale})
			if err != nil {
				return nil, "", err
			}
			origin := "computed"
			if res.Cached {
				origin = "cache hit"
			}
			runs, err := client.Runs(res)
			return runs, fmt.Sprintf("via %s (%s, version %s)", *serverURL, origin, res.Version), err
		}
	}

	violations := 0
	start := time.Now()
	for _, fig := range hwatch.Figures() {
		if len(want) > 0 && !want[fig.Name] {
			continue
		}
		runs, via, err := fetch(fig)
		if err != nil {
			log.Fatalf("%s: %v", fig.Name, err)
		}
		if len(runs) != len(fig.Keys) {
			log.Fatalf("%s: %d runs for %d curves", fig.Name, len(runs), len(fig.Keys))
		}
		fmt.Printf("\n== Figure %s — %s ==\n", strings.TrimPrefix(fig.Name, "fig"), fig.Caption)
		if via != "" {
			fmt.Println(via)
		}
		fmt.Print(hwatch.Table(runs))
		var labels, prefixes, variances []string
		for i, r := range runs {
			for _, v := range r.InvariantViolations {
				violations++
				fmt.Printf("!! invariant violation [%s]: %s\n", r.Label, v)
			}
			prefix := csvPrefix(fig.Name, fig.Keys[i])
			if err := hwatch.SaveRun(*outDir, prefix, r); err != nil {
				log.Fatalf("saving %s: %v", prefix, err)
			}
			labels = append(labels, r.Label)
			prefixes = append(prefixes, prefix)
			variances = append(variances, fmt.Sprintf("%s=%.1f ms^2", r.Label, r.ShortFCTms.Var()))
		}
		fmt.Printf("FCT variance: %s\n", strings.Join(variances, ", "))
		if err := hwatch.WriteFigurePlots(*outDir, fig.Name, labels, prefixes); err != nil {
			log.Fatalf("plot scripts for %s: %v", fig.Name, err)
		}
	}
	fmt.Printf("\nall selected figures regenerated in %v; curves under %s/\n",
		time.Since(start).Round(time.Millisecond), *outDir)
	if violations > 0 {
		log.Fatalf("%d invariant violations", violations)
	}
}

// csvPrefix names one curve's CSV files: the figure, then the curve key
// with '+' (as in "mix+hwatch") made file-name friendly.
func csvPrefix(fig, key string) string {
	return fig + "_" + strings.ReplaceAll(key, "+", "_")
}
