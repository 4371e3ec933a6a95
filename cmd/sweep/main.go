// Command sweep runs the extension studies and the ablation studies over
// HWatch's design choices on the Fig. 9 scenario (see DESIGN.md §5).
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
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		what      = flag.String("what", "all", "ablation: probes|k|icw|batch|pacing|guests|empirical|coflow|incast|all")
		scale     = flag.Float64("scale", 1.0, "scenario scale in (0,1]")
		parallel  = flag.Int("parallel", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
		check     = flag.Bool("check", false, "run the physical-invariant checker on every cell")
		schemes   = flag.String("schemes", "", "comma-separated registered scheme names for the extension studies (default: the paper's four)")
		serverURL = flag.String("server", "", "run sweeps via a hwatchd instance (e.g. http://127.0.0.1:8080) instead of locally")
	)
	flag.Parse()
	// Ctrl-C cancels the cells in flight; the sweep then exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hwatch.SetParallel(*parallel)
	hwatch.SetInvariantChecks(*check)

	var names []string // nil = the paper's four, here and on the server
	set := hwatch.AllSchemes()
	if *schemes != "" {
		set = nil
		for _, name := range strings.Split(*schemes, ",") {
			name = strings.ToLower(strings.TrimSpace(name))
			if _, ok := hwatch.LookupScheme(name); !ok {
				log.Fatalf("unknown scheme %q: registered schemes are %s",
					name, strings.Join(hwatch.SchemeNames(), ", "))
			}
			names = append(names, name)
			set = append(set, hwatch.Scheme(name))
		}
	}

	// Every selected table row is one cell: a hwatchd job with -server, the
	// row's own Run otherwise. Selection and printing are shared.
	type cell struct {
		title, caption string
		req            server.JobRequest
		local          func() ([]string, error)
	}
	var cells []cell
	selected := func(name string) bool { return *what == "all" || *what == name }
	for _, st := range hwatch.Studies() {
		if st := st; selected(st.Name) {
			cells = append(cells, cell{st.Name, st.Caption,
				server.JobRequest{Kind: "study", Name: st.Name, Schemes: names},
				func() ([]string, error) { return st.Run(ctx, set) }})
		}
	}
	for _, ab := range hwatch.Ablations() {
		if ab := ab; selected(ab.Name) {
			cells = append(cells, cell{"ablation " + ab.Name, ab.Caption,
				server.JobRequest{Kind: "ablation", Name: ab.Name, Scale: *scale},
				func() ([]string, error) {
					pts, err := ab.Run(ctx, *scale)
					rows := make([]string, len(pts))
					for i, pt := range pts {
						rows[i] = pt.String()
					}
					return rows, err
				}})
		}
	}
	if len(cells) == 0 {
		log.Fatalf("unknown sweep %q: see -what", *what)
	}

	var cl *client.Client
	if *serverURL != "" {
		if *check {
			log.Fatal("-check runs locally; it cannot be combined with -server")
		}
		cl = client.New(*serverURL, nil)
	}
	for _, c := range cells {
		fmt.Printf("\n== %s — %s ==\n", c.title, c.caption)
		var rows []string
		var err error
		if cl != nil {
			var res *server.Result
			if res, err = cl.Submit(ctx, &c.req); err == nil {
				origin := "computed"
				if res.Cached {
					origin = "cache hit"
				}
				fmt.Printf("(via %s, %s)\n", *serverURL, origin)
				rows = res.Rows
			}
		} else {
			rows, err = c.local()
		}
		if err != nil {
			// A failed or cancelled sweep is an error, not an empty table.
			log.Fatalf("%s: %v", c.title, err)
		}
		for _, row := range rows {
			fmt.Println(row)
		}
	}
}
