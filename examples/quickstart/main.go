// Quickstart: run the paper's headline comparison (Fig. 8, scaled down so
// it finishes in a few seconds) and print the table. This is the smallest
// useful hwatch program.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"hwatch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Println("HWatch quickstart: 50-source scheme comparison at 40% scale")
	fmt.Println("(use cmd/figgen for the full paper-scale regeneration)")
	fmt.Println()

	runs, err := hwatch.FigRuns(ctx, "fig8", 0.4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hwatch.Table(runs))

	var hw *hwatch.Run
	for _, r := range runs {
		if r.Label == hwatch.HWatch.String() {
			hw = r
		}
	}
	fmt.Println()
	fmt.Printf("HWatch finished %d/%d short flows with %d timeouts and %d drops.\n",
		hw.ShortDone, hw.ShortAll, hw.Timeouts, hw.Drops)
	if hw.ShimStats != nil {
		fmt.Printf("The shims sent %d probes, stamped %d SYN-ACKs, paced %d, and rewrote %d ACK windows.\n",
			hw.ShimStats.ProbesSent, hw.ShimStats.SynAcksStamped,
			hw.ShimStats.SynAcksPaced, hw.ShimStats.RwndRewrites)
		fmt.Printf("Their flows lived through %d Rule 1 epochs; %d of those were idle and cost no event.\n",
			hw.ShimStats.EpochsClosed, hw.ShimStats.EpochsSkipped)
	}
}
