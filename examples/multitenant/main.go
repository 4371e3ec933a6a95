// Multitenant: the coexistence problem of Fig. 2. Tenants in a shared
// cluster run different congestion controllers (DCTCP, ECN-responsive
// NewReno, and a NewReno that marks its packets ECT but ignores ECE);
// DCTCP alone regulates the queue, the MIX does not, and short-flow
// latency variance explodes — motivating a hypervisor-level mechanism
// that works regardless of the guest stack.
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
	fmt.Println("Multi-tenant coexistence (Fig. 2 scenario, 60% scale)")
	fmt.Println()

	runs, err := hwatch.FigRuns(ctx, "fig2", 0.6)
	if err != nil {
		log.Fatal(err)
	}
	dctcp, mix := runs[0], runs[1] // runs[2] is the MIX+HWatch extension
	fmt.Print(hwatch.Table([]*hwatch.Run{dctcp, mix}))
	fmt.Println()

	fmt.Printf("short-flow FCT variance:  DCTCP alone %10.1f ms^2\n", dctcp.ShortFCTms.Var())
	fmt.Printf("                          MIX         %10.1f ms^2\n", mix.ShortFCTms.Var())
	fmt.Printf("standing queue (packets): DCTCP alone %10.0f\n", dctcp.QueuePkts.Mean())
	fmt.Printf("                          MIX         %10.0f\n", mix.QueuePkts.Mean())
	fmt.Printf("bottleneck utilization:   DCTCP alone %10.2f\n", dctcp.Utilization.Mean())
	fmt.Printf("                          MIX         %10.2f\n", mix.Utilization.Mean())
	fmt.Println()
	fmt.Println("The MIX keeps the link just as busy, but the queue is no longer held")
	fmt.Println("at the marking threshold, so small flows drown behind the deaf tenant.")
}
