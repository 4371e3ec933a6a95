// Incast: sweep the incast degree (number of synchronized short-flow
// sources) and show where each scheme falls off the latency cliff — the
// paper's core motivation. HWatch's probe-derived start window plus
// SYN-ACK pacing keeps completion times flat where stock stacks hit the
// 200 ms retransmission timeout.
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
	fmt.Println("Incast cliff: mean short-flow FCT (ms) vs number of synchronized senders")
	fmt.Println("(10 KB flows into one 10 Gb/s port with a 250-packet buffer; '-' = flows unfinished)")
	fmt.Println()

	p := hwatch.DefaultIncastSweep()
	schemes := []hwatch.Scheme{hwatch.DropTail, hwatch.DCTCP, hwatch.HWatch}
	points, err := hwatch.RunIncastSweep(ctx, schemes, p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s", "senders")
	for _, d := range p.Degrees {
		fmt.Printf("%10d", d)
	}
	fmt.Println()

	i := 0
	for _, s := range schemes {
		fmt.Printf("%-14s", s)
		for range p.Degrees {
			r := points[i]
			i++
			if r.Done < r.All {
				fmt.Printf("%9.1f-", r.FCTms.Mean())
				continue
			}
			fmt.Printf("%10.2f", r.FCTms.Mean())
		}
		fmt.Println()
	}
}
