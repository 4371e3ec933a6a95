// Testbed: the Section VI experiment — a 4-rack, 84-host leaf-spine
// fabric where three racks of web servers answer parallel 11.5 KB fetches
// from the fourth rack while 42 iperf elephants cross the same spine.
// Runs the fabric twice (plain TCP, then TCP with HWatch shims on every
// host) and reports the Fig. 11 comparison.
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
	fmt.Println("Leaf-spine testbed (Fig. 11 scenario, reduced web load for a quick run)")
	fmt.Println()

	p := hwatch.PaperTestbed()
	p.Parallel = 4 // 504 fetches per epoch instead of 1260
	p.Epochs = 3
	p.Duration = p.FirstEpoch + int64(p.Epochs)*p.EpochInterval

	tcpRun, err := hwatch.RunTestbed(ctx, false, p)
	if err != nil {
		log.Fatal(err)
	}
	tcpRun.Label = "TCP"
	hwRun, err := hwatch.RunTestbed(ctx, true, p)
	if err != nil {
		log.Fatal(err)
	}
	hwRun.Label = "TCP-HWatch"

	fmt.Print(hwatch.Table([]*hwatch.Run{tcpRun, hwRun}))
	fmt.Println()

	imp := tcpRun.ShortFCTms.Mean() / hwRun.ShortFCTms.Mean()
	fmt.Printf("mean web response time improved %.1fx (%.1f ms -> %.1f ms)\n",
		imp, tcpRun.ShortFCTms.Mean(), hwRun.ShortFCTms.Mean())
	fmt.Printf("web fetches finished: TCP %d/%d, HWatch %d/%d\n",
		tcpRun.ShortDone, tcpRun.ShortAll, hwRun.ShortDone, hwRun.ShortAll)
	fmt.Printf("per-elephant goodput: TCP %.1f Mb/s, HWatch %.1f Mb/s\n",
		tcpRun.LongGoodputBps.Mean()/1e6, hwRun.LongGoodputBps.Mean()/1e6)
}
