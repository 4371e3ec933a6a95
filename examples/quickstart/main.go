// Quickstart: DropTail, DCTCP and HWatch under 50-flow incasts on the paper's dumbbell, in one table.
package main

import (
	"context"
	"fmt"
	"hwatch"
	"log"
)

func main() {
	var runs []*hwatch.Run
	for _, scheme := range []string{"droptail", "dctcp", "hwatch"} {
		spec, err := hwatch.ParseSpec(fmt.Appendf(nil, `{"kind":"dumbbell","scheme":%q,"long_sources":5,"short_sources":50}`, scheme))
		if err != nil {
			log.Fatal(err)
		}
		run, err := hwatch.RunSpec(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, run)
	}
	fmt.Print(hwatch.Table(runs))
}
