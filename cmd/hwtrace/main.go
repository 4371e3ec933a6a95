// Command hwtrace runs a small built-in HWatch demo fabric (-flows flows
// of -kb KB each through one marking bottleneck, shims on both ends) with
// packet tracing and emits the trace — as human-readable text or as a
// compact HWT1 binary stream — for offline analysis of HWatch's datapath
// behaviour (probe trains, SYN holding, rwnd rewrites).
//
//	hwtrace -o trace.hwt                    # binary
//	hwtrace -text -flows 5 -kb 50 | head    # text to stdout
//	hwtrace -decode trace.hwt               # print a binary trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hwatch/internal/aqm"
	"hwatch/internal/core"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
	"hwatch/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwtrace: ")
	var (
		out    = flag.String("o", "", "binary trace output file (HWT1)")
		text   = flag.Bool("text", false, "print a text trace to stdout")
		decode = flag.String("decode", "", "decode and print an HWT1 file, then exit")
		flows  = flag.Int("flows", 3, "demo flows to trace")
		size   = flag.Int64("kb", 20, "flow size, KB")
	)
	flag.Parse()

	if *decode != "" {
		decodeFile(*decode)
		return
	}

	// A small HWatch demo fabric: flows from a to b through a marking
	// bottleneck, shims on both ends.
	n := netem.NewNetwork()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("sw")
	big := func() netem.Queue { return aqm.NewDropTailBytes(100000 * 1500) }
	n.LinkHostSwitch(a, sw, big(), big(), 10e9, 25*sim.Microsecond)
	down := netem.NewPort(n.Eng, aqm.NewMarkThresholdBytes(250*1500, 50*1500), 1e9, 25*sim.Microsecond)
	down.Connect(b)
	sw.Route(b.ID, sw.AddPort(down))
	up := netem.NewPort(n.Eng, big(), 10e9, 25*sim.Microsecond)
	up.Connect(sw)
	b.AttachUplink(up)

	// Taps must be installed BEFORE the shims: the receiver-side shim
	// consumes probe packets (VerdictStolen), so later filters never see
	// them.
	var bw *trace.BinaryWriter
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		bw, err = trace.NewBinaryWriter(f)
		if err != nil {
			log.Fatal(err)
		}
		trace.BinaryTap(a, bw)
		trace.BinaryTap(b, bw)
	}
	var tr *trace.Tracer
	if *text || *out == "" {
		tr = trace.NewTracer(os.Stdout, 0)
		tr.Tap(a)
		tr.Tap(b)
	}

	shimCfg := core.DefaultConfig(100 * sim.Microsecond)
	core.Attach(a, shimCfg)
	core.Attach(b, shimCfg)

	tcfg := tcp.DefaultConfig()
	b.Listen(80, tcp.NewListener(b, tcfg, nil))
	done := 0
	for i := 0; i < *flows; i++ {
		s := tcp.NewSender(a, b.ID, 80, *size*1000, tcfg)
		s.OnComplete = func(int64) { done++ }
		s.Start()
	}
	n.Eng.RunUntil(5 * sim.Second)

	if bw != nil {
		if err := bw.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hwtrace: %d flows done, %d records -> %s\n", done, bw.Count(), *out)
	}
}

func decodeFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	br, err := trace.NewBinaryReader(f)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := br.ReadAll()
	if err != nil {
		log.Fatalf("decoding: %v (after %d records)", err, len(recs))
	}
	for _, r := range recs {
		probe := ""
		if r.Probe {
			probe = " PROBE"
		}
		fmt.Printf("%10.3fus %-8s %s %d:%d>%d:%d %s seq=%d ack=%d len=%d ecn=%s rwnd=%d%s\n",
			float64(r.T)/1000, r.Host, r.Dir, r.Src, r.SrcPort, r.Dst, r.DstPort,
			r.Flags, r.Seq, r.Ack, r.Payload, r.ECN, r.Rwnd, probe)
	}
}
