package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hwatch/internal/scenario"
	"hwatch/internal/sim"
)

// TestEveryEntryPropagatesCancellation walks the target table: every
// figure, ablation, study and rung must surface a cancelled context as
// ctx.Err() with no runs or rows instead of running to completion.
func TestEveryEntryPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	schemes := []scenario.Scheme{scenario.HWatch}
	for _, tg := range Targets() {
		runs, rows, err := tg.Run(ctx, 0.1, schemes, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: got err=%v, want context.Canceled", tg.ID(), err)
		}
		if len(runs)+len(rows) != 0 {
			t.Errorf("%s under a cancelled context returned %d runs and %d rows, want none", tg.ID(), len(runs), len(rows))
		}
	}
}

// pollCancelCtx cancels itself on its after-th Err call. The harness pool
// asks Err before a task starts and the engine poll hook asks once per few
// thousand fired events, so a small after lands the cancellation inside a
// running cell, deterministically, and calls counts how much further the
// cell ran.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *pollCancelCtx) Err() error {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestStudyCancelsMidCell proves the coflow and empirical studies stop
// inside a running cell now that they execute through Spec.RunContext:
// the hand-built cells they replace ignored ctx, ran to completion and
// returned every row.
func TestStudyCancelsMidCell(t *testing.T) {
	defer SetParallel(0)
	SetParallel(1)
	schemes := []scenario.Scheme{scenario.HWatch}
	studies := map[string]func(context.Context) (int, error){
		"coflow": func(ctx context.Context) (int, error) {
			res, err := RunCoflow(ctx, schemes, DefaultCoflow())
			return len(res), err
		},
		"empirical": func(ctx context.Context) (int, error) {
			res, err := RunEmpirical(ctx, schemes, DefaultEmpirical())
			return len(res), err
		},
	}
	for name, run := range studies {
		parent, cancel := context.WithCancel(context.Background())
		ctx := &pollCancelCtx{Context: parent, cancel: cancel, after: 6}
		n, err := run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled (the cell ran to completion)", name, err)
		}
		if n != 0 {
			t.Errorf("%s: cancelled study returned %d rows, want none", name, n)
		}
		// The poll that observed the cancellation stops the loop; what is
		// left is the run's own post-loop check and the pool's bookkeeping.
		if extra := ctx.calls.Load() - ctx.after; extra > 8 {
			t.Errorf("%s: %d more ctx checks after cancellation; the cell did not stop within a bounded number of events", name, extra)
		}
	}
}

// TestStudiesPinOneShard proves the coflow and empirical specs carry an
// explicit Shards: 1 — their workloads schedule every arrival on one
// engine — so a process-wide -shards default cannot reach them.
func TestStudiesPinOneShard(t *testing.T) {
	ctx := context.Background()
	schemes := []scenario.Scheme{scenario.HWatch, scenario.DCTCP}
	cp := DefaultCoflow()
	cp.Jobs = 2
	cp.Duration = 400 * sim.Millisecond
	ep := DefaultEmpirical()
	ep.Sources = 8
	ep.Loads = []float64{0.4}
	ep.Duration = 80 * sim.Millisecond
	rows := func() []string {
		co, err := RunCoflow(ctx, schemes, cp)
		if err != nil {
			t.Fatal(err)
		}
		em, err := RunEmpirical(ctx, schemes, ep)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range co {
			out = append(out, r.String())
		}
		for _, r := range em {
			out = append(out, r.String())
		}
		return out
	}
	single := rows()
	defer scenario.SetDefaultShards(0)
	scenario.SetDefaultShards(2)
	sharded := rows()
	for i := range single {
		if single[i] != sharded[i] {
			t.Errorf("row moved under SetDefaultShards(2):\n got %q\nwant %q", sharded[i], single[i])
		}
	}
}
