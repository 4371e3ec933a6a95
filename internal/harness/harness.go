// Package harness executes experiment runs as a deterministic, bounded
// parallel workload. It is the substrate every figure, ablation and sweep
// in internal/experiments is driven through: a worker pool with context
// cancellation, per-task wall-clock metrics, deterministic per-run seed
// derivation, a run digest for cheap byte-comparison of two runs, and an
// opt-in physical-invariant checker for the packet model.
//
// Determinism contract: every task owns its simulation engine and seeded
// RNG, so the pool's parallelism and scheduling order can never perturb a
// run's dynamics — two executions of the same spec and seed produce
// identical digests at -parallel 1 and -parallel 64 alike.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// DefaultParallel is the worker count used when none is configured:
// GOMAXPROCS, the hardware's useful limit for CPU-bound simulation runs.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// TaskMetric records one completed task's runtime cost.
type TaskMetric struct {
	Name string
	Wall time.Duration
	Err  error
}

// EventsPerSec converts an event count and a wall-clock duration into the
// throughput figure progress reports print.
func EventsPerSec(events uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}

// Pool runs submitted tasks on at most Parallel workers. Submission never
// blocks; Wait blocks until every submitted task finished (or was skipped
// by cancellation) and returns the first error observed.
type Pool struct {
	ctx      context.Context
	sem      chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	metrics  []TaskMetric
	firstErr error
}

// NewPool returns a pool bounded at parallel workers (<= 0 means
// DefaultParallel). The context cancels outstanding work: tasks not yet
// started are skipped, and running tasks observe ctx through their argument.
func NewPool(ctx context.Context, parallel int) *Pool {
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if ctx == nil {
		ctx = context.Background() //hwatchvet:allow ctxflow nil-ctx compat default: callers without a context get the documented never-cancelled pool
	}
	return &Pool{ctx: ctx, sem: make(chan struct{}, parallel)}
}

// Go submits one named task. A task that panics does not take the process
// down with its goroutine: the panic becomes the task's error, naming the
// task, so one tenant's broken scheme definition fails one job.
func (p *Pool) Go(name string, fn func(ctx context.Context) error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		select {
		case p.sem <- struct{}{}:
			defer func() { <-p.sem }()
		case <-p.ctx.Done():
			p.record(TaskMetric{Name: name, Err: p.ctx.Err()})
			return
		}
		if err := p.ctx.Err(); err != nil {
			p.record(TaskMetric{Name: name, Err: err})
			return
		}
		start := time.Now() //hwatchvet:allow detrand wall-clock measures real task runtime for operator metrics, never model time
		err := runTask(p.ctx, name, fn)
		p.record(TaskMetric{Name: name, Wall: time.Since(start), Err: err}) //hwatchvet:allow detrand wall metric is reporting-only and never feeds digests
	}()
}

func runTask(ctx context.Context, name string, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %s panicked: %v", name, r)
		}
	}()
	return fn(ctx)
}

func (p *Pool) record(m TaskMetric) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.metrics = append(p.metrics, m)
	if m.Err != nil && p.firstErr == nil {
		p.firstErr = m.Err
	}
}

// Wait blocks until all submitted tasks completed or were skipped and
// returns the first task (or cancellation) error.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr != nil {
		return p.firstErr
	}
	return p.ctx.Err()
}

// Metrics returns the per-task runtime records accumulated so far. Call
// after Wait for the complete set.
func (p *Pool) Metrics() []TaskMetric {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TaskMetric, len(p.metrics))
	copy(out, p.metrics)
	return out
}

// Map runs fn over items with bounded parallelism and returns the outputs
// in item order. On cancellation or task error the corresponding slots are
// left at the zero value and the first error is returned alongside the
// partial results.
func Map[I, O any](ctx context.Context, parallel int, items []I, fn func(ctx context.Context, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	pool := NewPool(ctx, parallel)
	for i := range items {
		i := i
		pool.Go(fmt.Sprintf("task-%d", i), func(ctx context.Context) error {
			v, err := fn(ctx, items[i])
			if err != nil {
				return err
			}
			out[i] = v
			return nil
		})
	}
	err := pool.Wait()
	return out, err
}
