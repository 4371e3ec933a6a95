// Fixture for the ctxflow analyzer: loaded by atest under the package
// path hwatch/internal/server/a, which is inside the context-threading
// contract (and is not package main).
package a

import (
	"context"
	"time"
)

// RunContext is a threaded entry point.
func RunContext(ctx context.Context) error { return ctx.Err() }

// Run is the ctx-less twin the tree no longer keeps: handing a fresh
// root to the *Context variant is where cancellation used to stop, and
// declaring both forms is itself a finding.
func Run() error { // want `Run is declared next to RunContext`
	return RunContext(context.Background()) // want `context\.Background mints a fresh root`
}

func mintsRoot() {
	ctx := context.Background() // want `context\.Background mints a fresh root`
	_ = ctx
}

func mintsTODO() {
	ctx := context.TODO() // want `context\.TODO mints a fresh root`
	_ = ctx
}

// hasCtxButMints has a caller context to thread and drops it.
func hasCtxButMints(ctx context.Context) error {
	return RunContext(context.Background()) // want `context\.Background mints a fresh root`
}

// withTimeout derives from a fresh root instead of the caller's context.
func withTimeout() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second) // want `context\.Background mints a fresh root`
	defer cancel()
	_ = ctx
}

// threaded is the contract being enforced: accept and pass through.
func threaded(ctx context.Context) error {
	return RunContext(ctx)
}

func suppressed() {
	//hwatchvet:allow ctxflow background worker outlives every request by design; lifecycle is owned by Close
	ctx := context.Background()
	_ = ctx
}

// Methods are twins per receiver: job.Wait beside job.WaitContext is one,
// pool.Wait with no pool.WaitContext is not.
type job struct{}

func (j *job) Wait() error { // want `job\.Wait is declared next to job\.WaitContext`
	return nil
}

func (j job) WaitContext(ctx context.Context) error { return ctx.Err() }

type pool struct{}

func (pool) Wait() {}
