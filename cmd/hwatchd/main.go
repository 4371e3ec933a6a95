// Command hwatchd serves scenario jobs over HTTP/JSON: a multi-tenant
// front door to the simulator with bounded concurrency, queue
// backpressure (429 + Retry-After), streamed per-job progress, and a
// content-addressed result cache keyed by (canonical spec digest, code
// version).
//
// Usage:
//
//	hwatchd -addr :8080
//	curl -s -X POST -d @examples/server_submit.json 'localhost:8080/api/v1/jobs?wait=1'
//
// See README.md "Running as a service" for the full walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"hwatch"
	"hwatch/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwatchd: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		parallel = flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admitted jobs beyond the running set before 429 (0 = 2*parallel)")
		cacheMB  = flag.Int64("cache-mb", 64, "result-cache budget, MiB of encoded results")
		shards   = flag.Int("shards", 0, "engine shards per run (0/1 = single loop; digests must not change)")
	)
	flag.Parse()
	hwatch.SetShards(*shards)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv := server.New(ctx, server.Config{
		Parallel:   *parallel,
		QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
	})
	defer srv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("version %s listening on %s (parallel=%d)", srv.Version(), *addr, srv.Stats().Parallel)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
