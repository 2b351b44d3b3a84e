// cstf-serve loads a trained CP model from a checkpoint file (written by
// `cstf -checkpoint ... -checkpoint-every N`) and serves prediction,
// top-K completion, and similarity queries over an HTTP JSON API.
//
// Usage:
//
//	cstf -dataset nell1 -scale 1e-4 -rank 8 -checkpoint model.ckpt -checkpoint-every 1
//	cstf-serve -model model.ckpt -addr :8080
//	curl 'localhost:8080/topk?mode=1&row=7&k=10'
//
// The server watches the model file and hot-reloads it whenever a training
// run overwrites it: in-flight queries finish against the snapshot they
// started with, subsequent queries see the new factors, and a corrupt or
// half-trained file is rejected while the old model keeps serving. A fleet
// router can also trigger the reload on demand with POST /reloadz.
//
// On SIGTERM or SIGINT the server drains gracefully: it stops accepting
// new connections and queries, finishes every in-flight query, and exits —
// the replica half of a fleet's zero-downtime restarts.
//
// Endpoints: /predict, /topk, /similar, /healthz, /statsz, /reloadz (see
// internal/serve for parameters and error mapping).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cstf/internal/serve"
)

func main() {
	model := flag.String("model", "", "checkpoint file holding the trained model (required)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	watch := flag.Duration("watch", 500*time.Millisecond, "poll interval for hot reload of -model (0 disables)")
	maxBatch := flag.Int("max-batch", 0, "max queued ranked queries coalesced into one scan (0 = default 32)")
	queue := flag.Int("queue", 0, "request queue depth before shedding (0 = default 1024)")
	cache := flag.Int("cache", 0, "LRU result cache entries (0 = default 4096, negative disables)")
	workers := flag.Int("workers", 0, "goroutines per batched scan (0 = all cores)")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 disables)")
	approx := flag.Bool("approx", false, "serve full-mode TopK from the norm-pruned approximate index")
	approxCand := flag.Int("approx-candidates", 0, "candidate budget per approximate TopK (0 = default 2048, negative uncapped)")
	flag.Parse()

	if *model == "" {
		fatal(errors.New("-model is required (a checkpoint written by cstf -checkpoint)"))
	}
	m, err := serve.LoadCheckpoint(*model)
	if err != nil {
		fatal(err)
	}
	s, err := serve.New(m, serve.Config{
		MaxBatch:         *maxBatch,
		QueueDepth:       *queue,
		CacheSize:        *cache,
		Workers:          *workers,
		Timeout:          *timeout,
		Approx:           *approx,
		ApproxCandidates: *approxCand,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cstf-serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch > 0 {
		s.Watch(ctx, *model, *watch)
	}

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandlerWith(s, serve.HandlerConfig{ReloadPath: *model})}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "cstf-serve: model %s (rank %d, dims %v, iter %d, %.1f MB) listening on %s\n",
		*model, m.Components, m.Dims, m.Iter, float64(m.MemoryBytes())/(1<<20), *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: close the listener and wait for in-flight HTTP
		// requests (srv.Shutdown), refuse queries that race in on kept-
		// alive connections and wait out already-accepted ones (s.Drain),
		// then stop the executor.
		fmt.Fprintln(os.Stderr, "cstf-serve: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck // best-effort drain
		s.Drain()
		fmt.Fprintln(os.Stderr, "cstf-serve: drained, exiting")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstf-serve:", err)
	os.Exit(1)
}
