// cstf-router fronts a fleet of cstf-serve replicas with a stateless
// query router: consistent-hash cache affinity (or sharded scatter-gather),
// health-checked failover, and zero-drop rolling reloads. It serves the
// same HTTP query surface as a single replica, so clients point at the
// router and cannot tell one node from a fleet.
//
// Against an external fleet (each replica a cstf-serve process):
//
//	cstf-serve -model model.ckpt -addr :8081 &
//	cstf-serve -model model.ckpt -addr :8082 &
//	cstf-router -replicas localhost:8081,localhost:8082 -addr :8080
//	curl 'localhost:8080/topk?mode=1&row=7&k=10'
//	curl -X POST localhost:8080/reloadz   # roll a new model.ckpt across the fleet
//
// Against an in-process fleet on loopback ports (one machine, no extra
// processes — for demos and benchmarks):
//
//	cstf-router -model model.ckpt -local 4 -addr :8080
//
// -smoke runs a self-contained end-to-end check and exits: boot a local
// fleet, drive a closed-loop query burst through the router, roll a reload
// across every replica mid-burst, and fail unless zero queries dropped and
// every replica came back on the new model version.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cstf/internal/fleet"
	"cstf/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	replicas := flag.String("replicas", "", "comma-separated replica host:port list (external fleet)")
	local := flag.Int("local", 0, "start N in-process replicas from -model instead of -replicas")
	model := flag.String("model", "", "checkpoint for -local replicas (and their /reloadz path)")
	shard := flag.Bool("shard", false, "scatter-gather ranked queries across the fleet instead of affinity routing")
	probe := flag.Duration("probe", 250*time.Millisecond, "replica health-check interval")
	timeout := flag.Duration("timeout", 5*time.Second, "per-replica call timeout")
	cache := flag.Int("cache", 0, "local replicas: LRU cache entries (0 = default, negative disables)")
	workers := flag.Int("workers", 0, "local replicas: goroutines per scan (0 = all cores)")
	approx := flag.Bool("approx", false, "local replicas: serve full-mode TopK from the approximate index")
	smoke := flag.Bool("smoke", false, "run the fleet smoke check (local fleet + load + rolling reload) and exit")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cstf-router: "+format+"\n", args...)
	}

	var members []fleet.Replica
	var lf *fleet.LocalFleet
	switch {
	case *smoke:
		if err := runSmoke(*model, logf); err != nil {
			logf("SMOKE FAILED: %v", err)
			os.Exit(1)
		}
		logf("smoke ok")
		return
	case *local > 0:
		if *model == "" {
			fatal(errors.New("-local needs -model"))
		}
		var err error
		lf, err = fleet.StartLocal(*local, func(int) (*serve.Model, error) {
			return serve.LoadCheckpoint(*model)
		}, serve.Config{CacheSize: *cache, Workers: *workers, Approx: *approx},
			serve.HandlerConfig{ReloadPath: *model})
		if err != nil {
			fatal(err)
		}
		defer lf.Close()
		members = lf.Configs()
		logf("started %d local replicas from %s", *local, *model)
	case *replicas != "":
		for _, a := range strings.Split(*replicas, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			members = append(members, fleet.Replica{Name: a, URL: "http://" + a})
		}
	default:
		fatal(errors.New("need -replicas, -local N, or -smoke"))
	}

	rt, err := fleet.New(fleet.Config{
		Replicas:      members,
		Shard:         *shard,
		ProbeInterval: *probe,
		Timeout:       *timeout,
		Logf:          logf,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	srv := &http.Server{Addr: *addr, Handler: fleet.NewHandler(rt)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logf("routing %d replicas (shard=%v) on %s", len(members), *shard, *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		logf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck // best-effort drain
	}
}

// runSmoke is the end-to-end fleet check `make fleet-smoke` runs: a local
// 2-replica fleet takes a closed-loop query burst through the router while
// a rolling reload crosses every replica; zero dropped queries and a fleet
// uniformly on the new model version are the pass conditions. With no
// -model, a tiny deterministic checkpoint is synthesized in a temp dir.
func runSmoke(model string, logf func(string, ...any)) error {
	const n = 2
	if model == "" {
		dir, err := os.MkdirTemp("", "fleet-smoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		model = dir + "/model.ckpt"
		if err := serve.WriteDemoCheckpoint(model, 3, 1, 2000, 500, 100); err != nil {
			return err
		}
	}

	lf, err := fleet.StartLocal(n, func(int) (*serve.Model, error) {
		return serve.LoadCheckpoint(model)
	}, serve.Config{}, serve.HandlerConfig{ReloadPath: model})
	if err != nil {
		return err
	}
	defer lf.Close()
	rt, err := fleet.New(fleet.Config{
		Replicas:      lf.Configs(),
		ProbeInterval: 20 * time.Millisecond,
		Timeout:       5 * time.Second,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	startIter := lf.Replicas[0].Server.Model().Iter
	if err := serve.WriteDemoCheckpoint(model, 3, startIter+1, 2000, 500, 100); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var stats serve.LoadStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats = serve.RunLoad(ctx, rt, serve.LoadOptions{Clients: 4, Requests: 1 << 20, Seed: 7})
	}()

	time.Sleep(50 * time.Millisecond) // ramp: the load is running before the reload starts
	if err := rt.RollingReload(context.Background()); err != nil {
		cancel()
		wg.Wait()
		return fmt.Errorf("rolling reload: %w", err)
	}
	time.Sleep(50 * time.Millisecond) // the load keeps running on the reloaded fleet
	cancel()
	wg.Wait()

	if stats.Requests == 0 {
		return errors.New("load generator completed no requests")
	}
	if stats.Errors > 0 || stats.Shed > 0 {
		return fmt.Errorf("dropped queries during rolling reload: %d errors, %d shed (of %d)",
			stats.Errors, stats.Shed, stats.Requests)
	}
	st := rt.Stats()
	if st.Reload.Done != n {
		return fmt.Errorf("reload finished %d of %d replicas", st.Reload.Done, n)
	}
	for _, r := range lf.Replicas {
		if got := r.Server.Model().Iter; got != startIter+1 {
			return fmt.Errorf("replica %s on iter %d after roll, want %d", r.Name, got, startIter+1)
		}
	}
	logf("smoke: %d queries through the rolling reload, 0 dropped, fleet on iter %d",
		stats.Requests, startIter+1)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstf-router:", err)
	os.Exit(1)
}
