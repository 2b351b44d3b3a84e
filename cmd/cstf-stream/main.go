// cstf-stream runs the streaming side of the system: it ingests a stream of
// tensor nonzeros, merges them into a resident COO tensor in bounded
// micro-batch windows, refreshes the CP factors incrementally (touched rows
// only, with a periodic warm full sweep to bound drift), and publishes each
// refreshed model as a new checkpoint version that a watching `cstf-serve
// -watch` instance hot-reloads.
//
// Two sources:
//
//	cstf-stream -source synthetic -dims 2000,1500,1000 -nnz 20000 -windows 8 -model model.ckpt
//	    trains an initial model on the first -nnz events of a seeded planted
//	    stream, then streams -windows more windows through the updater.
//
//	cstf-stream -source tail -follow events.tns -model model.ckpt -windows 0
//	    loads events.tns (plain or .tns.gz), trains the initial model on it,
//	    then tails the file: lines appended by producers stream into the
//	    model until interrupted (windows 0 = run until Ctrl-C).
//
// Pair it with the server to close the loop:
//
//	cstf-serve -model model.ckpt -watch 100ms &
//	cstf-stream -source tail -follow events.tns -model model.ckpt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cstf/internal/cpals"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

func main() {
	model := flag.String("model", "", "checkpoint path to publish versions to (required)")
	source := flag.String("source", "synthetic", "event source: synthetic|tail")
	follow := flag.String("follow", "", "append-only .tns log to tail (required for -source tail)")
	dimsArg := flag.String("dims", "2000,1500,1000", "initial tensor shape for -source synthetic")
	nnz := flag.Int("nnz", 20000, "nonzeros for the initial batch training (synthetic source)")
	rank := flag.Int("rank", 4, "decomposition rank")
	trainIters := flag.Int("train-iters", 5, "batch ALS iterations for the initial model")
	window := flag.Int("window", 1024, "events per delta window")
	windows := flag.Int("windows", 8, "windows to stream before exiting (0 = until source ends or Ctrl-C)")
	publishEvery := flag.Int("publish-every", 1, "publish a checkpoint version every Nth window (negative disables)")
	fullSweepEvery := flag.Int("full-sweep-every", 4, "warm full ALS sweep every Nth window to bound drift (0 disables)")
	queueDepth := flag.Int("queue", 8192, "ingest queue depth")
	policyArg := flag.String("policy", "block", "queue policy when full: block|drop")
	grow := flag.Int("grow-every", 0, "synthetic source grows a mode every N events (0 = static dims)")
	noise := flag.Float64("noise", 0.05, "value noise of the synthetic planted stream")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	workers := flag.Int("workers", 0, "update parallelism (0 = all cores)")
	quiet := flag.Bool("quiet", false, "suppress per-window status lines")
	flag.Parse()

	if *model == "" {
		fatal(errors.New("-model is required (the checkpoint path served by cstf-serve -watch)"))
	}
	var policy stream.Policy
	switch *policyArg {
	case "block":
		policy = stream.Block
	case "drop":
		policy = stream.DropNewest
	default:
		fatal(fmt.Errorf("unknown -policy %q (want block or drop)", *policyArg))
	}

	// Build the source and the initial resident tensor.
	var (
		src stream.Source
		x   *tensor.COO
	)
	switch *source {
	case "synthetic":
		dims, err := parseDims(*dimsArg)
		if err != nil {
			fatal(err)
		}
		total := *nnz
		if *windows > 0 {
			total += *windows * *window
		}
		syn, err := stream.NewSynthetic(stream.SyntheticConfig{
			Seed: *seed, Dims: dims, Rank: *rank,
			Noise: *noise, Total: total, GrowEvery: *grow,
		})
		if err != nil {
			fatal(err)
		}
		first, err := syn.Next(*nnz)
		if err != nil {
			fatal(err)
		}
		x = tensor.New(syn.Dims()...)
		x.Entries = append([]tensor.Entry(nil), first...)
		x.DedupSum()
		src = syn
	case "tail":
		if *follow == "" {
			fatal(errors.New("-source tail requires -follow <events.tns>"))
		}
		var err error
		x, err = tensor.LoadTNSFile(*follow)
		if err != nil {
			fatal(err)
		}
		tail, err := stream.NewTail(*follow, true) // only NEW appends stream
		if err != nil {
			fatal(err)
		}
		defer tail.Close()
		src = tail
	default:
		fatal(fmt.Errorf("unknown -source %q (want synthetic or tail)", *source))
	}

	fmt.Fprintf(os.Stderr, "cstf-stream: training initial model: %d nnz, dims %v, rank %d, %d iters\n",
		x.NNZ(), x.Dims, *rank, *trainIters)
	res, err := cpals.Solve(x, cpals.Options{Rank: *rank, MaxIters: *trainIters, Seed: *seed, Parallelism: *workers})
	if err != nil {
		fatal(err)
	}
	u, err := stream.NewUpdaterFromResult(x, res, *seed, *workers)
	if err != nil {
		fatal(err)
	}
	pub := stream.NewPublisher(*model, *seed)
	if _, err := pub.Publish(u, res.Fit()); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "cstf-stream: published v%d to %s (fit %.4f); streaming...\n",
		pub.Version(), *model, res.Fit())

	p, err := stream.NewPipeline(src, u, pub, stream.Config{
		WindowSize:     *window,
		PublishEvery:   *publishEvery,
		FullSweepEvery: *fullSweepEvery,
		MaxWindows:     *windows,
		Queue:          stream.QueueConfig{Depth: *queueDepth, Policy: policy},
		OnWindow: func(ws stream.WindowStats) {
			if *quiet {
				return
			}
			sweep := ""
			if ws.FullSweep {
				sweep = fmt.Sprintf("  full sweep fit %.4f", ws.Fit)
			}
			ver := "unpublished"
			if ws.Version > 0 {
				ver = fmt.Sprintf("v%d, lag %.1fms", ws.Version, ws.LagMs)
			}
			fmt.Fprintf(os.Stderr, "cstf-stream: window %d: %d events, %d rows touched, %.1fms (%s)%s\n",
				ws.Window, ws.Update.Events, ws.Update.TouchedRows, ws.Update.DurationMs, ver, sweep)
		},
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := p.Run(ctx); err != nil {
		fatal(err)
	}
	met := p.Metrics()
	fmt.Fprintf(os.Stderr, "cstf-stream: done: %d windows, %d events, %d versions published, %d full sweeps, final fit %.4f, dims %v, %d nnz\n",
		met.Windows, met.Events, met.Published, met.FullSweeps, u.Fit(), u.Dims(), u.Tensor().NNZ())
	if met.Queue.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "cstf-stream: WARNING: shed %d events at the ingest queue (depth %d, policy %s)\n",
			met.Queue.Dropped, *queueDepth, policy)
	}
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 || int64(v) > 1<<32 { // indices are 32-bit
			return nil, fmt.Errorf("bad mode size %q", p)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstf-stream:", err)
	os.Exit(1)
}
