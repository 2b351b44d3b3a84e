// cstf factorizes a sparse tensor with CP-ALS using any of the
// implementations in this repository.
//
// Usage:
//
//	cstf -in tensor.tns -algo qcoo -rank 8 -iters 25 -nodes 8
//	cstf -dataset nell1 -scale 1e-4 -algo coo
//	cstf -in tensor.tns -dist-local 4
//	cstf -in tensor.tns -dist host1:9021,host2:9021
//	cstf -in tensor.tns -algo rals -rals-frac 0.05 -rals-resample 5 -rals-polish 6
//	cstf -in train.tns -algo ncp -rank 4 -ntf-inner 2 -checkpoint m.ckpt -checkpoint-every 5
//
// Exactly one of -in (a FROSTT .tns file) or -dataset (a Table 5 dataset
// name; see -list) selects the input. Simulated distributed algorithms
// (coo, qcoo, bigtensor) print the modeled cluster cost summary; -dist and
// -dist-local run the MTTKRPs on the REAL distributed runtime against
// cstf-worker processes — under -algo rals or ncp, else the exact dist tier
// — and print measured wall clock and bytes on the wire; -algo rals runs
// randomized leverage-score-sampled ALS (see the -rals-* flags); -factors
// writes the factor matrices as .tns-style text files.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"cstf"
)

func main() {
	in := flag.String("in", "", "input tensor in FROSTT .tns format")
	dataset := flag.String("dataset", "", "generate a Table 5 dataset instead of reading a file")
	scale := flag.Float64("scale", 1e-4, "dataset scale when using -dataset")
	list := flag.Bool("list", false, "list available -dataset names and exit")
	algo := flag.String("algo", "qcoo", "algorithm: "+strings.Join(cstf.AlgorithmNames(), "|"))
	distAddrs := flag.String("dist", "", "comma-separated cstf-worker addresses; implies -algo dist unless -algo is rals or ncp")
	distLocal := flag.Int("dist-local", 0, "launch N local workers and run distributed; implies -algo dist unless -algo is rals or ncp")
	distBin := flag.String("dist-worker-bin", "", "cstf-worker binary for -dist-local (default: $CSTF_WORKER_BIN, next to cstf, or $PATH; in-process fallback)")
	distCSF := flag.Bool("dist-csf", false, "run worker MTTKRPs with the SPLATT CSF kernel (bitwise-matches the serial CSF solver, not the COO one)")
	distMinWorkers := flag.Int("dist-min-workers", 0, "live-worker floor before degrading to a coordinator-local solve (0 = 1; negative makes fleet collapse a hard error)")
	ralsFrac := flag.Float64("rals-frac", 0, "rals: sample this fraction of the nonzeros per mode update (0 with -rals-count unset = 0.1)")
	ralsCount := flag.Int("rals-count", 0, "rals: sample a fixed number of nonzeros per mode update (overrides -rals-frac)")
	ralsResample := flag.Int("rals-resample", 0, "rals: redraw the sampled tensors every N iterations (0 = every iteration)")
	ralsPolish := flag.Int("rals-polish", 0, "rals: run the last N iterations with the exact kernel")
	ralsFinalFit := flag.Bool("rals-final-fit", false, "rals: compute the exact fit only once, after the final iteration")
	ntfInner := flag.Int("ntf-inner", 0, "ncp: coordinate-descent passes per row problem each mode update (0 = default)")
	rank := flag.Int("rank", 8, "decomposition rank R")
	iters := flag.Int("iters", 25, "maximum ALS iterations")
	tol := flag.Float64("tol", 1e-5, "fit-improvement stopping tolerance (0 disables)")
	nodes := flag.Int("nodes", 4, "simulated worker nodes for distributed algorithms")
	seed := flag.Uint64("seed", 42, "deterministic initialization seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for shared-memory kernels (0 = all cores)")
	progress := flag.Bool("progress", false, "print the fit after every ALS iteration")
	factors := flag.String("factors", "", "directory to write factor matrices (optional)")
	trace := flag.String("trace", "", "write a Chrome trace of the modeled execution to this file")
	chaosSpec := flag.String("chaos", "", `inject faults, e.g. "crashes=1,partitions=1,corrupt=1,seed=7" (keys: crashes, disks, partitions, corrupt, torn, stragglers, slow, netdrops, net, horizon, spec, seed)`)
	checkpoint := flag.String("checkpoint", "", "checkpoint file for -checkpoint-every / -resume")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write -checkpoint after every N completed iterations (0 disables)")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	flag.Parse()

	if *list {
		fmt.Println("available datasets:", strings.Join(cstf.DatasetNames(), ", "))
		return
	}

	var x *cstf.Tensor
	var err error
	switch {
	case *in != "" && *dataset != "":
		fatal(fmt.Errorf("use either -in or -dataset, not both"))
	case *in != "":
		if strings.HasSuffix(*in, ".bin") {
			x, err = cstf.LoadBinaryTensor(*in)
		} else {
			x, err = cstf.LoadTensor(*in)
		}
	case *dataset != "":
		x, err = cstf.Dataset(*dataset, *scale)
	default:
		fatal(fmt.Errorf("one of -in or -dataset is required (see -h)"))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("input:", x)

	o := cstf.Options{
		Algorithm:   cstf.Algorithm(*algo),
		Rank:        *rank,
		MaxIters:    *iters,
		Tol:         *tol,
		Seed:        *seed,
		Nodes:       *nodes,
		Parallelism: *parallel,
	}
	if *tol == 0 {
		o.NoConvergenceCheck = true
	}
	if *distAddrs != "" || *distLocal > 0 {
		// An algorithm that can run on a fleet keeps its own update with the
		// MTTKRPs on the workers; any other registered one becomes the exact
		// dist tier (an unknown name stays, for Decompose to reject).
		if a, ok := o.Algorithm.Info(); ok && !a.Fleet {
			o.Algorithm = cstf.Dist
		}
		if *distAddrs != "" {
			o.Dist.Addrs = strings.Split(*distAddrs, ",")
		}
		o.Dist.LocalWorkers = *distLocal
		o.Dist.WorkerBin = *distBin
		o.Dist.CSFKernel = *distCSF
		o.Dist.MinWorkers = *distMinWorkers
	}
	o.RALS = cstf.RALSOptions{
		SampleFraction:   *ralsFrac,
		SampleCount:      *ralsCount,
		ResampleEvery:    *ralsResample,
		ExactFinishIters: *ralsPolish,
		FinalFitOnly:     *ralsFinalFit,
	}
	o.NTF = cstf.NTFOptions{InnerIters: *ntfInner}
	if *dataset != "" {
		o.WorkScale = 1 / *scale // report full-scale-equivalent modeled time
	}
	o.TracePath = *trace
	if *chaosSpec != "" {
		cs, err := parseChaos(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		o.Faults.Chaos = cs
	}
	if *checkpointEvery > 0 || *resume {
		if *checkpoint == "" {
			fatal(fmt.Errorf("-checkpoint-every and -resume require -checkpoint"))
		}
	}
	o.Faults.CheckpointEvery = *checkpointEvery
	o.Faults.CheckpointPath = *checkpoint
	if *progress {
		o.OnIteration = func(iter int, fit float64) bool {
			fmt.Printf("iter %3d  fit %.6f\n", iter+1, fit)
			return false
		}
	}

	// Ctrl-C aborts between ALS iterations with a clean error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var dec *cstf.Decomposition
	if *resume {
		dec, err = cstf.DecomposeResumeContext(ctx, x, *checkpoint, o)
	} else {
		dec, err = cstf.DecomposeContext(ctx, x, o)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("algorithm:  %s\n", o.Algorithm)
	fmt.Printf("iterations: %d\n", dec.Iters)
	fmt.Printf("fit:        %.6f\n", dec.Fit())
	fmt.Printf("residual:   %.6f\n", dec.Residual(x))
	fmt.Printf("lambda:     %.4g\n", dec.Lambda)
	if dec.Metrics.DistWorkers > 0 {
		m := dec.Metrics
		fmt.Printf("measured distributed run (%d workers):\n", m.DistWorkers)
		fmt.Printf("  wall time:   %.3f s\n", m.WallSeconds)
		fmt.Printf("  wire sent:   %.2f MB\n", float64(m.WireBytesSent)/1e6)
		fmt.Printf("  wire recv:   %.2f MB\n", float64(m.WireBytesRecv)/1e6)
		fmt.Printf("  shards:      %.2f MB\n", float64(m.WireShardBytes)/1e6)
		fmt.Printf("  factors:     %.2f MB (%d delta frames)\n", float64(m.WireFactorBytes)/1e6, m.WireDeltaFrames)
		fmt.Printf("  coordinator phases (s, sum = wall time):\n")
		for _, p := range m.DistPhases {
			fmt.Printf("    %-14s %.3f\n", p.Name, p.Seconds)
		}
		if m.FactorResyncs > 0 {
			fmt.Printf("  resyncs:     %d full-factor resends after reassignment\n", m.FactorResyncs)
		}
		if m.WorkerDeaths > 0 {
			fmt.Printf("  worker deaths: %d (reassigned %d tasks, re-sent %d shards)\n",
				m.WorkerDeaths, m.TaskReassignments, m.ShardResends)
		}
		if m.WorkerRejoins > 0 {
			fmt.Printf("  worker rejoins: %d\n", m.WorkerRejoins)
		}
		if m.CorruptFrames > 0 {
			fmt.Printf("  corrupt frames: %d rejected by checksum\n", m.CorruptFrames)
		}
		if m.DistDegraded {
			fmt.Println("  degraded:    fleet collapsed; finished coordinator-local (bitwise identical)")
		}
	}
	if dec.Metrics.SimSeconds > 0 {
		m := dec.Metrics
		fmt.Printf("modeled cluster cost (%d nodes):\n", *nodes)
		fmt.Printf("  time:          %.1f s\n", m.SimSeconds)
		fmt.Printf("  remote shuffle: %.2f MB\n", m.RemoteBytes/1e6)
		fmt.Printf("  local shuffle:  %.2f MB\n", m.LocalBytes/1e6)
		fmt.Printf("  shuffles:       %d\n", m.Shuffles)
		if m.HadoopJobs > 0 {
			fmt.Printf("  hadoop jobs:    %d\n", m.HadoopJobs)
		}
		if m.NodeCrashes > 0 || m.DiskFailures > 0 || m.TaskFailures > 0 ||
			m.StragglerStages > 0 || m.CheckpointSeconds > 0 {
			fmt.Println("fault tolerance:")
			if m.NodeCrashes > 0 {
				fmt.Printf("  node crashes:    %d (lost cache %.2f MB)\n", m.NodeCrashes, m.LostCacheBytes/1e6)
			}
			if m.DiskFailures > 0 {
				fmt.Printf("  disk failures:   %d\n", m.DiskFailures)
			}
			if m.RecomputedPartitions > 0 {
				fmt.Printf("  recomputed:      %d partitions from lineage\n", m.RecomputedPartitions)
			}
			if m.ReReplicatedBytes > 0 {
				fmt.Printf("  re-replicated:   %.2f MB\n", m.ReReplicatedBytes/1e6)
			}
			if m.TaskFailures > 0 {
				fmt.Printf("  task retries:    %d (stage retries %d)\n", m.TaskFailures, m.StageRetries)
			}
			if m.StragglerStages > 0 {
				fmt.Printf("  straggler stages: %d (speculative tasks %d)\n", m.StragglerStages, m.SpeculativeTasks)
			}
			if m.RecoverySeconds > 0 {
				fmt.Printf("  recovery time:   %.1f s\n", m.RecoverySeconds)
			}
			if m.CheckpointSeconds > 0 {
				fmt.Printf("  checkpoint time: %.1f s\n", m.CheckpointSeconds)
			}
		}
	}

	if *factors != "" {
		if err := os.MkdirAll(*factors, 0o755); err != nil {
			fatal(err)
		}
		for n, f := range dec.Factors {
			path := filepath.Join(*factors, fmt.Sprintf("mode-%d.txt", n+1))
			if err := writeFactor(path, f); err != nil {
				fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}

// parseChaos parses the -chaos "key=value,key=value" spec.
func parseChaos(s string) (*cstf.ChaosSpec, error) {
	cs := &cstf.ChaosSpec{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("-chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "crashes":
			_, err = fmt.Sscanf(v, "%d", &cs.NodeCrashes)
		case "disks":
			_, err = fmt.Sscanf(v, "%d", &cs.DiskFailures)
		case "partitions":
			_, err = fmt.Sscanf(v, "%d", &cs.NetPartitions)
		case "corrupt":
			_, err = fmt.Sscanf(v, "%d", &cs.FrameCorrupts)
		case "torn":
			_, err = fmt.Sscanf(v, "%d", &cs.TornWrites)
		case "stragglers":
			_, err = fmt.Sscanf(v, "%d", &cs.Stragglers)
		case "slow":
			_, err = fmt.Sscanf(v, "%g", &cs.StragglerFactor)
		case "netdrops":
			_, err = fmt.Sscanf(v, "%d", &cs.NetDrops)
		case "net":
			_, err = fmt.Sscanf(v, "%g", &cs.NetFactor)
		case "horizon":
			_, err = fmt.Sscanf(v, "%d", &cs.HorizonStages)
		case "spec":
			_, err = fmt.Sscanf(v, "%g", &cs.Speculation)
		case "seed":
			_, err = fmt.Sscanf(v, "%d", &cs.Seed)
		default:
			return nil, fmt.Errorf("-chaos: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("-chaos: bad value for %q: %v", k, err)
		}
	}
	return cs, nil
}

func writeFactor(path string, f *cstf.Matrix) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	for i := 0; i < f.Rows(); i++ {
		fmt.Fprintf(out, "%d", i+1)
		for j := 0; j < f.Cols(); j++ {
			fmt.Fprintf(out, " %g", f.At(i, j))
		}
		fmt.Fprintln(out)
	}
	return out.Close()
}

// fatal prints err behind one "cstf: " prefix (the library's errors
// already carry it) and exits 1.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "cstf: ") {
		msg = "cstf: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
