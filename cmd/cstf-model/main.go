// cstf-model is the what-if tool: it predicts per-iteration cost (shuffle
// operations, shuffled bytes, modeled runtime) for CSTF-COO, CSTF-QCOO and
// BIGtensor from the closed-form analytic model in internal/perfmodel —
// without running the algorithms — and can optionally cross-check the
// prediction against the simulator.
//
// Usage:
//
//	cstf-model -dataset nell1 -scale 1e-4 -rank 2 -nodes 4,8,16,32
//	cstf-model -dims 100000,80000,60000 -nnz 1000000 -rank 8 -nodes 8
//	cstf-model -dataset delicious3d -scale 1e-4 -nodes 8 -simulate
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cstf/internal/bigtensor"
	"cstf/internal/cluster"
	"cstf/internal/core"
	"cstf/internal/mapreduce"
	"cstf/internal/perfmodel"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
	"cstf/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "", "Table 5 dataset name")
	scale := flag.Float64("scale", 1e-4, "dataset scale for -dataset")
	dimsArg := flag.String("dims", "", "comma-separated mode sizes (alternative to -dataset)")
	nnz := flag.Int("nnz", 100000, "nonzero count for -dims")
	zipf := flag.Float64("zipf", 0, "fiber skew for -dims (0 = uniform)")
	rank := flag.Int("rank", 2, "decomposition rank")
	nodesArg := flag.String("nodes", "4,8,16,32", "comma-separated node counts")
	simulate := flag.Bool("simulate", false, "also run one simulated iteration and report prediction error")
	flag.Parse()

	var x *tensor.COO
	switch {
	case *dataset != "":
		cfg, err := workload.ByName(*dataset)
		if err != nil {
			fatal(err)
		}
		x = cfg.Generate(*scale)
	case *dimsArg != "":
		dims, err := parseInts(*dimsArg)
		if err != nil {
			fatal(err)
		}
		if *zipf > 0 {
			x = tensor.GenZipf(1, *nnz, *zipf, dims...)
		} else {
			x = tensor.GenUniform(1, *nnz, dims...)
		}
	default:
		fatal(fmt.Errorf("one of -dataset or -dims is required"))
	}
	nodesList, err := parseInts(*nodesArg)
	if err != nil {
		fatal(err)
	}
	p := cluster.CometProfile()
	fmt.Printf("workload: order=%d dims=%v nnz=%d rank=%d\n\n", x.Order(), x.Dims, x.NNZ(), *rank)
	fmt.Printf("%-6s %-10s %10s %14s %12s\n", "nodes", "algo", "shuffles", "bytes/iter", "s/iter")

	for _, nodes := range nodesList {
		parts := nodes * p.CoresPerNode
		w := perfmodel.WorkloadOf(x, *rank, nodes, parts)
		preds := map[string]perfmodel.Prediction{
			"COO":  perfmodel.PredictCOO(w, p),
			"QCOO": perfmodel.PredictQCOO(w, p),
		}
		if x.Order() == 3 {
			if bp, err := perfmodel.PredictBigtensor(w, p); err == nil {
				preds["BIGtensor"] = bp
			}
		}
		for _, name := range []string{"COO", "QCOO", "BIGtensor"} {
			pr, ok := preds[name]
			if !ok {
				continue
			}
			fmt.Printf("%-6d %-10s %10d %14.3g %12.1f\n", nodes, name, pr.Shuffles, pr.ShuffleBytes, pr.Seconds)
			if *simulate {
				sh, by, sec := simulateOne(name, x, *rank, nodes, parts, p)
				fmt.Printf("%-6s %-10s %10d %14.3g %12.1f   (simulated; pred/sim time %.2f)\n",
					"", "  `-sim", sh, by, sec, pr.Seconds/sec)
			}
		}
	}
}

func simulateOne(algo string, x *tensor.COO, rank, nodes, parts int, p cluster.Profile) (int, float64, float64) {
	c := cluster.New(nodes, p)
	run := func(step func(n int) error) (int, float64, float64) {
		for n := 0; n < x.Order(); n++ {
			step(n)
		}
		before := c.Metrics()
		for n := 0; n < x.Order(); n++ {
			step(n)
		}
		d := c.Metrics().Sub(before)
		return d.TotalShuffles(), d.TotalRemoteBytes() + d.TotalLocalBytes(), d.TotalSimTime()
	}
	switch algo {
	case "COO":
		s := core.NewCOOState(rdd.NewContext(c, parts), x, rank, 1)
		return run(s.Step)
	case "QCOO":
		s := core.NewQCOOState(rdd.NewContext(c, parts), x, rank, 1)
		return run(s.Step)
	default:
		s, err := bigtensor.New(mapreduce.NewEnv(c, parts), x, rank, 1)
		if err != nil {
			fatal(err)
		}
		return run(s.Step)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cstf-model:", err)
	os.Exit(1)
}
