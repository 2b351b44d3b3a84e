// tensorgen writes synthetic sparse tensors in FROSTT .tns format.
//
// Usage:
//
//	tensorgen -out x.tns -dims 1000,800,600 -nnz 50000            # uniform
//	tensorgen -out x.tns -dims 1000,800,600 -nnz 50000 -zipf 0.8  # skewed
//	tensorgen -out x.tns -dataset delicious3d -scale 1e-4         # Table 5
//	tensorgen -out x.tns -dims 100,100,100 -nnz 20000 -rank 4 -noise 0.05
//	tensorgen -out train.tns -recsys -users 500 -items 300 -contexts 4 \
//	    -groups 4 -nnz 40000                                      # recommender
//
// -recsys generates a (users x items x contexts) implicit-feedback tensor
// with planted per-user preference structure, carves a deterministic
// per-user leave-out split, writes the TRAINING tensor to -out and the
// held-out interactions to -holdout (default: -out with a ".holdout"
// suffix before the extension). Training a nonnegative factorization on
// the training file and scoring HR@K/NDCG@K against the held-out file is
// exactly what `cstf-bench -exp recsys` and the internal/rank tests do —
// they share the split by sharing the seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cstf"
)

func main() {
	out := flag.String("out", "", "output .tns path (required)")
	dimsArg := flag.String("dims", "", "comma-separated mode sizes, e.g. 1000,800,600")
	nnz := flag.Int("nnz", 100000, "approximate nonzero count")
	zipf := flag.Float64("zipf", 0, "Zipf skew exponent in (0,1); 0 = uniform")
	rank := flag.Int("rank", 0, "plant a low-rank CP model of this rank (0 = random values)")
	noise := flag.Float64("noise", 0, "Gaussian noise level for -rank")
	dataset := flag.String("dataset", "", "generate a Table 5 dataset (overrides -dims/-nnz)")
	scale := flag.Float64("scale", 1e-4, "dataset scale for -dataset")
	format := flag.String("format", "tns", "output format: tns (FROSTT text) or bin (CSTFBIN1)")
	seed := flag.Uint64("seed", 1, "generation seed")
	recsys := flag.Bool("recsys", false, "generate a recommender tensor with a held-out split (see -users/-items/-contexts/-groups/-holdout)")
	users := flag.Int("users", 500, "recsys: user mode size")
	items := flag.Int("items", 300, "recsys: item mode size")
	contexts := flag.Int("contexts", 4, "recsys: context mode size")
	groups := flag.Int("groups", 4, "recsys: planted interest groups (also the natural factorization rank)")
	holdout := flag.String("holdout", "", "recsys: held-out output path (default: -out with a .holdout suffix)")
	flag.Parse()

	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}
	if *recsys {
		genRecsys(*out, *holdout, *format, *seed, *nnz, *users, *items, *contexts, *groups, *noise)
		return
	}

	var x *cstf.Tensor
	var err error
	switch {
	case *dataset != "":
		x, err = cstf.Dataset(*dataset, *scale)
	case *dimsArg != "":
		dims, derr := parseDims(*dimsArg)
		if derr != nil {
			fatal(derr)
		}
		switch {
		case *rank > 0:
			x = cstf.LowRankTensor(*seed, *nnz, *rank, *noise, dims...)
		case *zipf > 0:
			x = cstf.ZipfTensor(*seed, *nnz, *zipf, dims...)
		default:
			x = cstf.RandomTensor(*seed, *nnz, dims...)
		}
	default:
		fatal(fmt.Errorf("one of -dims or -dataset is required"))
	}
	if err != nil {
		fatal(err)
	}

	if err := save(x, *out, *format); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, x)
}

// genRecsys generates the recommender workload and writes the training
// tensor and its held-out split as two files sharing one seed.
func genRecsys(out, holdout, format string, seed uint64, nnz, users, items, contexts, groups int, noise float64) {
	x := cstf.RecsysTensor(seed, nnz, users, items, contexts, groups, noise)
	train, held, err := cstf.SplitHoldout(x, seed, 0)
	if err != nil {
		fatal(err)
	}
	if holdout == "" {
		holdout = holdoutPath(out)
	}
	if err := save(train, out, format); err != nil {
		fatal(err)
	}
	if err := save(held, holdout, format); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", out, train)
	fmt.Printf("wrote %s: %s (held-out)\n", holdout, held)
}

// holdoutPath derives the default held-out path: train.tns -> train.holdout.tns.
func holdoutPath(out string) string {
	if ext := filepath.Ext(out); ext != "" {
		return strings.TrimSuffix(out, ext) + ".holdout" + ext
	}
	return out + ".holdout"
}

func save(x *cstf.Tensor, path, format string) error {
	switch format {
	case "tns":
		return x.Save(path)
	case "bin":
		return x.SaveBinary(path)
	default:
		return fmt.Errorf("unknown format %q (tns or bin)", format)
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
	fmt.Fprintln(os.Stderr, "tensorgen:", err)
	os.Exit(1)
}
