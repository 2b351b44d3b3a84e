// Command bench is the repository's benchmark: four workloads, each a
// generate → train → serve → query path at a different shape, measured end
// to end through the public cstf API and the serve HTTP endpoints with
// defaults for everything, and layer by layer in a separate traced run.
// BENCHMARK.json at the repository root declares it; README.md in this
// directory says what each number means and how to run it.
//
//	go run ./bench -workload als3-zipf -seed 1            one run, end to end
//	go run ./bench -workload als3-zipf -seed 1 -trace out.json   traced run
//	go run ./bench -all -seed 1 -out record.json          every workload, fresh process each
//	go run ./bench -check-repeat -out-dir bench/results   the full set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process")
		seed         = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time of one run; iteration counts and phase lengths scale with it")
		trace        = flag.String("trace", "0", "0: end-to-end run; 1: traced run printing the per-layer metrics; a path: traced run that also writes a Chrome trace there")
		smoke        = flag.Bool("smoke", false, "shrink every workload to a fraction of a second (checks only, measures nothing)")
		all          = flag.Bool("all", false, "run every workload, each in a fresh process, and print every metric")
		checkRepeat  = flag.Bool("check-repeat", false, "run the full set twice and fail if any end-to-end median moved by more than its bound")
		runs         = flag.Int("runs", 3, "with -all or -check-repeat: end-to-end runs per workload, reported as their median")
		out          = flag.String("out", "", "with -all: write the JSON record here")
		outDir       = flag.String("out-dir", "", "with -check-repeat: write the two records here")
		workDir      = flag.String("work-dir", ".bench_build", "scratch directory for checkpoints")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		callOnly     = flag.Bool("call", false, "internal: set -workload up, run its Decompose call once, print one JSON line")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	set := setConfig{Seed: *seed, Seconds: *seconds, Runs: *runs, Smoke: *smoke, TraceOut: tracePath(*trace), WorkDir: *workDir}
	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkManifest()); err != nil {
			fatal(err)
		}
	case *callOnly:
		cr, err := runCall(runConfig{Workload: *workloadName, Seed: *seed, Seconds: *seconds})
		if err != nil {
			fatal(err)
		}
		b, _ := json.Marshal(cr) // a struct of numbers always encodes
		fmt.Printf("%s\n", b)
	case *checkRepeat:
		ok, err := runCheckRepeat(set, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		rec, err := runSet(set)
		if err != nil {
			fatal(err)
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := rec.write(*out); err != nil {
				fatal(err)
			}
		}
		if !rec.correct() {
			os.Exit(1)
		}
	case *workloadName != "":
		cfg := runConfig{
			Workload: *workloadName, Seed: *seed, Seconds: *seconds, Smoke: *smoke,
			Trace: *trace != "0", TraceOut: tracePath(*trace), WorkDir: *workDir,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
		}
		printResult(os.Stdout, res, cfg.Trace)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// tracePath is the Chrome-trace destination a -trace value names, if any.
func tracePath(v string) string {
	if _, err := strconv.Atoi(v); err == nil {
		return ""
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
