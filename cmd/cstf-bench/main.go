// cstf-bench regenerates the paper's evaluation — every figure and table
// of Section 6 — and the runtime benchmarks, as text reports plus CSV and
// JSON files. `cstf-bench -list` names and describes every experiment.
//
// Usage:
//
//	cstf-bench -list               # list experiments with descriptions
//	cstf-bench -exp all            # every experiment but json (default)
//	cstf-bench -exp fig2           # one experiment (see -list for names)
//	cstf-bench -scale 1e-3         # dataset scale (fraction of Table 5 sizes)
//	cstf-bench -rank 2             # decomposition rank (paper: 2)
//	cstf-bench -out results        # directory for CSV and JSON output ("" disables)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cstf/internal/experiments"
)

func main() {
	// The experiment registry (names, descriptions, run order, and what
	// each experiment prints and writes) lives in internal/experiments, so
	// -list, the -exp usage text and the runs cannot drift apart.
	registry := experiments.Experiments()
	names := make([]string, 0, len(registry)+1)
	names = append(names, "all")
	for _, e := range registry {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, "|"))
	scale := flag.Float64("scale", 1e-3, "dataset scale in (0, 1]")
	rank := flag.Int("rank", 2, "decomposition rank")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	out := flag.String("out", "results", "directory for CSV and JSON output (empty to skip)")
	list := flag.Bool("list", false, "list experiments with one-line descriptions and exit")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}

	p := experiments.DefaultParams()
	p.Scale = *scale
	p.Rank = *rank
	p.Seed = *seed
	if err := run(os.Stdout, registry, *exp, p, *out); err != nil {
		fmt.Fprintln(os.Stderr, "cstf-bench:", err)
		os.Exit(1)
	}
}

// run runs, in registry order, the entry named exp — or, for "all", every
// entry that is not Explicit. It prints each report to w and writes each
// file under the directory out, reporting the path; an empty out skips the
// files.
func run(w io.Writer, registry []experiments.ExperimentInfo, exp string, p experiments.Params, out string) error {
	var selected []experiments.ExperimentInfo
	for _, e := range registry {
		if e.Name == exp || (exp == "all" && !e.Explicit) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (see -list)", exp)
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	for _, e := range selected {
		report, files, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(w, report)
		if out == "" {
			continue
		}
		for _, f := range files {
			path := filepath.Join(out, f.Name)
			if err := os.WriteFile(path, f.Data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		}
	}
	return nil
}
