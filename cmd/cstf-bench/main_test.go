package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cstf/internal/experiments"
)

// stubRegistry has an entry that writes a file, one that writes nothing and
// an Explicit one; each appends its name to ran and reports its rank.
func stubRegistry(ran *[]string) []experiments.ExperimentInfo {
	entry := func(name string, explicit bool, files ...experiments.File) experiments.ExperimentInfo {
		return experiments.ExperimentInfo{Name: name, Explicit: explicit,
			Run: func(p experiments.Params) (string, []experiments.File, error) {
				*ran = append(*ran, name)
				return fmt.Sprintf("%s report at rank %d\n\n", name, p.Rank), files, nil
			}}
	}
	return []experiments.ExperimentInfo{
		entry("stub", false, experiments.File{Name: "stub.csv", Data: []byte("a,b\n1,2\n")}),
		entry("quiet", false),
		entry("explicit", true, experiments.File{Name: "explicit.json", Data: []byte("{}\n")}),
	}
}

func TestRunPrintsReportAndWritesFiles(t *testing.T) {
	var ran []string
	out := t.TempDir()
	var w strings.Builder
	p := experiments.DefaultParams()
	p.Rank = 3
	if err := run(&w, stubRegistry(&ran), "stub", p, out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(out, "stub.csv")
	if want := "stub report at rank 3\n\nwrote " + path + "\n"; w.String() != want {
		t.Fatalf("printed %q, want %q", w.String(), want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Fatalf("stub.csv holds %q", data)
	}
	if len(ran) != 1 {
		t.Fatalf("ran %v, want only stub", ran)
	}
}

func TestRunAllSkipsExplicitEntries(t *testing.T) {
	var ran []string
	out := t.TempDir()
	var w strings.Builder
	if err := run(&w, stubRegistry(&ran), "all", experiments.DefaultParams(), out); err != nil {
		t.Fatal(err)
	}
	if strings.Join(ran, ",") != "stub,quiet" {
		t.Fatalf("all ran %v, want stub,quiet", ran)
	}
	if _, err := os.Stat(filepath.Join(out, "explicit.json")); !os.IsNotExist(err) {
		t.Fatalf("all wrote the explicit entry's file: %v", err)
	}

	ran = nil
	if err := run(&w, stubRegistry(&ran), "explicit", experiments.DefaultParams(), out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "explicit.json")); err != nil || len(ran) != 1 {
		t.Fatalf("naming the explicit entry did not run it: ran %v, %v", ran, err)
	}
}

func TestRunEmptyOutSkipsFiles(t *testing.T) {
	var ran []string
	var w strings.Builder
	if err := run(&w, stubRegistry(&ran), "stub", experiments.DefaultParams(), ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(w.String(), "wrote") {
		t.Fatalf("empty -out still wrote: %q", w.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var ran []string
	out := filepath.Join(t.TempDir(), "results")
	var w strings.Builder
	err := run(&w, stubRegistry(&ran), "fig9", experiments.DefaultParams(), out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig9"`) {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
	if len(ran) != 0 || w.Len() != 0 {
		t.Fatalf("unknown experiment ran %v and printed %q", ran, w.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("unknown experiment created the output directory: %v", err)
	}
}

// Every registry entry is named uniquely, described and runnable.
func TestRegistryEntriesAreComplete(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments.Experiments() {
		if seen[e.Name] || e.Desc == "" || e.Run == nil {
			t.Errorf("entry %q: duplicate name, no description or no Run", e.Name)
		}
		seen[e.Name] = true
	}
}
