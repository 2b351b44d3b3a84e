package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time the
// iteration counts and phase lengths are sized for.
const defaultSeconds = 20

// ---- one run's output --------------------------------------------------

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line selects the metrics of the run's mode. A layer the workload does
// not exercise reads 0; an end-to-end metric that is missing, zero or not
// finite makes the run incorrect.
func (r *runResult) line(trace bool) resultLine {
	out := resultLine{Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	complete := true
	for _, d := range defsFor(trace) {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if !trace && v == 0 {
			complete = false
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out.Correct = r.Failed == 0 && r.Attempted > 0 && complete
	return out
}

// printResult prints every metric of the run by name with its unit, then
// the result line.
func printResult(w io.Writer, r *runResult, trace bool) {
	line := r.line(trace)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, d := range defsFor(trace) {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "%-36s %14.6g ratio (%d failed of %d attempted)\n", "failed_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	b, _ := json.Marshal(line) // a map of numbers and strings always encodes
	fmt.Fprintf(w, "%s\n", b)
}

// ---- BENCHMARK.json ----------------------------------------------------

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// benchmarkManifest is BENCHMARK.json as this program defines it.
func benchmarkManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// ---- a set of runs -----------------------------------------------------

// setConfig is one full set: every workload, each run in a fresh process so
// peak RSS and garbage-collector state belong to that workload alone.
type setConfig struct {
	Seed     uint64
	Seconds  float64
	Runs     int
	Smoke    bool
	TraceOut string // traced runs write <TraceOut minus ext>.<workload><ext>
	WorkDir  string
}

// metricRecord is one metric over the runs of a set.
type metricRecord struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadRecord struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Correct   bool                    `json:"correct"`
	EndToEnd  map[string]metricRecord `json:"end_to_end"`
	PerLayer  map[string]metricRecord `json:"per_layer"`
}

// record is what one set writes: every metric of every workload, stamped
// with the host it was measured on.
type record struct {
	Host             hostInfo         `json:"host"`
	GeneratedAt      string           `json:"generated_at"`
	Seed             uint64           `json:"seed"`
	Seconds          float64          `json:"seconds"`
	Runs             int              `json:"runs"`
	StreamArrayBytes int64            `json:"stream_read_array_bytes"`
	Workloads        []workloadRecord `json:"workloads"`
}

// execSelf runs a fresh copy of this program and returns the last line it
// printed, waiting until it has ended.
func execSelf(args ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last, nil
}

// execCall runs one set-up and Decompose call of a workload in a child
// process.
func execCall(cfg runConfig) (callResult, error) {
	var cr callResult
	last, err := execSelf("-call", "-workload", cfg.Workload, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds))
	if err != nil {
		return cr, err
	}
	return cr, json.Unmarshal([]byte(last), &cr)
}

// execRun runs one workload in a fresh copy of this program and parses its
// result line.
func execRun(set setConfig, workload string, trace string) (resultLine, error) {
	var line resultLine
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(set.Seed), "-seconds", fmt.Sprint(set.Seconds),
		"-trace", trace, "-work-dir", set.WorkDir,
	}
	if set.Smoke {
		args = append(args, "-smoke")
	}
	last, err := execSelf(args...)
	if err != nil {
		return line, err
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s (trace %s): result line: %w", workload, trace, err)
	}
	return line, nil
}

// runSet runs every workload Runs times end to end and once traced.
func runSet(set setConfig) (*record, error) {
	host := readHost()
	rec := &record{
		Host: host, GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed: set.Seed, Seconds: set.Seconds, Runs: set.Runs,
		StreamArrayBytes: streamReadArrayBytes(host.LLCBytes),
	}
	for _, w := range workloads {
		wr := workloadRecord{Name: w.name, Why: w.why, Correct: true,
			EndToEnd: make(map[string]metricRecord), PerLayer: make(map[string]metricRecord)}
		add := func(into map[string]metricRecord, line resultLine) {
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.Correct = wr.Correct && line.Correct
			for name, mv := range line.Metrics {
				mr := into[name]
				mr.Unit = mv.Unit
				mr.Values = append(mr.Values, mv.Value)
				mr.N, mr.Median = len(mr.Values), median(mr.Values)
				into[name] = mr
			}
		}
		for r := 0; r < set.Runs; r++ {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", w.name, r+1, set.Runs)
			line, err := execRun(set, w.name, "0")
			if err != nil {
				return nil, err
			}
			add(wr.EndToEnd, line)
		}
		// Time to solution only compares at equal accuracy: the same seed
		// must give the same fit on every run.
		wr.Attempted++
		for _, v := range wr.EndToEnd["fit_final"].Values {
			if math.Float64bits(v) != math.Float64bits(wr.EndToEnd["fit_final"].Values[0]) {
				wr.Failed++
				wr.Correct = false
				fmt.Fprintf(os.Stderr, "bench: FAILED: %s: fit_final differs between runs of one seed\n", w.name)
				break
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s traced run\n", w.name)
		trace := "1"
		if set.TraceOut != "" {
			ext := filepath.Ext(set.TraceOut)
			trace = strings.TrimSuffix(set.TraceOut, ext) + "." + w.name + ext
		}
		line, err := execRun(set, w.name, trace)
		if err != nil {
			return nil, err
		}
		add(wr.PerLayer, line)
		rec.Workloads = append(rec.Workloads, wr)
	}
	return rec, nil
}

func (rec *record) correct() bool {
	for _, w := range rec.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (rec *record) print(w io.Writer) {
	h := rec.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, P %d, LLC %d MiB, %s, commit %s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.P, h.LLCBytes>>20, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "seed %d, %g s per run, %d end-to-end runs per workload\n", rec.Seed, rec.Seconds, rec.Runs)
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wr.Name, wr.Why)
		for _, d := range endToEnd {
			m := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d spread %.1f%%  (%s is better, bound %.0f%%)\n",
				d.Name, m.Median, m.Unit, m.N, spread(m.Values)*100, d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s %d failed of %d attempted\n", "failed_share",
			float64(wr.Failed)/float64(max(wr.Attempted, 1)), "ratio", wr.Failed, wr.Attempted)
		fmt.Fprintf(w, "  -- per layer (traced run)\n")
		for _, d := range perLayer {
			if m := wr.PerLayer[d.Name]; m.Median != 0 {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, m.Median, m.Unit)
			}
		}
	}
}

func (rec *record) write(path string) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCheckRepeat runs the full set twice on the same code and compares the
// medians of every end-to-end metric on every workload with its bound.
func runCheckRepeat(set setConfig, outDir string) (bool, error) {
	var recs [2]*record
	for i := range recs {
		fmt.Fprintf(os.Stderr, "bench: set %d of 2\n", i+1)
		rec, err := runSet(set)
		if err != nil {
			return false, err
		}
		recs[i] = rec
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return false, err
			}
			if err := rec.write(filepath.Join(outDir, fmt.Sprintf("reference-%c.json", 'a'+i))); err != nil {
				return false, err
			}
		}
	}
	ok := recs[0].correct() && recs[1].correct()
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for i, wa := range recs[0].Workloads {
		wb := recs[1].Workloads[i]
		for _, d := range endToEnd {
			a, b := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			diff := math.Abs(b-a) / math.Abs(a)
			bound := d.Bound
			if d.Name == "fit_final" {
				bound = 1e-9 // one seed, one code: the fit repeats exactly
			}
			verdict := ""
			if !(diff <= bound) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.2f%% %6.2g%%%s\n", wa.Name, d.Name, a, b, diff*100, bound*100, verdict)
		}
	}
	return ok, nil
}
