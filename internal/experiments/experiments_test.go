package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// The tests below are the repository's reproduction contract: they assert
// the SHAPE claims of the paper's evaluation (who wins, by roughly what
// factor, where the crossovers fall) against the calibrated cost model, so
// a change to the engines or the profile that breaks a reproduced result
// fails CI. Absolute seconds are model output and are not asserted.

func testParams() Params {
	p := DefaultParams()
	p.Scale = 2e-4 // the calibration scale; modeled time is scale-compensated
	return p
}

// fig2Rows runs the deterministic Fig2(testParams()) sweep once per test
// binary; both Fig2 tests assert their claims against the shared rows.
var fig2Rows = sync.OnceValues(func() ([]Fig2Row, error) { return Fig2(testParams()) })

func TestFig2ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rows, err := fig2Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig2Datasets)*len(PaperNodes) {
		t.Fatalf("expected %d rows, got %d", len(Fig2Datasets)*len(PaperNodes), len(rows))
	}
	ratioAt := map[string]map[int]float64{}
	for _, r := range rows {
		// Headline claim (abstract): CSTF achieves 2.2x-6.9x over BIGtensor
		// for 3rd-order decompositions, at every cluster size.
		if r.SpeedupCOO < 2.2 || r.SpeedupCOO > 6.9 {
			t.Errorf("%s@%d: COO speedup %.2f outside [2.2, 6.9]", r.Dataset, r.Nodes, r.SpeedupCOO)
		}
		if r.SpeedupQCOO < 2.2 || r.SpeedupQCOO > 6.9 {
			t.Errorf("%s@%d: QCOO speedup %.2f outside [2.2, 6.9]", r.Dataset, r.Nodes, r.SpeedupQCOO)
		}
		if ratioAt[r.Dataset] == nil {
			ratioAt[r.Dataset] = map[int]float64{}
		}
		ratioAt[r.Dataset][r.Nodes] = r.RatioQvsCOO
	}
	for ds, m := range ratioAt {
		// Section 6.4: QCOO and COO are close on small clusters with QCOO
		// slightly behind (0.90-1.1x), and QCOO pulls ahead as nodes grow.
		if m[4] > 1.02 || m[4] < 0.80 {
			t.Errorf("%s: COO/QCOO at 4 nodes = %.2f, want <= ~1 (QCOO not faster on small clusters)", ds, m[4])
		}
		if m[32] < 1.10 {
			t.Errorf("%s: COO/QCOO at 32 nodes = %.2f, want >= 1.10 (QCOO wins at scale)", ds, m[32])
		}
		// Crossover must be monotone in node count.
		if !(m[4] <= m[8]+0.03 && m[8] <= m[16]+0.03 && m[16] <= m[32]+0.03) {
			t.Errorf("%s: COO/QCOO ratio not monotone: %v", ds, m)
		}
	}
}

func TestFig2PerDatasetCOOBands(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	// Section 6.4's per-dataset COO-vs-BIGtensor ranges (we assert
	// containment in the paper's reported interval for each dataset).
	bands := map[string][2]float64{
		"delicious3d": {3.0, 6.9},
		"nell1":       {2.6, 4.7},
		"synt3d":      {2.2, 5.8},
	}
	rows, err := fig2Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		b := bands[r.Dataset]
		if r.SpeedupCOO < b[0] || r.SpeedupCOO > b[1] {
			t.Errorf("%s@%d: COO speedup %.2f outside paper band [%.1f, %.1f]",
				r.Dataset, r.Nodes, r.SpeedupCOO, b[0], b[1])
		}
	}
}

func TestFig3ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rows, err := Fig3(testParams())
	if err != nil {
		t.Fatal(err)
	}
	ratioAt := map[string]map[int]float64{}
	for _, r := range rows {
		// Conclusion: for higher-order tensors QCOO achieves 0.98x-1.7x
		// over COO across all cluster sizes.
		if r.RatioQvsCOO < 0.90 || r.RatioQvsCOO > 1.7 {
			t.Errorf("%s@%d: COO/QCOO %.2f outside [0.90, 1.7]", r.Dataset, r.Nodes, r.RatioQvsCOO)
		}
		if ratioAt[r.Dataset] == nil {
			ratioAt[r.Dataset] = map[int]float64{}
		}
		ratioAt[r.Dataset][r.Nodes] = r.RatioQvsCOO
	}
	for ds, m := range ratioAt {
		if m[32] <= m[4] {
			t.Errorf("%s: QCOO advantage must grow with cluster size: %v", ds, m)
		}
		if m[32] < 1.15 {
			t.Errorf("%s: QCOO at 32 nodes only %.2fx over COO", ds, m[32])
		}
	}
}

func TestFig4ShuffleReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	res, err := Fig4(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Section 6.5: QCOO reduces remote shuffle reads by 35% (delicious3d)
	// and 31% (flickr), local reads by ~36%/35%. Our measured 3rd-order
	// reduction lands in the paper's neighborhood; the 4th-order reduction
	// over-delivers (see EXPERIMENTS.md), so its band is wider.
	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s reduction %.1f%% outside [%.0f%%, %.0f%%]", name, 100*got, 100*lo, 100*hi)
		}
	}
	check("delicious3d remote", res.RemoteReduction["delicious3d"], 0.25, 0.45)
	check("delicious3d local", res.LocalReduction["delicious3d"], 0.25, 0.45)
	check("flickr remote", res.RemoteReduction["flickr"], 0.30, 0.60)
	check("flickr local", res.LocalReduction["flickr"], 0.30, 0.60)

	// Per-mode stacks must exist for all three modes plus Other.
	for _, bar := range res.Remote {
		if bar.Algo == AlgoCOO && bar.Dataset == "delicious3d" {
			for _, ph := range []string{"MTTKRP-1", "MTTKRP-2", "MTTKRP-3"} {
				if bar.ByPhase[ph] <= 0 {
					t.Errorf("COO delicious3d: no remote bytes recorded for %s", ph)
				}
			}
		}
	}
}

func TestFig5ModeBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rows, err := Fig5(testParams())
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]map[Algo]Fig5Row{}
	for _, r := range rows {
		if byAlgo[r.Dataset] == nil {
			byAlgo[r.Dataset] = map[Algo]Fig5Row{}
		}
		byAlgo[r.Dataset][r.Algo] = r
	}
	for ds, m := range byAlgo {
		coo, q, big := m[AlgoCOO], m[AlgoQ], m[AlgoBig]
		// Section 6.6: QCOO's mode-1 MTTKRP exceeds COO's by ~30-35%
		// (queue initialization); we assert the 15-45% neighborhood.
		over := q.Mode[0]/coo.Mode[0] - 1
		if over < 0.15 || over > 0.45 {
			t.Errorf("%s: QCOO mode-1 overhead %.0f%% outside [15%%, 45%%]", ds, 100*over)
		}
		// CSTF delivers similar benefits on every mode: each mode's
		// speedup over BIGtensor is large and roughly uniform.
		for n := 0; n < 3; n++ {
			sp := big.Mode[n] / coo.Mode[n]
			if sp < 3.0 || sp > 9.5 {
				t.Errorf("%s: mode-%d COO speedup %.1fx outside [3.0, 9.5]", ds, n+1, sp)
			}
		}
		// Mode times must be roughly uniform for CSTF (it partitions
		// nonzeros, not fibers): max/min within 1.5x.
		minT, maxT := coo.Mode[0], coo.Mode[0]
		for _, v := range coo.Mode {
			minT = math.Min(minT, v)
			maxT = math.Max(maxT, v)
		}
		if maxT/minT > 1.5 {
			t.Errorf("%s: COO mode times unbalanced: %v", ds, coo.Mode)
		}
	}
}

func TestTable4Counts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rows, err := Table4(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredShuffles != r.PaperShuffles {
			t.Errorf("%s: measured %d shuffles, paper says %d", r.Algo, r.MeasuredShuffles, r.PaperShuffles)
		}
		// Measured flops within 45% of the closed form (the closed forms
		// ignore reduce-merge cardinality and per-job bookkeeping).
		ratio := r.MeasuredFlops / r.PaperFlops
		if ratio < 0.55 || ratio > 1.45 {
			t.Errorf("%s: measured flops %.3g vs paper %.3g (ratio %.2f)",
				r.Algo, r.MeasuredFlops, r.PaperFlops, ratio)
		}
	}
	// Ordering of the cost model must match the paper: BIGtensor does the
	// most flops and shuffles, QCOO the fewest shuffles.
	if !(rows[0].MeasuredFlops > rows[1].MeasuredFlops) {
		t.Error("BIGtensor must charge more flops than COO")
	}
	if !(rows[2].MeasuredShuffles < rows[1].MeasuredShuffles) {
		t.Error("QCOO must shuffle less often than COO")
	}
}

func TestTable5Render(t *testing.T) {
	lines := Table5(testParams())
	if len(lines) != 6 { // header + 5 datasets
		t.Fatalf("expected 6 lines, got %d", len(lines))
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Rank != 2 {
		t.Fatalf("paper fixes rank 2, got %d", p.Rank)
	}
	if p.Scale <= 0 || p.Scale > 1 {
		t.Fatalf("bad default scale %v", p.Scale)
	}
	if len(PaperNodes) != 4 || PaperNodes[0] != 4 || PaperNodes[3] != 32 {
		t.Fatalf("node sweep %v", PaperNodes)
	}
}

func TestRunAllJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	p := testParams()
	p.Scale = 5e-5 // keep this one fast; shapes are asserted elsewhere
	rep, err := RunAll(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Fig2) != len(rep.Fig2) || len(back.Table4) != 3 || back.Fig4 == nil {
		t.Fatalf("report incomplete after round trip: %+v", back)
	}
}
