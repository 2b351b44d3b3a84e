package cstf

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(4, 5, 6)
	x.Append(1.5, 0, 1, 2)
	x.Append(2.5, 3, 4, 5)
	if x.Order() != 3 || x.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
	if d := x.Dims(); d[0] != 4 || d[1] != 5 || d[2] != 6 {
		t.Fatalf("dims %v", d)
	}
	if x.At(3, 4, 5) != 2.5 {
		t.Fatal("At wrong")
	}
	if math.Abs(x.Norm()-math.Sqrt(1.5*1.5+2.5*2.5)) > 1e-12 {
		t.Fatal("norm wrong")
	}
	if !strings.Contains(x.String(), "nnz=2") {
		t.Fatalf("string: %s", x.String())
	}
	x.Append(1.0, 0, 1, 2)
	x.Dedup()
	if x.NNZ() != 2 || x.At(0, 1, 2) != 2.5 {
		t.Fatal("dedup failed")
	}
}

// Indices are stored in 32 bits: both constructors refuse a mode they
// could not index, where Append used to wrap the index silently, and take
// one of exactly 2³².
func TestConstructorsRejectModesAbove32Bits(t *testing.T) {
	ctors := map[string]func(dims ...int){
		"cstf.NewTensor": func(dims ...int) { NewTensor(dims...) },
		"tensor.New":     func(dims ...int) { tensor.New(dims...) },
	}
	for name, ctor := range ctors {
		for _, d := range []int{1<<32 + 1, 5_000_000_000} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(3, %d) did not panic", name, d)
					}
				}()
				ctor(3, d)
			}()
		}
	}
	x := NewTensor(1<<32, 2)
	x.Append(1.5, 1<<32-1, 1)
	if x.At(1<<32-1, 1) != 1.5 || x.At(0, 1) != 0 {
		t.Fatal("the last index of a 2^32 mode did not round-trip")
	}
}

func TestTensorIO(t *testing.T) {
	x := RandomTensor(1, 200, 10, 10, 10)
	var buf bytes.Buffer
	if err := x.WriteTNS(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != x.NNZ() {
		t.Fatalf("round trip lost entries: %d vs %d", y.NNZ(), x.NNZ())
	}
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTensor(path); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	if z := ZipfTensor(2, 500, 0.8, 100, 100, 100); z.NNZ() < 400 {
		t.Fatalf("zipf nnz %d", z.NNZ())
	}
	if l := LowRankTensor(3, 500, 2, 0.01, 20, 20, 20); l.NNZ() < 400 {
		t.Fatalf("lowrank nnz %d", l.NNZ())
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 5 {
		t.Fatalf("datasets: %v", names)
	}
	x, err := Dataset("nell1", 2e-5)
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 3 {
		t.Fatal("nell1 must be 3rd order")
	}
	if _, err := Dataset("bogus", 0.5); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestDecomposeAllAlgorithmsAgree(t *testing.T) {
	x := RandomTensor(7, 500, 18, 15, 12)
	var fits []float64
	for _, algo := range []Algorithm{Serial, COO, QCOO, BigTensor} {
		dec, err := Decompose(x, Options{
			Algorithm: algo, Rank: 2, MaxIters: 3, NoConvergenceCheck: true, Seed: 11, Nodes: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if dec.Rank() != 2 || len(dec.Factors) != 3 {
			t.Fatalf("%s: rank %d factors %d", algo, dec.Rank(), len(dec.Factors))
		}
		fits = append(fits, dec.Fit())
	}
	// Serial, COO and QCOO report per-iteration fits; BigTensor reports a
	// final fit. All four must agree after the same number of iterations.
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i]-fits[0]) > 1e-6 {
			t.Fatalf("fit disagreement: %v", fits)
		}
	}
}

func TestDecomposeDefaults(t *testing.T) {
	x := RandomTensor(9, 400, 30, 20, 10)
	dec, err := Decompose(x, Options{MaxIters: 2, NoConvergenceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rank() != 8 {
		t.Fatalf("default rank: %d", dec.Rank())
	}
	if dec.Metrics.SimSeconds <= 0 || dec.Metrics.Shuffles == 0 {
		t.Fatalf("default algorithm is distributed; metrics missing: %+v", dec.Metrics)
	}
}

func TestDecomposeSerialHasNoClusterMetrics(t *testing.T) {
	x := RandomTensor(9, 300, 20, 20, 10)
	dec, err := Decompose(x, Options{Algorithm: Serial, Rank: 2, MaxIters: 2, NoConvergenceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Metrics.SimSeconds != 0 {
		t.Fatal("serial runs must not report cluster metrics")
	}
}

func TestDecomposeErrors(t *testing.T) {
	x := RandomTensor(1, 100, 10, 10, 10, 10)
	if _, err := Decompose(x, Options{Algorithm: BigTensor, Rank: 2, MaxIters: 1}); err == nil {
		t.Fatal("BigTensor must reject 4th-order tensors")
	}
	if _, err := Decompose(x, Options{Algorithm: "nope", Rank: 2, MaxIters: 1}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	empty := NewTensor(3, 3, 3)
	if _, err := Decompose(empty, Options{Rank: 2, MaxIters: 1}); err == nil {
		t.Fatal("empty tensor must error")
	}
}

func TestDecompositionAtAndTopK(t *testing.T) {
	x := RandomTensor(4, 600, 25, 20, 15)
	dec, err := Decompose(x, Options{Algorithm: Serial, Rank: 3, MaxIters: 5, NoConvergenceCheck: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// At must equal the explicit reconstruction.
	var want float64
	for r := 0; r < 3; r++ {
		want += dec.Lambda[r] * dec.Factors[0].At(1, r) * dec.Factors[1].At(2, r) * dec.Factors[2].At(3, r)
	}
	if got := dec.At(1, 2, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("At = %v, want %v", got, want)
	}
	// TopK is sorted by |weight| and bounded by k.
	top := dec.TopK(0, 0, 5)
	if len(top) != 5 {
		t.Fatalf("topk returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if math.Abs(top[i].Weight) > math.Abs(top[i-1].Weight)+1e-15 {
			t.Fatal("topk not sorted by |weight|")
		}
	}
	// Matrix accessors.
	f := dec.Factors[0]
	if f.Rows() != 25 || f.Cols() != 3 {
		t.Fatalf("factor dims %dx%d", f.Rows(), f.Cols())
	}
	row := f.Row(0)
	row[0] = 999 // must be a copy
	if f.At(0, 0) == 999 {
		t.Fatal("Row must return a copy")
	}
}

// TopK selects under a total order: |weight| descending, the lower index
// first on ties. It returns nil for k <= 0 and every row for k past the
// end.
func TestDecompositionTopKOrder(t *testing.T) {
	col := func(w ...float64) *Decomposition {
		return &Decomposition{Lambda: []float64{1}, Factors: []*Matrix{{d: la.NewDenseFrom(len(w), 1, w)}}}
	}
	ties := col(0.5, -2, 0.25, 2, 0.5, -0.5, 1)
	for _, k := range []int{-1, 0} {
		if got := ties.TopK(0, 0, k); got != nil {
			t.Fatalf("TopK(k=%d) = %v, want nil", k, got)
		}
	}
	want := []int{1, 3, 6, 0, 4, 5, 2}
	for _, k := range []int{1, 3, 5, 7, 100} {
		got := ties.TopK(0, 0, k)
		if len(got) != min(k, len(want)) {
			t.Fatalf("TopK(k=%d) returned %d rows", k, len(got))
		}
		for i, c := range got {
			if c.Index != want[i] || c.Weight != ties.Factors[0].At(c.Index, 0) {
				t.Fatalf("TopK(k=%d)[%d] = %+v, want index %d", k, i, c, want[i])
			}
		}
	}

	// On distinct weights the selection is a full sort's prefix.
	r := rand.New(rand.NewSource(3))
	w := make([]float64, 1000)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	dec := col(w...)
	full := make([]Component, len(w))
	for i, v := range w {
		full[i] = Component{Index: i, Weight: v}
	}
	sort.Slice(full, func(a, b int) bool { return math.Abs(full[a].Weight) > math.Abs(full[b].Weight) })
	for _, k := range []int{1, 10, 999, 1000} {
		if got := dec.TopK(0, 0, k); !reflect.DeepEqual(got, full[:k]) {
			t.Fatalf("TopK(k=%d) differs from the full sort's prefix", k)
		}
	}
}

func TestQCOOBeatsCOOOnLargeClusters(t *testing.T) {
	// The headline behaviour, through the public API: at 32 nodes QCOO's
	// modeled runtime beats COO's on the same tensor.
	x, err := Dataset("delicious3d", 5e-5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(a Algorithm) float64 {
		dec, err := Decompose(x, Options{
			Algorithm: a, Rank: 2, MaxIters: 3, NoConvergenceCheck: true, Nodes: 32, WorkScale: 2e4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dec.Metrics.SimSeconds
	}
	coo, qcoo := run(COO), run(QCOO)
	if qcoo >= coo {
		t.Fatalf("QCOO (%.1fs) must beat COO (%.1fs) at 32 nodes", qcoo, coo)
	}
}

func TestTensorPermuteAndStats(t *testing.T) {
	x := NewTensor(4, 5, 6)
	x.Append(2.0, 1, 2, 3)
	y := x.Permute(2, 0, 1)
	if d := y.Dims(); d[0] != 6 || d[1] != 4 || d[2] != 5 {
		t.Fatalf("permuted dims %v", d)
	}
	if y.At(3, 1, 2) != 2.0 {
		t.Fatal("permuted value misplaced")
	}
	st := x.Stats(0)
	if st.NonEmpty != 1 || st.MaxCount != 1 || st.Skew != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTensorBinaryIO(t *testing.T) {
	x := RandomTensor(3, 500, 20, 20, 20)
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != x.NNZ() || y.Norm() != x.Norm() {
		t.Fatal("binary round trip lost data")
	}
	path := filepath.Join(t.TempDir(), "x.bin")
	if err := x.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	z, err := LoadBinaryTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != x.NNZ() {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadBinaryTensor(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestResidualMatchesFit(t *testing.T) {
	x := DenseLowRankTensor(5, 2, 0.01, 20, 16, 12)
	dec, err := Decompose(x, Options{Algorithm: Serial, Rank: 2, MaxIters: 30, Tol: 1e-9, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// On the training tensor, Residual = 1 - Fit (same identity).
	if got, want := dec.Residual(x), 1-dec.Fit(); math.Abs(got-want) > 1e-7 {
		t.Fatalf("residual %v, want %v", got, want)
	}
	// A perfect-rank decomposition explains nearly everything.
	if dec.Residual(x) > 0.05 {
		t.Fatalf("residual %v too high for planted model", dec.Residual(x))
	}
}

func TestDecomposeTraceOutput(t *testing.T) {
	x := RandomTensor(2, 300, 15, 12, 10)
	path := filepath.Join(t.TempDir(), "trace.json")
	_, err := Decompose(x, Options{
		Algorithm: QCOO, Rank: 2, MaxIters: 1, NoConvergenceCheck: true, Nodes: 2, TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) < 10 {
		t.Fatalf("trace too small: %d events", len(events))
	}
}

func TestCoreConsistencyPublicAPI(t *testing.T) {
	x := DenseLowRankTensor(8, 2, 0.005, 14, 12, 10)
	good, err := Decompose(x, Options{Algorithm: Serial, Rank: 2, MaxIters: 100, Tol: 1e-12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Decompose(x, Options{Algorithm: Serial, Rank: 5, MaxIters: 100, Tol: 1e-12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ccGood, err := good.CoreConsistency(x)
	if err != nil {
		t.Fatal(err)
	}
	ccOver, err := over.CoreConsistency(x)
	if err != nil {
		t.Fatal(err)
	}
	if ccGood < 80 || ccOver >= ccGood {
		t.Fatalf("rank diagnostic: true-rank %v, over-factored %v", ccGood, ccOver)
	}
}

func TestDecomposeBestAndEstimateRank(t *testing.T) {
	x := DenseLowRankTensor(12, 2, 0.02, 12, 10, 8)
	best, err := DecomposeBest(x, Options{
		Algorithm: Serial, Rank: 2, MaxIters: 30, Tol: 1e-8, Seed: 1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.Fit() < 0.9 {
		t.Fatalf("best-of-3 fit %v", best.Fit())
	}
	if _, err := DecomposeBest(x, Options{Rank: 2, MaxIters: 1}, 0); err == nil {
		t.Fatal("0 restarts must error")
	}

	ests, rec, err := EstimateRank(x, 4, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 4 || rec < 1 || rec > 4 {
		t.Fatalf("estimates %v, recommended %d", ests, rec)
	}
}
