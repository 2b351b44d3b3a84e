package serve

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/rng"
)

// randModel builds a small random model directly from factor matrices.
func randModel(t *testing.T, seed uint64, rank int, dims ...int) *Model {
	t.Helper()
	g := rng.New(seed)
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + g.Float64()
	}
	var factors []*la.Dense
	for _, d := range dims {
		f := la.NewDense(d, rank)
		for i := range f.Data {
			f.Data[i] = g.Float64()*2 - 1
		}
		factors = append(factors, f)
	}
	m, err := NewModel(lambda, factors, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reconstruct evaluates the model at one coordinate by definition.
func reconstruct(m *Model, idx ...int) float64 {
	var s float64
	for r := 0; r < m.Components; r++ {
		p := m.lambda[r]
		for n, i := range idx {
			p *= m.factors[n].At(i, r)
		}
		s += p
	}
	return s
}

func TestPredictMatchesDefinition(t *testing.T) {
	m := randModel(t, 1, 3, 5, 4, 6)
	g := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		idx := []int{g.Intn(5), g.Intn(4), g.Intn(6)}
		got, err := m.Predict(idx...)
		if err != nil {
			t.Fatal(err)
		}
		want := reconstruct(m, idx...)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Predict(%v)=%v want %v", idx, got, want)
		}
	}
}

func TestPredictValidates(t *testing.T) {
	m := randModel(t, 1, 2, 4, 3)
	if _, err := m.Predict(0); err == nil {
		t.Fatal("wrong order accepted")
	}
	if _, err := m.Predict(4, 0); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := m.Predict(0, -1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// bruteTopK ranks candidates of `mode` by summing the full reconstruction
// over every coordinate combination of the unspecified modes — the
// brute-force ground truth the marginalized query vector must agree with.
func bruteTopK(m *Model, mode, given, row, k int) []Scored {
	var free []int // modes that are neither queried nor given
	for n := range m.Dims {
		if n != mode && n != given {
			free = append(free, n)
		}
	}
	scores := make([]Scored, m.Dims[mode])
	for j := 0; j < m.Dims[mode]; j++ {
		idx := make([]int, len(m.Dims))
		idx[mode], idx[given] = j, row
		var sum float64
		var walk func(d int)
		walk = func(d int) {
			if d == len(free) {
				sum += reconstruct(m, idx...)
				return
			}
			for v := 0; v < m.Dims[free[d]]; v++ {
				idx[free[d]] = v
				walk(d + 1)
			}
		}
		walk(0)
		scores[j] = Scored{Index: j, Score: sum}
	}
	sort.Slice(scores, func(a, b int) bool { return worse(scores[b], scores[a]) })
	if k < len(scores) {
		scores = scores[:k]
	}
	return scores
}

// Property test: heap-based marginalized TopK == brute-force reconstruction
// argsort, across random models, modes, and conditioning rows.
func TestTopKMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var m *Model
		if seed%2 == 0 {
			m = randModel(t, seed, 2, 7, 5, 6, 4) // order 4
		} else {
			m = randModel(t, seed, 3, 8, 6, 5) // order 3
		}
		g := rng.New(seed * 77)
		for trial := 0; trial < 6; trial++ {
			mode := g.Intn(m.Order())
			given := g.Intn(m.Order())
			if given == mode {
				given = (given + 1) % m.Order()
			}
			row := g.Intn(m.Dims[given])
			k := 1 + g.Intn(m.Dims[mode])
			got, err := m.TopKGiven(mode, given, row, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(m, mode, given, row, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d results, want %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("seed %d mode %d given %d row %d k %d: rank %d got %+v want %+v",
						seed, mode, given, row, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSimilarMatchesBruteForce(t *testing.T) {
	m := randModel(t, 5, 3, 20, 10)
	mode, row, k := 0, 7, 5
	got, err := m.Rank(Query{Kind: Similar, Mode: mode, Row: row, K: k})
	if err != nil {
		t.Fatal(err)
	}
	f := m.factors[mode]
	qn := la.VecNorm(f.Row(row))
	var want []Scored
	for j := 0; j < f.Rows; j++ {
		if j == row {
			continue
		}
		var s float64
		if n := la.VecNorm(f.Row(j)); n > 0 && qn > 0 {
			s = la.VecDot(f.Row(row), f.Row(j)) / (qn * n)
		}
		want = append(want, Scored{Index: j, Score: s})
	}
	sort.Slice(want, func(a, b int) bool { return worse(want[b], want[a]) })
	want = want[:k]
	for i := range want {
		if got[i].Index != want[i].Index || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	for _, r := range got {
		if r.Index == row {
			t.Fatal("Similar returned the query row itself")
		}
		if r.Score > 1+1e-9 {
			t.Fatalf("cosine score %v > 1", r.Score)
		}
	}
}

// SliceNorm (via the precomputed cross-mode gram) must equal the explicit
// Frobenius norm of the predicted slice.
func TestSliceNormMatchesBruteForce(t *testing.T) {
	m := randModel(t, 6, 2, 5, 4, 3)
	for mode := 0; mode < 3; mode++ {
		for row := 0; row < m.Dims[mode]; row++ {
			got, err := m.SliceNorm(mode, row)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			idx := make([]int, 3)
			idx[mode] = row
			others := []int{}
			for n := 0; n < 3; n++ {
				if n != mode {
					others = append(others, n)
				}
			}
			for a := 0; a < m.Dims[others[0]]; a++ {
				for b := 0; b < m.Dims[others[1]]; b++ {
					idx[others[0]], idx[others[1]] = a, b
					v := reconstruct(m, idx...)
					sum += v * v
				}
			}
			want := math.Sqrt(sum)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("mode %d row %d: SliceNorm %v want %v", mode, row, got, want)
			}
		}
	}
}

// topKBatch must agree with the naive per-request scan for every query,
// for any worker count.
func TestTopKBatchMatchesNaive(t *testing.T) {
	m := randModel(t, 7, 4, 3000, 10)
	var qs [][]float64
	var ks []int
	g := rng.New(11)
	for i := 0; i < 9; i++ {
		qs = append(qs, m.queryVec(make([]float64, m.Components), &Query{Mode: 0, Given: []Cond{{1, g.Intn(10)}}}))
		ks = append(ks, 1+g.Intn(20))
	}
	for _, workers := range []int{1, 4} {
		got := topKBatch(m.factors[0], qs, ks, nil, nil, nil, workers, 0, m.factors[0].Rows)
		for i := range qs {
			want := topKOne(m.factors[0], qs[i], ks[i], nil, -1, nil, 0, m.factors[0].Rows)
			if len(got[i]) != len(want) {
				t.Fatalf("workers %d query %d: %d results want %d", workers, i, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("workers %d query %d rank %d: %+v want %+v", workers, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

func TestLoadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	cp := &ckpt.File{
		Algorithm: "serial", Rank: 2, Seed: 3, Iter: 4,
		Dims:   []int{3, 2},
		Lambda: []float64{2, 1},
		Fits:   []float64{0.1, 0.2, 0.3, 0.4},
		Factors: [][]float64{
			{1, 0, 0, 1, 1, 1},
			{0.5, 0.5, 1, 0},
		},
	}
	if err := ckpt.Write(path, cp); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Components != 2 || m.Iter != 4 || len(m.Dims) != 2 {
		t.Fatalf("model identity wrong: %+v", m)
	}
	// entry (0,0): 2*1*0.5 + 1*0*0.5 = 1
	v, err := m.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("Predict(0,0)=%v want 1", v)
	}

	// A structurally invalid checkpoint must be rejected with a typed error.
	cp.Lambda = cp.Lambda[:1]
	if err := ckpt.Write(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("invalid checkpoint accepted")
	}
}

func TestNewModelValidates(t *testing.T) {
	f := la.NewDense(3, 2)
	if _, err := NewModel(nil, []*la.Dense{f}, 1, 0); err == nil {
		t.Fatal("empty lambda accepted")
	}
	if _, err := NewModel([]float64{1, 2}, nil, 1, 0); err == nil {
		t.Fatal("no factors accepted")
	}
	if _, err := NewModel([]float64{1, 2, 3}, []*la.Dense{f}, 1, 0); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}
