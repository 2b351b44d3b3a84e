package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cstf/internal/la"
	"cstf/internal/rng"
)

// goldenModel builds a seeded order-3 model for the golden hashes. Mode 0
// has rows0 rows that repeat a pool of `cycle` random rows, so many
// candidates share bitwise-equal scores, and the pool's first row is zero,
// so Similar meets zero-norm candidates. Modes 1 and 2 have 61 and 13
// random rows: row counts that are not a multiple of 4, one of them below
// some of the k values queried.
func goldenModel(t *testing.T, seed uint64, rank, rows0, cycle int) *Model {
	t.Helper()
	g := rng.New(seed)
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + g.Float64()
	}
	pool := la.NewDense(cycle, rank)
	for i := rank; i < len(pool.Data); i++ {
		pool.Data[i] = g.Float64()*2 - 1
	}
	f0 := la.NewDense(rows0, rank)
	for i := 0; i < rows0; i++ {
		copy(f0.Row(i), pool.Row(i%cycle))
	}
	factors := []*la.Dense{f0}
	for _, d := range []int{61, 13} {
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

// goldenShapes are the pinned models: ranks 7, 16 and 64, mode-0 row
// counts that are not a multiple of 4 and span one to three scan blocks.
var goldenShapes = []struct {
	name               string
	seed               uint64
	rank, rows0, cycle int
}{
	{"r7", 71, 7, 4099, 37},
	{"r16", 161, 16, 2051, 29},
	{"r64", 641, 64, 1023, 17},
}

// hashScored folds one ranking into h: its length, then each result's
// index and the bit pattern of its score.
func hashScored(h hash.Hash64, res []Scored) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(res)))
	h.Write(b[:])
	for _, it := range res {
		binary.LittleEndian.PutUint64(b[:], uint64(it.Index))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(it.Score))
		h.Write(b[:])
	}
}

func hexSum(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

// goldenRanges are the candidate row ranges queried over a mode of n rows:
// the full mode, both ends trimmed, a range across the first block
// boundary (or the mode's tail), an empty range and the last three rows.
func goldenRanges(n int) [][2]int {
	return [][2]int{{0, n}, {3, n - 1}, {min(2045, n-5), min(2050, n)}, {101, 101}, {n - 3, n}}
}

// goldenModelHashes runs every Model-level ranked query family over m and
// returns one hash per family.
func goldenModelHashes(t *testing.T, m *Model) map[string]string {
	t.Helper()
	check := func(res []Scored, err error) []Scored {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rows0 := m.Dims[0]
	out := map[string]string{}

	h := fnv.New64a()
	for _, mode := range []int{0, 1, 2} {
		for _, row := range []int{0, 5, 12} {
			for _, k := range []int{1, 5, 10, 64} {
				hashScored(h, check(m.Rank(topKQuery(mode, DefaultGiven(mode), row, k))))
			}
		}
	}
	out["TopK"] = hexSum(h)

	h = fnv.New64a()
	ranges := goldenRanges(rows0)
	excludes := [][]int{nil, {7, 3, 3, 1 << 30, -4}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		for _, ex := range excludes {
			for _, k := range []int{1, 10, 40} {
				hashScored(h, check(m.Rank(Query{Mode: 0, Given: []Cond{{1, 9}}, K: k, Range: &Range{lo, hi}, Exclude: ex})))
				hashScored(h, check(m.Rank(Query{Mode: 0, Given: []Cond{{2, 4}}, K: k, Range: &Range{lo, hi}, Exclude: ex})))
			}
		}
	}
	out["TopKGivenRangeExclude"] = hexSum(h)

	h = fnv.New64a()
	for _, mode := range []int{0, 1, 2} {
		for _, row := range []int{0, 1, 8} {
			for _, k := range []int{1, 7, 20} {
				hashScored(h, check(m.Rank(Query{Kind: Similar, Mode: mode, Row: row, K: k})))
			}
		}
	}
	out["Similar"] = hexSum(h)

	h = fnv.New64a()
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		for _, row := range []int{0, 3, 40} {
			hashScored(h, check(m.Rank(Query{Kind: Similar, Mode: 0, Row: row, K: 10, Range: &Range{lo, hi}})))
		}
	}
	out["SimilarRange"] = hexSum(h)

	h = fnv.New64a()
	for _, budget := range []int{DefaultApproxCandidates, 50, 1 << 20} {
		for _, row := range []int{0, 5, 12} {
			for _, k := range []int{1, 10} {
				hashScored(h, check(m.Rank(Query{Mode: 0, Given: []Cond{{DefaultGiven(0), row}}, K: k, Budget: budget})))
				hashScored(h, check(m.Rank(Query{Mode: 1, Given: []Cond{{DefaultGiven(1), row}}, K: k, Budget: budget})))
			}
		}
	}
	out["TopKApprox"] = hexSum(h)

	// Conditioning on one, two and three coordinates, in both orders: an
	// order-4 twin of m repeats mode 1 as mode 3.
	m4, err := NewModel(m.lambda, []*la.Dense{m.factors[0], m.factors[1], m.factors[2], m.factors[1]}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h = fnv.New64a()
	for _, ex := range excludes {
		for _, k := range []int{1, 10, 40} {
			for _, c := range [][]Cond{{{1, 9}}, {{2, 4}}, {{1, 9}, {2, 4}}, {{2, 4}, {1, 9}}} {
				hashScored(h, check(m.Rank(Query{Mode: 0, Given: c, K: k, Exclude: ex})))
				hashScored(h, check(m4.Rank(Query{Mode: 0, Given: c, K: k, Exclude: ex})))
			}
			for _, c := range [][]Cond{{{1, 9}, {2, 4}, {3, 60}}, {{3, 2}, {1, 9}, {2, 12}}} {
				hashScored(h, check(m4.Rank(Query{Mode: 0, Given: c, K: k, Exclude: ex})))
			}
			hashScored(h, check(m.Rank(Query{Mode: 1, Given: []Cond{{0, 5}}, K: k, Exclude: ex})))
			hashScored(h, check(m4.Rank(Query{Mode: 2, Given: []Cond{{3, 5}, {0, 7}}, K: k, Exclude: ex})))
		}
	}
	out["TopKCond"] = hexSum(h)

	h = fnv.New64a()
	for _, budget := range []int{50, 1 << 20} {
		for _, ex := range excludes {
			for _, row := range []int{0, 5, 12} {
				for _, k := range []int{1, 10} {
					hashScored(h, check(m.Rank(Query{Mode: 0, Given: []Cond{{1, row}}, K: k, Budget: budget, Exclude: ex})))
					hashScored(h, check(m.Rank(Query{Mode: 1, Given: []Cond{{2, row}}, K: k, Budget: budget, Exclude: ex})))
				}
			}
		}
	}
	out["TopKGivenApproxExclude"] = hexSum(h)
	return out
}

// topKQuery is a TopK Query with one fixed coordinate: row of mode given.
func topKQuery(mode, given, row, k int) Query {
	return Query{Mode: mode, Given: []Cond{{given, row}}, K: k}
}

// serveQueued sends every query to a server whose executor has not started
// yet, waits until all of them sit in its queue, then starts the executor,
// so the whole set is executed as batches against one model snapshot.
func serveQueued(t *testing.T, m *Model, cfg Config, qs []Query) [][]Scored {
	t.Helper()
	s, err := newServer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]Scored, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			res[i], errs[i] = s.Rank(context.Background(), q)
		}(i, q)
	}
	for len(s.reqs) < len(qs) {
		runtime.Gosched()
	}
	s.done.Add(1)
	go s.dispatch()
	wg.Wait()
	s.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d %+v: %v", i, qs[i], err)
		}
	}
	return res
}

// goldenServerHashes runs the Server's batched, exclude and range paths
// over m and returns one hash per path.
func goldenServerHashes(t *testing.T, m *Model) map[string]string {
	t.Helper()
	rows0 := m.Dims[0]
	cfg := Config{CacheSize: -1}
	out := map[string]string{}

	var batched []Query
	for i := 0; i < 24; i++ {
		switch i % 3 {
		case 0:
			batched = append(batched, topKQuery(0, 1, i, 1+i%11))
		case 1:
			batched = append(batched, topKQuery(0, DefaultGiven(0), i%13, 3+i))
		default:
			batched = append(batched, Query{Kind: Similar, Mode: 0, Row: i, K: 5 + i%4})
		}
	}
	h := fnv.New64a()
	for _, res := range serveQueued(t, m, cfg, batched) {
		hashScored(h, res)
	}
	out["ServerBatched"] = hexSum(h)

	var excl []Query
	for i, ex := range [][]int{{0}, {5, 5, 1, 999999}, nil, {36, 35, 34, 33, 32, 31, 30, 29, 28, 27}, {2, 4, 6, 8, 10, 12, 14, 16}} {
		excl = append(excl,
			Query{Mode: 0, Given: []Cond{{1, i}}, K: 10, Exclude: ex},
			Query{Mode: 0, Given: []Cond{{2, i}}, K: 25, Exclude: ex},
			Query{Mode: 1, Given: []Cond{{0, i * 7}}, K: 10, Exclude: ex})
	}
	h = fnv.New64a()
	for _, res := range serveQueued(t, m, cfg, excl) {
		hashScored(h, res)
	}
	out["ServerExclude"] = hexSum(h)

	var ranged []Query
	for _, rg := range goldenRanges(rows0) {
		ranged = append(ranged,
			Query{Mode: 0, Given: []Cond{{1, 9}}, K: 10, Range: &Range{rg[0], rg[1]}},
			Query{Mode: 0, Given: []Cond{{1, 9}}, K: 10, Range: &Range{rg[0], rg[1]}, Exclude: []int{rg[0], rg[0] + 1}},
			Query{Kind: Similar, Mode: 0, Row: 3, K: 10, Range: &Range{rg[0], rg[1]}})
	}
	h = fnv.New64a()
	for _, res := range serveQueued(t, m, cfg, ranged) {
		hashScored(h, res)
	}
	out["ServerRange"] = hexSum(h)
	return out
}

// TestRankedGoldenHash pins every ranked query path bit for bit — indices,
// their order and every score — on models with ties, zero rows and row
// counts that are not a multiple of 4: the Model's exact, range, exclude,
// multi-coordinate, Similar and norm-pruned queries (with and without an
// exclude set), and the Server's batched, exclude and range paths. The hashes were captured from the row-at-a-time scan behind
// a lingering executor; any faster scan or executor must reproduce them,
// at every GOMAXPROCS.
func TestRankedGoldenHash(t *testing.T) {
	want := map[string]map[string]string{
		"r7": {
			"ServerBatched":          "51ee6a4a7db14919",
			"ServerExclude":          "ff12b2674ad99890",
			"ServerRange":            "bd26be023d98f052",
			"Similar":                "2849d4d9244e3c00",
			"SimilarRange":           "00697545d1eb96bc",
			"TopK":                   "0d759e8dc0b32228",
			"TopKApprox":             "c90c00ee51681820",
			"TopKCond":               "4295c8dc1bbb98f6",
			"TopKGivenRangeExclude":  "fcdfe8d0d312e454",
			"TopKGivenApproxExclude": "6e3d8e47f24bd53e",
		},
		"r16": {
			"ServerBatched":          "18bb112b81c85a3c",
			"ServerExclude":          "78fd9e88f1fdab74",
			"ServerRange":            "6bfa0bce714ea1a6",
			"Similar":                "d23401022ab05aed",
			"SimilarRange":           "7f63b74551f2323c",
			"TopK":                   "1d4eb63299822a4c",
			"TopKApprox":             "68117cb457f11dea",
			"TopKCond":               "43fe1782be481d0a",
			"TopKGivenRangeExclude":  "071b3cc0beb6a338",
			"TopKGivenApproxExclude": "ac47c97531032116",
		},
		"r64": {
			"ServerBatched":          "221223031c98588e",
			"ServerExclude":          "ea4f2e7aeaecf129",
			"ServerRange":            "fad6d06684bee34e",
			"Similar":                "504696f23780f951",
			"SimilarRange":           "eabb128354b83476",
			"TopK":                   "4c0f0dc1d0a9085b",
			"TopKApprox":             "778fd33df494be99",
			"TopKCond":               "ffedc3694622ec04",
			"TopKGivenRangeExclude":  "9ea2213b8ab8c91b",
			"TopKGivenApproxExclude": "1dd92efb5b46679f",
		},
	}
	for _, sh := range goldenShapes {
		m := goldenModel(t, sh.seed, sh.rank, sh.rows0, sh.cycle)
		got := goldenServerHashes(t, m)
		m.BuildApprox(0)
		for k, v := range goldenModelHashes(t, m) {
			got[k] = v
		}
		for path, h := range got {
			if w := want[sh.name][path]; h != w {
				t.Errorf("%s %s: hash %s, want %s", sh.name, path, h, w)
			}
		}
	}
}

// TestHTTPGoldenBytes pins the exact response bytes — status, headers that
// clients read and body — of a /topk, a /similar, a /topk with a POST body
// and a 400 through NewHandler.
func TestHTTPGoldenBytes(t *testing.T) {
	m := goldenModel(t, 161, 16, 2051, 29)
	s, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)
	cases := []struct {
		name, method, target, body string
		want                       string
	}{
		{"topk", http.MethodGet, "/topk?mode=0&row=7&k=5", "", "dbc1f659b53f39fa"},
		{"similar", http.MethodGet, "/similar?mode=0&row=9&k=3", "", "86e0c477d2c60311"},
		{"topk-post", http.MethodPost, "/topk", `{"mode":1,"given":2,"row":4,"k":3,"exclude":[9,1]}`, "6cc6f1081ee7ff73"},
		{"bad-mode", http.MethodGet, "/topk?mode=77&row=0&k=5", "", "5c8269a20398ba9d"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := fmt.Sprintf("%d %s\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
		hh := fnv.New64a()
		hh.Write([]byte(got))
		if sum := hexSum(hh); sum != c.want {
			t.Errorf("%s: response hash %s, want %s; response:\n%s", c.name, sum, c.want, got)
		}
	}
}
