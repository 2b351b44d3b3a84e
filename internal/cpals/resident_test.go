package cpals

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cstf/internal/ckpt"
	"cstf/internal/la"
	"cstf/internal/rng"
)

// A solve unmaps its mode columns on every way out of SolveWith: a
// cancelled context, an OnIteration stop, an OnCheckpoint error and a panic
// in the kernel that par.Run re-raises from the pool. Each case first sees
// the columns mapped, from inside the solve.
func TestSolveReleasesModeColumns(t *testing.T) {
	x := kernelTestTensor(3, false)
	shuffleEntries(x, rng.New(5))
	var columns int64
	for m := range x.Dims {
		if !inStorageOrder(x, m) {
			columns += int64(x.NNZ() * (8 + 4*(x.Order()-1)))
		}
	}
	base := Options{Rank: 4, MaxIters: 5, Seed: 1, Parallelism: 4}
	var seen int64
	see := func() { seen = liveResident.Load() }
	stop := errors.New("checkpoint refused")
	for _, c := range []struct {
		name    string
		options func(o *Options)
		want    error // nil: the solve returns no error
		panics  bool
	}{
		{"cancelled context", func(o *Options) {
			ctx, cancel := context.WithCancel(context.Background())
			o.Ctx = ctx
			o.OnIteration = func(int, float64) bool { see(); cancel(); return false }
		}, context.Canceled, false},
		{"OnIteration stop", func(o *Options) {
			o.OnIteration = func(int, float64) bool { see(); return true }
		}, nil, false},
		{"OnCheckpoint error", func(o *Options) {
			o.CheckpointEvery = 1
			o.OnCheckpoint = func(*ckpt.File) error { see(); return stop }
		}, stop, false},
		{"panic on the pool", func(o *Options) {
			// A mode-1 factor with no rows: the first MTTKRP, mode 0's,
			// indexes past it in every worker's range.
			o.InitLambda = []float64{1, 1, 1, 1}
			o.InitFactors = []*la.Dense{
				InitFactor(1, 0, x.Dims[0], 4), la.NewDense(0, 4), InitFactor(1, 2, x.Dims[2], 4),
			}
			o.Ctx = seeingContext{context.Background(), see}
		}, nil, true},
	} {
		seen = -1
		o := base
		c.options(&o)
		var recovered any
		var err error
		func() {
			defer func() { recovered = recover() }()
			_, err = SolveWith(x, o, Update{})
		}()
		if (recovered != nil) != c.panics {
			t.Fatalf("%s: recovered %v", c.name, recovered)
		}
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Fatalf("%s: error %v, want %v", c.name, err, c.want)
		}
		if seen != columns {
			t.Errorf("%s: %d bytes of mode columns mapped during the solve, want %d", c.name, seen, columns)
		}
		if got := liveResident.Load(); got != 0 {
			t.Errorf("%s: %d bytes of mode columns still mapped after the solve", c.name, got)
		}
	}
}

// A build that panics — a nonzero indexes past its mode's last row — unmaps
// the modes built before it and leaves no columns held for the tensor.
func TestPanickingBuildUnmapsModeColumns(t *testing.T) {
	x := kernelTestTensor(3, false)
	shuffleEntries(x, rng.New(5))
	// The last mode's task is claimed after the other two, which map theirs.
	x.Entries[len(x.Entries)/2].Idx[2] = uint32(x.Dims[2])
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the solve of a malformed tensor did not panic")
			}
		}()
		_, _ = SolveWith(x, Options{Rank: 4, MaxIters: 2, Seed: 1, Parallelism: 4}, Update{})
	}()
	if got := liveResident.Load(); got != 0 {
		t.Errorf("%d bytes of mode columns still mapped after the panic", got)
	}
	holds.Lock()
	_, held := holds.byTensor[x]
	holds.Unlock()
	if held {
		t.Error("the tensor's columns are still held after the panic")
	}
}

// Solves of one tensor that overlap share one set of mode columns, and the
// last to finish unmaps it.
func TestOverlappingSolvesShareModeColumns(t *testing.T) {
	x := kernelTestTensor(3, false)
	var columns int64
	for m := range x.Dims {
		if !inStorageOrder(x, m) {
			columns += int64(x.NNZ() * (8 + 4*(x.Order()-1)))
		}
	}
	// Each solve waits in its first OnIteration until both are there.
	var arrived sync.WaitGroup
	arrived.Add(2)
	seen := make([]int64, 2)
	var solves sync.WaitGroup
	for k := range seen {
		solves.Add(1)
		go func() {
			defer solves.Done()
			o := Options{Rank: 4, MaxIters: 3, Seed: uint64(k + 1), Parallelism: 2, OnIteration: func(it int, _ float64) bool {
				if it == 0 {
					arrived.Done()
					arrived.Wait()
					seen[k] = liveResident.Load()
				}
				return false
			}}
			if _, err := SolveWith(x, o, Update{}); err != nil {
				t.Error(err)
			}
		}()
	}
	solves.Wait()
	for k, got := range seen {
		if got != columns {
			t.Errorf("solve %d: %d bytes of mode columns mapped with both solves running, want one set's %d", k, got, columns)
		}
	}
	if got := liveResident.Load(); got != 0 {
		t.Errorf("%d bytes of mode columns still mapped after both solves", got)
	}
}

// A solve of a tensor that caches every mode index gathers through them and
// maps no columns beside them; its result is bitwise the streamed solve's.
// A tensor that caches only some of its indexes still streams.
func TestSolveOfAnIndexedTensorMapsNoColumns(t *testing.T) {
	x := kernelTestTensor(3, false)
	shuffleEntries(x, rng.New(5))
	var peak int64
	o := Options{Rank: 4, MaxIters: 3, Seed: 1, Parallelism: 2, OnIteration: func(int, float64) bool {
		peak = max(peak, liveResident.Load())
		return false
	}}
	x.ModeIndex(1)
	streamed, err := SolveWith(x, o, Update{})
	if err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatal("a tensor caching one mode index of three mapped no mode columns")
	}
	x.ModeIndexes(2)
	peak = 0
	gathered, err := SolveWith(x, o, Update{})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 0 {
		t.Errorf("%d bytes of mode columns mapped beside the cached mode indexes", peak)
	}
	requireSameResult(t, "gathered through the cached indexes", streamed, gathered)
}

// A mode whose index never decreases in storage order is scanned in place,
// and every segment table is the mode index's.
func TestModeColumnsMatchTheModeIndex(t *testing.T) {
	for order := 2; order <= 5; order++ {
		for _, sorted := range []bool{true, false} {
			x := kernelTestTensor(order, sorted)
			src := &COOSource{}
			release := src.keepColumns(x, 3)
			for m := range x.Dims {
				mc, mi := &src.res.modes[m], x.ModeIndex(m)
				if len(mc.rowPtr) != len(mi.RowPtr) {
					t.Fatalf("order %d mode %d: %d row pointers, want %d", order, m, len(mc.rowPtr), len(mi.RowPtr))
				}
				for i := range mi.RowPtr {
					if mc.rowPtr[i] != mi.RowPtr[i] {
						t.Fatalf("order %d mode %d: rowPtr[%d] = %d, want %d", order, m, i, mc.rowPtr[i], mi.RowPtr[i])
					}
				}
				if (mc.vals == nil) != inStorageOrder(x, m) {
					t.Fatalf("order %d sorted %v mode %d: copied %v", order, sorted, m, mc.vals != nil)
				}
				if mc.vals == nil {
					continue
				}
				for p, q := range mi.Perm {
					e := &x.Entries[q]
					k := 0
					for n := range x.Dims {
						if n == m {
							continue
						}
						if mc.cols[k][p] != e.Idx[n] {
							t.Fatalf("order %d mode %d: position %d mode %d index %d, want %d", order, m, p, n, mc.cols[k][p], e.Idx[n])
						}
						k++
					}
					if mc.vals[p] != e.Val {
						t.Fatalf("order %d mode %d: position %d value %g, want %g", order, m, p, mc.vals[p], e.Val)
					}
				}
			}
			release()
			if src.res != nil || liveResident.Load() != 0 {
				t.Fatalf("order %d: the columns outlive their release", order)
			}
		}
	}
}

// seeingContext calls see whenever the solve checks it for cancellation,
// before each iteration.
type seeingContext struct {
	context.Context
	see func()
}

func (c seeingContext) Done() <-chan struct{} {
	c.see()
	return c.Context.Done()
}
