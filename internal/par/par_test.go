package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllTasks(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const tasks = 57
		var hits [tasks]atomic.Int64
		Run(workers, tasks, func(task int) { hits[task].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	Run(4, 0, func(int) { t.Fatal("fn called for zero tasks") })
	Run(4, -3, func(int) { t.Fatal("fn called for negative tasks") })
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("Workers must be at least 1")
	}
	if Workers(7) != 7 {
		t.Fatalf("Workers(7) = %d", Workers(7))
	}
}

func TestBlockDecomposition(t *testing.T) {
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		covered := 0
		for b := 0; b < NumBlocks(n); b++ {
			lo, hi := Block(b, n)
			if lo != covered {
				t.Fatalf("n=%d block %d starts at %d, want %d", n, b, lo, covered)
			}
			if hi <= lo || hi > n {
				t.Fatalf("n=%d block %d range [%d,%d)", n, b, lo, hi)
			}
			covered = hi
		}
		if covered != n {
			t.Fatalf("n=%d blocks cover %d items", n, covered)
		}
	}
}

func TestSumBlocksDeterministic(t *testing.T) {
	n := 3*BlockSize + 101
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	sum := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	want := SumBlocks(1, n, sum)
	for _, workers := range []int{2, 4, 8} {
		if got := SumBlocks(workers, n, sum); got != want {
			t.Fatalf("workers=%d: sum %v != single-worker %v", workers, got, want)
		}
	}
}

// A panic on a pool goroutine must reach the caller's recover() instead of
// killing the process, the lowest-indexed panicking task must win whatever
// the scheduling, and Run must leave no goroutine behind.
func TestRunReraisesPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	for rep := 0; rep < 200; rep++ {
		func() {
			defer func() {
				if v := recover(); v != 2 {
					t.Fatalf("rep %d: recovered %v, want the panic of task 2", rep, v)
				}
			}()
			Run(2, 16, func(task int) {
				if task >= 2 {
					panic(task)
				}
			})
			t.Fatal("Run returned normally")
		}()
	}
	// wg.Wait returns when a pool goroutine's deferred Done has run, which
	// is just before it exits: give the last ones a moment to be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
