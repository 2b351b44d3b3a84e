// Package par provides the shared-memory worker-pool primitives behind the
// parallel numeric kernels (MTTKRP, gram products, norm reductions). Two
// rules keep every kernel built on it bitwise deterministic:
//
//  1. Work is decomposed into tasks whose boundaries depend only on the
//     problem shape, never on the worker count; workers race only for WHICH
//     task they run next, not for how a task is cut.
//  2. Reductions merge per-task partials in task order on the caller's
//     goroutine, so the floating-point summation tree is fixed.
//
// Under those rules a kernel run with 1 worker and with N workers performs
// the identical sequence of floating-point operations per output value.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested parallelism degree: values <= 0 select
// runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Run executes fn(task) for every task in [0, tasks) on up to `workers`
// goroutines (including the calling one) and returns when all tasks have
// finished. Tasks are claimed from a shared atomic counter, so scheduling is
// dynamic but the task decomposition itself is caller-fixed. workers <= 1 or
// tasks <= 1 degrades to a plain loop with no goroutines.
//
// A panic in fn never escapes on a pool goroutine, where no caller could
// recover it and it would take the process down: it is captured, no further
// task is claimed, the tasks in flight finish, and Run re-raises the value
// on the calling goroutine. Tasks are claimed in ascending order, so the
// lowest-indexed task that panics is always among those that ran; its value
// is the one re-raised — the same panic the plain loop would have stopped at.
func Run(workers, tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex // guards panicTask, panicVal
		panicTask = -1
		panicVal  any
	)
	body := func() {
		t := -1
		defer func() {
			if v := recover(); v != nil {
				next.Store(int64(tasks))
				mu.Lock()
				if panicTask < 0 || t < panicTask {
					panicTask, panicVal = t, v
				}
				mu.Unlock()
			}
		}()
		for {
			t = int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			fn(t)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body()
	wg.Wait()
	if panicTask >= 0 {
		panic(panicVal)
	}
}

// BlockSize is the row granularity of every blocked reduction in this
// repository. It is a single shared constant on purpose: block boundaries —
// and therefore rounding — must depend only on the problem size, never on
// the worker count.
const BlockSize = 2048

// NumBlocks returns how many BlockSize blocks cover n items.
func NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BlockSize - 1) / BlockSize
}

// Block returns the half-open item range [lo, hi) of block b over n items.
func Block(b, n int) (lo, hi int) {
	lo = b * BlockSize
	hi = lo + BlockSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForBlocks runs fn over every BlockSize block of [0, n) on the worker
// pool. fn must only touch items in its [lo, hi) block; under that contract
// the result is independent of the worker count. This is the shared
// fan-out primitive behind the row-blocked matrix kernels in internal/la
// and the batched scoring scans in internal/serve.
func ForBlocks(workers, n int, fn func(lo, hi int)) {
	Run(workers, NumBlocks(n), func(b int) {
		lo, hi := Block(b, n)
		fn(lo, hi)
	})
}

// SumBlocks reduces blockFn over all BlockSize blocks of [0, n): partials
// are computed concurrently by up to `workers` goroutines and summed in
// block order, so the result is bitwise identical for every worker count.
func SumBlocks(workers, n int, blockFn func(lo, hi int) float64) float64 {
	nb := NumBlocks(n)
	if nb == 0 {
		return 0
	}
	partial := make([]float64, nb)
	Run(workers, nb, func(b int) {
		lo, hi := Block(b, n)
		partial[b] = blockFn(lo, hi)
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}
