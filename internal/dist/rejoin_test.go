package dist

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
)

// fastRetry keeps rejoin redials well inside a short test solve.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
}

// TestPartitionRejoin severs a worker's connection mid-solve via a chaos
// NetPartition event. The worker process survives, so the rejoin loop must
// get it back — re-admitted with a fresh shard/factor resync — and the
// final factors must still match the serial solver bit for bit.
func TestPartitionRejoin(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	// Long enough (tens of milliseconds) that the solve cannot end before
	// fastRetry's redials, which take up to ~25 ms in all, get the worker
	// back: at 12 iterations it ended first about once in 50 runs.
	opts.MaxIters = 80
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	cfg.Retry = fastRetry()
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NetPartition, Node: 1, Stage: 2})
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after partition+rejoin", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("want one detected death, got %+v", stats)
	}
	if stats.Rejoins < 1 {
		t.Fatalf("partitioned worker never rejoined: %+v", stats)
	}
	if stats.WorkersAlive != 2 {
		t.Fatalf("fleet not back to full strength: %+v", stats)
	}
}

// TestCorruptFrameRecovery arms a one-shot bit flip on a coordinator->worker
// frame via a chaos FrameCorrupt event. The worker's CRC32-C check must
// reject the damaged frame (never execute it), the connection resets, the
// in-flight task is retried elsewhere or on the rejoined worker, and the
// result stays bitwise identical — corruption may cost time, never bits.
func TestCorruptFrameRecovery(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	opts.MaxIters = 12
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	cfg.Retry = fastRetry()
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.FrameCorrupt, Node: 0, Stage: 2})
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after frame corruption", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("corrupt frame should reset exactly one connection, got %+v", stats)
	}
}

// TestLateListenerJoins is the dial-retry regression: NewSession must not
// give up on a worker whose listener comes up moments after the dial storm
// starts (rolling restarts, slow process spawns).
func TestLateListenerJoins(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 listens immediately.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w0 := NewWorker()
	go w0.Serve(ln0)
	defer w0.Close()

	// Worker 1's port is held from here on by a socket that is bound but
	// not yet listening: dials to it are refused, and no other process can
	// take the port before the listener starts.
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := os.NewFile(uintptr(fd), "late-listener")
	defer held.Close()
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr1 := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	w1 := NewWorker()
	defer w1.Close()
	go func() {
		// The one real wait: the first dial must be refused before there is
		// a listener. 300 ms spans two attempts of the default schedule
		// (0, ~100, ~300 ms) and leaves its remaining ~1.2 s as slack.
		time.Sleep(300 * time.Millisecond)
		if err := syscall.Listen(fd, syscall.SOMAXCONN); err != nil {
			t.Errorf("late listener: %v", err)
			return
		}
		ln, err := net.FileListener(held)
		if err != nil {
			t.Errorf("late listener: %v", err)
			return
		}
		w1.Serve(ln)
	}()

	cfg := Config{Addrs: []string{ln0.Addr().String(), addr1}}
	got, stats, err := Solve(x, opts, cpals.Update{}, cfg)
	if err != nil {
		t.Fatalf("solve with late listener: %v", err)
	}
	sameBits(t, "late listener", want, got)
	if stats.WorkerDeaths != 0 {
		t.Fatalf("late join should not count as a death: %+v", stats)
	}
}
