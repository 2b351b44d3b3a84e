package cstf_test

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cstf"
	"cstf/internal/ckpt"
)

// TestSIGKILLResumeBitwise is the crash-safety acceptance test at process
// granularity: a real cstf coordinator process is SIGKILLed mid-solve —
// no deferred cleanup, no graceful shutdown, exactly what the OOM killer
// or a power cut delivers — and the run is resumed from its last durable
// checkpoint. The resumed decomposition must be bitwise-identical to an
// uninterrupted run of the same configuration: same lambda, same factors,
// same fit trajectory.
//
// The tensor travels through the same .tns file in both worlds (the text
// format rounds values, so generating it twice would compare different
// problems).
func TestSIGKILLResumeBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real coordinator process")
	}
	dir := t.TempDir()
	tns := filepath.Join(dir, "x.tns")
	ck := filepath.Join(dir, "cp.ckpt")
	bin := filepath.Join(dir, "cstf")

	gen := cstf.LowRankTensor(21, 60000, 3, 0.05, 120, 100, 80)
	if err := gen.Save(tns); err != nil {
		t.Fatal(err)
	}
	x, err := cstf.LoadTensor(tns)
	if err != nil {
		t.Fatal(err)
	}

	build := exec.Command("go", "build", "-o", bin, "cstf/cmd/cstf")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build cstf: %v\n%s", err, out)
	}

	opts := cstf.Options{
		Algorithm: cstf.Dist, Rank: 6, MaxIters: 30, NoConvergenceCheck: true, Seed: 7,
	}
	opts.Dist.LocalWorkers = 2

	// The coordinator process: checkpoint after every iteration, 30 to go.
	cmd := exec.Command(bin,
		"-in", tns, "-algo", "dist", "-dist-local", "2",
		"-rank", "6", "-iters", "30", "-tol", "0", "-seed", "7",
		"-checkpoint", ck, "-checkpoint-every", "1")
	cmd.Dir = dir
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as a durable mid-solve checkpoint exists. ckpt.Write is
	// atomic (temp + rename), so a readable file is a complete file.
	deadline := time.Now().Add(60 * time.Second)
	killedAt := -1
	for time.Now().Before(deadline) {
		if cp, err := ckpt.Read(ck); err == nil && cp.Iter >= 2 {
			killedAt = cp.Iter
			break
		}
		time.Sleep(2 * time.Millisecond) // poll: the child process signals progress only through the file
	}
	if killedAt < 0 {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		t.Fatal("no checkpoint appeared within 60s")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	cp, err := ckpt.Read(ck)
	if err != nil {
		t.Fatalf("checkpoint unreadable after SIGKILL: %v", err)
	}
	if cp.Iter >= opts.MaxIters {
		t.Fatalf("coordinator finished (iter %d) before the kill landed; grow MaxIters", cp.Iter)
	}
	t.Logf("SIGKILLed coordinator at iteration %d (checkpoint iter %d)", killedAt, cp.Iter)

	start := time.Now()
	got, err := cstf.DecomposeResume(x, ck, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	t.Logf("resumed %d remaining iterations in %v", opts.MaxIters-cp.Iter, time.Since(start))

	want, err := cstf.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != want.Iters {
		t.Fatalf("resumed Iters=%d, want %d", got.Iters, want.Iters)
	}
	if len(got.Fits) != len(want.Fits) {
		t.Fatalf("resumed %d fits, want %d", len(got.Fits), len(want.Fits))
	}
	for i := range want.Fits {
		if math.Float64bits(got.Fits[i]) != math.Float64bits(want.Fits[i]) {
			t.Fatalf("fit[%d]: %v != %v", i, got.Fits[i], want.Fits[i])
		}
	}
	for i := range want.Lambda {
		if math.Float64bits(got.Lambda[i]) != math.Float64bits(want.Lambda[i]) {
			t.Fatalf("lambda[%d]: %v != %v", i, got.Lambda[i], want.Lambda[i])
		}
	}
	requireSameFactors(t, want, got, 0)

	// The interrupted run left no half-written files behind: everything in
	// the scratch dir is either an input, the binary, or a valid checkpoint.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch e.Name() {
		case "x.tns", "cstf", filepath.Base(ck):
		// A .tmp file may survive when the kill lands mid-write; the
		// atomic rename guarantees it never becomes the live checkpoint.
		case filepath.Base(ck) + ".tmp":
		default:
			t.Fatalf("SIGKILL left debris behind: %s", e.Name())
		}
	}
}
