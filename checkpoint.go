package cstf

import (
	"context"
	"fmt"

	"cstf/internal/ckpt"
	"cstf/internal/la"
)

// Iteration-granular checkpointing. A checkpoint captures everything CP-ALS
// needs to continue from an iteration boundary — the normalized factor
// matrices, lambda, and the fit history — plus enough identity (algorithm,
// rank, dims, seed) to reject a mismatched resume. The on-disk schema lives
// in internal/ckpt so other consumers (the serving subsystem, future tools)
// read the same format instead of re-parsing gob privately; files are
// written atomically, so a crash mid-write never leaves a truncated
// checkpoint behind.

// LoadFactors reads the trained model stored in a checkpoint file — lambda,
// the factor matrices, and the fit history — without needing the original
// tensor. The file is validated (rank, dims, factor sizes must be
// consistent; mismatches return a typed *ckpt.InvalidError) and the result
// is a Decomposition whose Iters/Seed reflect the checkpointed run, ready
// for At/TopK queries or for Decomposition.Server.
func LoadFactors(path string) (*Decomposition, error) {
	cp, err := ckpt.Load(path)
	if err != nil {
		return nil, err
	}
	d := &Decomposition{
		Lambda: cp.Lambda,
		Fits:   cp.Fits,
		Iters:  cp.Iter,
		Seed:   cp.Seed,
	}
	for n, data := range cp.Factors {
		d.Factors = append(d.Factors, &Matrix{d: la.NewDenseFrom(cp.Dims[n], cp.Rank, data)})
	}
	return d, nil
}

// DecomposeResume continues an interrupted run from the checkpoint at path.
// It is DecomposeResumeContext with a background context.
func DecomposeResume(t *Tensor, path string, o Options) (*Decomposition, error) {
	return DecomposeResumeContext(context.Background(), t, path, o)
}

// DecomposeResumeContext loads the checkpoint at path, validates it against
// the tensor and options (algorithm, rank, dims must match), and resumes the
// solve at the checkpointed iteration. The options should match the original
// run; MaxIters still bounds the TOTAL iteration count, so a run
// checkpointed at iteration k executes at most MaxIters-k more. Because ALS
// is a deterministic fixed-point iteration, the resumed run follows the
// original trajectory and reaches the same final fit as an uninterrupted
// solve. With CheckpointEvery/CheckpointPath still set, the resumed run
// keeps checkpointing (typically over the same file).
func DecomposeResumeContext(ctx context.Context, t *Tensor, path string, o Options) (*Decomposition, error) {
	o = o.withDefaults()
	cp, err := ckpt.Read(path)
	if err != nil {
		return nil, err
	}
	if cp.Algorithm != string(o.Algorithm) {
		return nil, fmt.Errorf("cstf: checkpoint is for algorithm %q, options select %q", cp.Algorithm, o.Algorithm)
	}
	if cp.Rank != o.Rank {
		return nil, fmt.Errorf("cstf: checkpoint rank %d != options rank %d", cp.Rank, o.Rank)
	}
	dims := t.Dims()
	if len(cp.Dims) != len(dims) {
		return nil, fmt.Errorf("cstf: checkpoint order %d != tensor order %d", len(cp.Dims), len(dims))
	}
	for n := range dims {
		if cp.Dims[n] != dims[n] {
			return nil, fmt.Errorf("cstf: checkpoint dims %v != tensor dims %v", cp.Dims, dims)
		}
	}
	if err := cp.Validate(path); err != nil {
		return nil, fmt.Errorf("cstf: malformed checkpoint %s: %w", path, err)
	}
	return decompose(ctx, t, o, cp)
}
