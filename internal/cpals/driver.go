package cpals

import (
	"math"

	"cstf/internal/ckpt"
	"cstf/internal/la"
)

// Tier is one solver's computation inside the ALS iteration that Run owns.
// Every tier in the repository — core's COO and QCOO, bigtensor, and the
// one shared by Solve, rals, ncp and dist (SolveWith) — runs the same outer
// loop; they differ only in how a mode update, the end-of-iteration fit
// and a checkpoint are computed, and whatever else varies (rals' epochs,
// bigtensor's missing in-band fit) is expressed inside those methods.
type Tier interface {
	// Step updates the factor of one mode; modes run 0..N-1 within an
	// iteration. A non-nil error aborts the solve.
	Step(mode int) error
	// Fit ends an iteration. ok=false records no fit for it: OnIteration
	// is not called and the Tol test is skipped.
	Fit() (fit float64, ok bool, err error)
	// Lambda and Factors return the current normalized model. Run reads
	// them for each checkpoint and once for the Result.
	Lambda() []float64
	Factors() []*la.Dense
	// Checkpoint adds the tier's own state to a snapshot Run is about to
	// hand to OnCheckpoint; false skips this checkpoint (a state the tier
	// could not resume from bitwise).
	Checkpoint(cp *ckpt.File) bool
}

// Run drives a tier through iterations o.StartIter..o.MaxIters-1: the
// context check before each iteration, the mode updates, the fit,
// OnIteration, the checkpoint cadence and the Tol test on the last two
// fits (which spans a resume boundary when InitFits carries the history).
// dims are the tensor's mode sizes. The driver adds one interface call per
// mode update and nothing per row or nonzero.
func Run(tier Tier, dims []int, o Options) (*Result, error) {
	res := &Result{Iters: o.StartIter}
	res.Fits = append(res.Fits, o.InitFits...)
	for it := o.StartIter; it < o.MaxIters; it++ {
		if err := o.Interrupted(); err != nil {
			return nil, err
		}
		for n := range dims {
			if err := tier.Step(n); err != nil {
				return nil, err
			}
		}
		res.Iters = it + 1
		fit, ok, err := tier.Fit()
		if err != nil {
			return nil, err
		}
		if ok {
			res.Fits = append(res.Fits, fit)
			if o.OnIteration != nil && o.OnIteration(it, fit) {
				break
			}
		}
		if o.CheckpointEvery > 0 && o.OnCheckpoint != nil && (it+1)%o.CheckpointEvery == 0 {
			if err := checkpoint(tier, dims, it+1, res.Fits, o); err != nil {
				return nil, err
			}
		}
		if nf := len(res.Fits); ok && o.Tol > 0 && nf > 1 && math.Abs(res.Fits[nf-1]-res.Fits[nf-2]) < o.Tol {
			break
		}
	}
	res.Lambda, res.Factors = tier.Lambda(), tier.Factors()
	return res, nil
}

// checkpoint snapshots the solver after iter completed iterations into an
// owned file and hands it to o.OnCheckpoint, unless the tier declines.
func checkpoint(tier Tier, dims []int, iter int, fits []float64, o Options) error {
	cp := &ckpt.File{
		Rank: o.Rank,
		Seed: o.Seed,
		Iter: iter,
		Dims: append([]int(nil), dims...),
		Fits: append([]float64(nil), fits...),
	}
	if !tier.Checkpoint(cp) {
		return nil
	}
	cp.Lambda = la.VecClone(tier.Lambda())
	for _, f := range tier.Factors() {
		cp.Factors = append(cp.Factors, la.VecClone(f.Data))
	}
	return o.OnCheckpoint(cp)
}

// CheckpointBytes is the serialized size of one factor-set checkpoint: every
// factor matrix plus the lambda vector, 8 bytes per element. The simulated
// engines (core, bigtensor) charge it as a replicated HDFS write.
func CheckpointBytes(dims []int, rank int) float64 {
	var bytes float64
	for _, d := range dims {
		bytes += float64(d) * float64(rank) * 8
	}
	return bytes + float64(rank)*8
}

// Restore sets StartIter, InitFactors, InitLambda and InitFits to resume
// from a checkpoint, the inverse of the snapshot OnCheckpoint receives. The
// tier's own state (cp.RALS, cp.NTF) is read by whatever builds its Update.
func (o *Options) Restore(cp *ckpt.File) {
	o.StartIter, o.InitLambda, o.InitFits = cp.Iter, cp.Lambda, cp.Fits
	o.InitFactors = nil
	for n, data := range cp.Factors {
		o.InitFactors = append(o.InitFactors, la.NewDenseFrom(cp.Dims[n], cp.Rank, data))
	}
}
