package experiments

import (
	"fmt"

	"cstf/internal/bigtensor"
	"cstf/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 4: cost comparison of BIGtensor, CSTF-COO and CSTF-QCOO for a
// 3rd-order mode-1 MTTKRP: flops, intermediate data, shuffle operations.
// Flops and shuffles are MEASURED from the engines; intermediate data is
// the per-record working-set size, which follows the paper's analytic
// accounting (it is a storage property, not an event the metrics see).
// ---------------------------------------------------------------------------

// Table4Row is one line of Table 4. Paper columns are the closed forms of
// Section 5; Measured columns come from the instrumented engines.
type Table4Row struct {
	Algo              Algo
	MeasuredFlops     float64
	PaperFlops        float64 // closed form: 5nnzR / 3nnzR / 3nnzR
	IntermediateBytes float64 // analytic, paper's units (8-byte words)
	PaperIntermediate string  // the paper's symbolic entry
	MeasuredShuffles  int
	PaperShuffles     int
}

// Table4 measures one mode-1 MTTKRP per algorithm on the delicious3d
// configuration.
func Table4(p Params) ([]Table4Row, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	nnz := float64(x.NNZ())
	r := float64(p.Rank)

	rows := make([]Table4Row, 0, 3)

	// BIGtensor.
	{
		env := p.hadoopEnv(8)
		s, err := bigtensor.New(env, x, p.Rank, p.Seed)
		if err != nil {
			return nil, err
		}
		env.C.ResetMetrics()
		s.MTTKRP(0)
		m := env.C.Metrics()
		maxJK := float64(max(x.Dims[1], x.Dims[2]))
		rows = append(rows, Table4Row{
			Algo:              AlgoBig,
			MeasuredFlops:     m.Flops["MTTKRP-1"],
			PaperFlops:        5 * nnz * r,
			IntermediateBytes: 8 * (maxJK + nnz),
			PaperIntermediate: "max(J+nnz, K+nnz)",
			MeasuredShuffles:  m.Shuffles["MTTKRP-1"],
			PaperShuffles:     4,
		})
	}

	// CSTF-COO and CSTF-QCOO: measure the second MTTKRP of mode 1
	// (steady state). QCOO's queue holds twice COO's nnz x R records.
	for _, a := range []struct {
		algo     Algo
		records  float64
		paper    string
		shuffles int
	}{
		{AlgoCOO, 1, "nnz x R", 3},
		{AlgoQ, 2, "2 x nnz x R", 2},
	} {
		s, c, err := p.newSolver(a.algo, 8, x)
		if err != nil {
			return nil, err
		}
		for n := 0; n < 3; n++ {
			s.Step(n)
		}
		before := c.Metrics()
		s.Step(0)
		m := c.Metrics().Sub(before)
		rows = append(rows, Table4Row{
			Algo:              a.algo,
			MeasuredFlops:     m.Flops["MTTKRP-1"],
			PaperFlops:        3 * nnz * r,
			IntermediateBytes: a.records * 8 * nnz * r,
			PaperIntermediate: a.paper,
			MeasuredShuffles:  m.Shuffles["MTTKRP-1"],
			PaperShuffles:     a.shuffles,
		})
	}
	return rows, nil
}

// Table5 formats the dataset summary table at full scale, plus the scaled
// sizes actually generated.
func Table5(p Params) []string {
	out := []string{
		"Dataset      | Order | Max mode | nnz   | Density   (scaled nnz @ " +
			fmt.Sprintf("%.0e)", p.Scale),
	}
	for _, c := range workload.Datasets() {
		out = append(out, fmt.Sprintf("%s   (%d)", c.Table5Row(), c.ScaledNNZ(p.Scale)))
	}
	return out
}
