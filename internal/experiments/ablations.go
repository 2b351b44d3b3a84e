package experiments

import (
	"cstf/internal/core"
	"cstf/internal/rdd"
	"cstf/internal/tensor"
)

// Ablations for the design choices the paper argues for in prose:
//
//   - Section 4.1 "Caching": CSTF caches the tensor RAW rather than
//     serialized, "since it leads to better performance benefits in
//     iterative tensor algorithms ... due to the faster data accesses".
//     AblationCaching measures both storage levels.
//   - Section 4.2: QCOO computes each gram matrix once per CP-ALS
//     iteration, "eliminat[ing] the need to perform extra reduce
//     operations". AblationGramReuse disables the reuse.
//   - Section 5's communication analysis is rank-linear in its nnz*R
//     terms but the records carry constant-size coordinates too, so the
//     QCOO byte saving must shrink as R grows — and because the queue
//     carries N-1 rank-sized rows through its join while COO's
//     accumulator carries one, the saving actually reverses sign once
//     8R outweighs the per-record constants (R around 16-32 at order 3).
//     The paper evaluates only R=2; AblationRankSweep maps the limit of
//     the queue strategy.

// CachingRow reports one storage level's steady-state iteration time.
type CachingRow struct {
	Nodes          int
	RawSeconds     float64
	SerialSeconds  float64
	RawAdvantage   float64 // SerialSeconds / RawSeconds (>1: raw wins)
	RawCachedGB    float64 // cache footprint, full-scale equivalent
	SerialCachedGB float64
}

// AblationCaching compares raw vs serialized tensor caching for CSTF-COO
// on delicious3d at several cluster sizes.
func AblationCaching(p Params) ([]CachingRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	var rows []CachingRow
	for _, nodes := range []int{4, 32} {
		row := CachingRow{Nodes: nodes}
		for _, serialized := range []bool{false, true} {
			ctx := p.sparkCtx(nodes)
			s := core.NewCOOStateWithStorage(ctx, x, p.Rank, p.Seed, serialized)
			stats := measureIterations(ctx.Cluster, s, x.Order(), 2)
			sec := stats[1].Seconds
			cachedGB := ctx.Cluster.CachedBytes() / p.Scale / 1e9
			if serialized {
				row.SerialSeconds = sec
				row.SerialCachedGB = cachedGB
			} else {
				row.RawSeconds = sec
				row.RawCachedGB = cachedGB
			}
		}
		row.RawAdvantage = row.SerialSeconds / row.RawSeconds
		rows = append(rows, row)
	}
	return rows, nil
}

// GramReuseRow reports one configuration of the gram-reuse ablation.
type GramReuseRow struct {
	Reuse        bool
	Seconds      float64 // steady-state iteration, total
	OtherSeconds float64 // the non-MTTKRP share, where grams live
}

// AblationGramReuse runs QCOO on nell1 (large mode sizes, so gram passes
// are visible) with and without the once-per-update gram computation.
func AblationGramReuse(p Params) ([]GramReuseRow, error) {
	x, err := p.generate("nell1")
	if err != nil {
		return nil, err
	}
	var rows []GramReuseRow
	for _, reuse := range []bool{true, false} {
		ctx := p.sparkCtx(8)
		s := core.NewQCOOState(ctx, x, p.Rank, p.Seed)
		s.DisableGramReuse = !reuse
		stats := measureIterations(ctx.Cluster, s, x.Order(), 2)
		rows = append(rows, GramReuseRow{
			Reuse:        reuse,
			Seconds:      stats[1].Seconds,
			OtherSeconds: stats[1].TimeByPhase[core.PhaseOther],
		})
	}
	return rows, nil
}

// OrderSweepRow reports one tensor order's QCOO-vs-COO communication
// comparison: measured shuffle counts per iteration (which must equal the
// paper's N^2 vs 2N exactly) and the measured byte reduction alongside the
// paper's analytic 1/N prediction for its join-volume accounting.
type OrderSweepRow struct {
	Order          int
	COOShuffles    int
	QCOOShuffles   int
	ByteReduction  float64 // measured: 1 - QCOO/COO shuffled bytes
	PaperReduction float64 // the paper's up-to-1/N closed form (Section 5)
}

// AblationOrderSweep measures the queue strategy across tensor orders
// 3, 4, and 5 on synthetic tensors of equal nnz. Section 5 states QCOO
// reduces communication by up to 33%, 25%, and 20% for orders 3/4/5 under
// its join-volume accounting; our engines measure full shuffle-read bytes,
// where the reduction instead grows with order because COO re-shuffles the
// coordinates N-1 times per MTTKRP (see EXPERIMENTS.md).
func (p Params) orderTensor(order int) *tensor.COO {
	dims := make([]int, order)
	for i := range dims {
		dims[i] = 2000 >> i
		if dims[i] < 64 {
			dims[i] = 64
		}
	}
	return tensor.GenUniform(1234, 30000, dims...)
}

// AblationOrderSweep runs the order sweep (see orderTensor).
func AblationOrderSweep(p Params) ([]OrderSweepRow, error) {
	var rows []OrderSweepRow
	for _, order := range []int{3, 4, 5} {
		x := p.orderTensor(order)
		row := OrderSweepRow{Order: order, PaperReduction: 1 / float64(order)}
		for _, algo := range []Algo{AlgoCOO, AlgoQ} {
			stats, err := p.runAlgo(algo, Fig4Nodes, x, 2)
			if err != nil {
				return nil, err
			}
			st := stats[1]
			if algo == AlgoCOO {
				row.COOShuffles = st.Shuffles
				row.ByteReduction = st.Remote + st.Local // stash COO total
			} else {
				row.QCOOShuffles = st.Shuffles
				row.ByteReduction = 1 - (st.Remote+st.Local)/row.ByteReduction
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RankSweepRow reports the QCOO-vs-COO shuffle-byte reduction at one rank.
type RankSweepRow struct {
	Rank      int
	COOBytes  float64
	QCOOBytes float64
	Reduction float64 // 1 - QCOO/COO
}

// AblationRankSweep measures the communication reduction of the queue
// strategy as the decomposition rank grows (delicious3d, 8 nodes).
func AblationRankSweep(p Params) ([]RankSweepRow, error) {
	x, err := p.generate("delicious3d")
	if err != nil {
		return nil, err
	}
	var rows []RankSweepRow
	for _, rank := range []int{2, 4, 8, 16, 32} {
		pr := p
		pr.Rank = rank
		row := RankSweepRow{Rank: rank}
		for _, algo := range []Algo{AlgoCOO, AlgoQ} {
			stats, err := pr.runAlgo(algo, Fig4Nodes, x, 2)
			if err != nil {
				return nil, err
			}
			total := stats[1].Remote + stats[1].Local
			if algo == AlgoCOO {
				row.COOBytes = total
			} else {
				row.QCOOBytes = total
			}
		}
		row.Reduction = 1 - row.QCOOBytes/row.COOBytes
		rows = append(rows, row)
	}
	return rows, nil
}

// PartitionsRow reports one task-granularity configuration.
type PartitionsRow struct {
	TasksPerCore int
	Seconds      float64 // COO steady-state iteration
}

// AblationPartitions sweeps the partitions-per-core discipline on the
// skewed nell1 tensor (8 nodes): finer tasks smooth out Zipf-induced load
// imbalance at the price of per-task overhead — the Spark "2-3 tasks per
// core" guidance, measured.
func AblationPartitions(p Params) ([]PartitionsRow, error) {
	x, err := p.generate("nell1")
	if err != nil {
		return nil, err
	}
	const nodes = 8
	var rows []PartitionsRow
	for _, tpc := range []int{1, 2, 4, 8} {
		c := p.newCluster(nodes)
		ctx := rdd.NewContext(c, nodes*p.Profile.CoresPerNode*tpc)
		s := core.NewCOOState(ctx, x, p.Rank, p.Seed)
		stats := measureIterations(c, s, x.Order(), 2)
		rows = append(rows, PartitionsRow{TasksPerCore: tpc, Seconds: stats[1].Seconds})
	}
	return rows, nil
}
