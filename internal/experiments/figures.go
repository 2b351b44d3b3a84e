package experiments

import (
	"fmt"
	"sort"
)

// ---------------------------------------------------------------------------
// Figure 2: CP-ALS runtime per iteration vs cluster size, 3rd-order tensors,
// COO / QCOO / BIGtensor on delicious3d, nell1, synt3d.
// ---------------------------------------------------------------------------

// Fig2Datasets are the three 3rd-order datasets of Figure 2.
var Fig2Datasets = []string{"delicious3d", "nell1", "synt3d"}

// Fig2Row is one point of Figure 2: per-iteration runtimes (modeled
// seconds, steady state) for the three systems at one cluster size.
type Fig2Row struct {
	Dataset     string
	Nodes       int
	COO         float64
	QCOO        float64
	BIGtensor   float64
	SpeedupCOO  float64 // BIGtensor / COO
	SpeedupQCOO float64 // BIGtensor / QCOO
	RatioQvsCOO float64 // COO / QCOO  (>1 means QCOO faster)
}

// Fig2 regenerates Figure 2(a-c).
func Fig2(p Params) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, ds := range Fig2Datasets {
		x, err := p.generate(ds)
		if err != nil {
			return nil, err
		}
		for _, nodes := range PaperNodes {
			row := Fig2Row{Dataset: ds, Nodes: nodes}
			for _, algo := range []Algo{AlgoCOO, AlgoQ, AlgoBig} {
				stats, err := p.runAlgo(algo, nodes, x, 2)
				if err != nil {
					return nil, err
				}
				sec := stats[1].Seconds // steady-state iteration
				switch algo {
				case AlgoCOO:
					row.COO = sec
				case AlgoQ:
					row.QCOO = sec
				case AlgoBig:
					row.BIGtensor = sec
				}
			}
			row.SpeedupCOO = row.BIGtensor / row.COO
			row.SpeedupQCOO = row.BIGtensor / row.QCOO
			row.RatioQvsCOO = row.COO / row.QCOO
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 3: CP-ALS runtime per iteration vs cluster size, 4th-order tensors,
// COO vs QCOO on delicious4d and flickr (BIGtensor cannot run these).
// ---------------------------------------------------------------------------

// Fig3Datasets are the 4th-order datasets of Figure 3.
var Fig3Datasets = []string{"delicious4d", "flickr"}

// Fig3Row is one point of Figure 3.
type Fig3Row struct {
	Dataset     string
	Nodes       int
	COO         float64
	QCOO        float64
	RatioQvsCOO float64 // COO / QCOO
}

// Fig3 regenerates Figure 3(a-b).
func Fig3(p Params) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, ds := range Fig3Datasets {
		x, err := p.generate(ds)
		if err != nil {
			return nil, err
		}
		for _, nodes := range PaperNodes {
			row := Fig3Row{Dataset: ds, Nodes: nodes}
			coo, err := p.runAlgo(AlgoCOO, nodes, x, 2)
			if err != nil {
				return nil, err
			}
			q, err := p.runAlgo(AlgoQ, nodes, x, 2)
			if err != nil {
				return nil, err
			}
			row.COO = coo[1].Seconds
			row.QCOO = q[1].Seconds
			row.RatioQvsCOO = row.COO / row.QCOO
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 4: remote and local shuffle bytes read during one steady-state
// CP-ALS iteration, stacked per MTTKRP mode, COO vs QCOO on delicious3d and
// flickr, 8 nodes.
// ---------------------------------------------------------------------------

// Fig4Nodes is the cluster size of the Figure 4 measurement.
const Fig4Nodes = 8

// Fig4Datasets are the Figure 4 datasets.
var Fig4Datasets = []string{"delicious3d", "flickr"}

// Fig4Bar is one stacked bar: shuffle bytes per phase for one algorithm on
// one dataset. Bytes are raw measured values of the scaled run;
// FullScaleGB extrapolates by 1/scale for paper comparison.
type Fig4Bar struct {
	Dataset  string
	Algo     Algo
	ByPhase  map[string]float64 // bytes per phase (MTTKRP-n, Other)
	Total    float64
	FullGB   float64 // Total / scale, in GB
	Phases   []string
	IsRemote bool
}

// Fig4Result carries both panels of Figure 4 plus the headline reductions.
type Fig4Result struct {
	Remote []Fig4Bar `json:"remote"`
	Local  []Fig4Bar `json:"local"`
	// RemoteReduction[dataset] = 1 - QCOO/COO remote bytes.
	RemoteReduction map[string]float64 `json:"remote_reduction"`
	LocalReduction  map[string]float64 `json:"local_reduction"`
}

// Fig4 regenerates Figure 4(a-b).
func Fig4(p Params) (*Fig4Result, error) {
	res := &Fig4Result{
		RemoteReduction: map[string]float64{},
		LocalReduction:  map[string]float64{},
	}
	type key struct {
		ds   string
		algo Algo
	}
	remote := map[key]float64{}
	local := map[key]float64{}
	for _, ds := range Fig4Datasets {
		x, err := p.generate(ds)
		if err != nil {
			return nil, err
		}
		for _, algo := range []Algo{AlgoCOO, AlgoQ} {
			stats, err := p.runAlgo(algo, Fig4Nodes, x, 2)
			if err != nil {
				return nil, err
			}
			st := stats[1] // steady-state iteration
			phases := make([]string, 0, len(st.RemByPhase))
			for ph := range st.TimeByPhase {
				phases = append(phases, ph)
			}
			sort.Strings(phases)
			res.Remote = append(res.Remote, Fig4Bar{
				Dataset: ds, Algo: algo, ByPhase: st.RemByPhase,
				Total: st.Remote, FullGB: st.Remote / p.Scale / 1e9,
				Phases: phases, IsRemote: true,
			})
			res.Local = append(res.Local, Fig4Bar{
				Dataset: ds, Algo: algo, ByPhase: st.LocByPhase,
				Total: st.Local, FullGB: st.Local / p.Scale / 1e9,
				Phases: phases,
			})
			remote[key{ds, algo}] = st.Remote
			local[key{ds, algo}] = st.Local
		}
		res.RemoteReduction[ds] = 1 - remote[key{ds, AlgoQ}]/remote[key{ds, AlgoCOO}]
		res.LocalReduction[ds] = 1 - local[key{ds, AlgoQ}]/local[key{ds, AlgoCOO}]
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 5: per-mode MTTKRP runtime for COO, QCOO, BIGtensor on nell1 and
// delicious3d, 4 nodes. Measured over the FIRST iteration, so QCOO's
// mode-1 bar carries the queue-initialization overhead the paper discusses.
// ---------------------------------------------------------------------------

// Fig5Nodes is the cluster size of the Figure 5 measurement.
const Fig5Nodes = 4

// Fig5Datasets are the Figure 5 datasets.
var Fig5Datasets = []string{"nell1", "delicious3d"}

// Fig5Row is the per-mode runtime of one algorithm on one dataset.
type Fig5Row struct {
	Dataset string
	Algo    Algo
	Mode    [3]float64 // modeled seconds for MTTKRP-1..3
}

// Fig5 regenerates Figure 5(a-b).
func Fig5(p Params) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, ds := range Fig5Datasets {
		x, err := p.generate(ds)
		if err != nil {
			return nil, err
		}
		for _, algo := range []Algo{AlgoCOO, AlgoQ, AlgoBig} {
			// Cumulative metrics over solver construction plus one full
			// iteration: construction charges (e.g. QCOO's queue build)
			// land in their phase labels.
			s, c, err := p.newSolver(algo, Fig5Nodes, x)
			if err != nil {
				return nil, err
			}
			for n := 0; n < 3; n++ {
				s.Step(n)
			}
			cum := statsFrom(c.Metrics())
			row := Fig5Row{Dataset: ds, Algo: algo}
			for n := 0; n < 3; n++ {
				row.Mode[n] = cum.TimeByPhase[fmt.Sprintf("MTTKRP-%d", n+1)]
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
