package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cstf"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool   // record spans and compute the per-layer metrics
	TraceOut string // where to write the Chrome trace; "" writes none
	Smoke    bool
	WorkDir  string // scratch directory for checkpoints, inside the checkout
}

// runResult is what a run measured and what its built-in checks found.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Problems  []string // output checks that failed
	Notes     []string // sample counts behind the latency metrics
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

// check counts one verified output.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

func (r *runResult) fail(n int, format string, args ...any) {
	if n > 0 {
		r.Failed += n
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// serverCounters are the /statsz fields the benchmark reads.
type serverCounters struct {
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	Shed            uint64 `json:"shed"`
}

func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// phase runs one load phase between two /statsz reads and records its
// counts: failed queries, wrong sampled answers, and (traced) the cache hit
// share and mean batch size the server reports for the phase.
func (r *runResult) phase(name string, s *served, load func() phaseStats) phaseStats {
	var before, after serverCounters
	errBefore := fetchJSON(s.url()+"/statsz", &before)
	ph := load()
	errAfter := fetchJSON(s.url()+"/statsz", &after)
	r.check(errBefore == nil && errAfter == nil, "%s: /statsz: %v %v", name, errBefore, errAfter)

	r.Attempted += ph.Completed + ph.Failed
	r.fail(ph.Failed, "%s: %d queries failed", name, ph.Failed)
	r.fail(s.wrongAnswers(ph.Sampled), "%s: sampled answers differ from a direct model scan", name)
	r.check(len(ph.Sampled) > 0, "%s: no answer was sampled for verification", name)

	if lookups := float64(after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses); lookups > 0 {
		r.set("serve.cache_hit_share."+name, float64(after.CacheHits-before.CacheHits)/lookups)
	}
	if batches := float64(after.Batches - before.Batches); batches > 0 {
		r.set("serve.mean_batch."+name, float64(after.BatchedRequests-before.BatchedRequests)/batches)
	}
	lat := summarize(ph.LatMS)
	note := fmt.Sprintf("%s: %d queries in %.2f s, latency p50 %.3f ms", name, lat.N, ph.Seconds, lat.P50)
	if lat.TailQ > 0 {
		note += fmt.Sprintf(", p%g %.3f ms (the highest percentile with ten samples beyond it)", lat.TailQ*100, lat.TailVal)
	}
	r.Notes = append(r.Notes, note)
	r.Metrics["serve.shed"] += float64(after.Shed - before.Shed)
	r.fail(int(after.Shed-before.Shed), "%s: server shed queries", name)
	return ph
}

// callResult is one set-up and one Decompose call, as a child process
// reports it to the run that started it.
type callResult struct {
	SetupS float64 `json:"setup_s"`
	TrainS float64 `json:"train_s"`
	IterMS float64 `json:"iter_ms"` // median gap between OnIteration callbacks
	Fit    float64 `json:"fit"`
	Iters  int     `json:"iters"`
}

// call sets the workload up and runs its Decompose call once.
func (w workload) call(sz sizes, seed uint64, p int) (*input, *trained, callResult, error) {
	in, setupS, err := w.setup(seed, p)
	if err != nil {
		return nil, nil, callResult{}, err
	}
	tr, err := train(in.x, w.algorithm(), w.rank, sz.iters, seed, p, in.addrs)
	if err != nil {
		in.close()
		return nil, nil, callResult{}, err
	}
	return in, tr, callResult{SetupS: setupS, TrainS: tr.wall, IterMS: median(tr.gapsMS), Fit: tr.dec.Fit(), Iters: tr.dec.Iters}, nil
}

// runCall is the child-process side of execCall: one call, one JSON line.
func runCall(cfg runConfig) (callResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return callResult{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	in, _, cr, err := w.call(w.sizes(cfg.Seconds, false, false), cfg.Seed, loadP())
	in.close()
	return cr, err
}

// runWorkload is one run: set-up and the Decompose call (repeated, see
// workload.calls), the query phases, the output checks, and in a traced run
// the per-layer probes.
func runWorkload(cfg runConfig) (*runResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Smoke {
		w = w.smoke()
	}
	sz := w.sizes(cfg.Seconds, cfg.Smoke, cfg.Trace)
	p := loadP()
	res := &runResult{Metrics: make(map[string]float64)}
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}

	// The operation: set-up and one Decompose call, sz.calls times over.
	// All but the last run in a child process each (see workload.calls);
	// the last runs here, and its model is the one served.
	var calls []callResult
	for c := 1; c < sz.calls; c++ {
		cr, err := execCall(cfg)
		res.check(err == nil, "decompose in a child process: %v", err)
		if err != nil {
			return res, nil
		}
		calls = append(calls, cr)
	}
	in, tr, own, err := w.call(sz, cfg.Seed, p)
	defer in.close()
	res.check(err == nil, "decompose: %v", err)
	if err != nil {
		return res, nil
	}
	calls = append(calls, own)
	var setupS, trainS, iterMS []float64
	for _, cr := range calls {
		res.check(cr.Iters == sz.iters, "decompose ran %d iterations, want %d", cr.Iters, sz.iters)
		res.check(math.Float64bits(cr.Fit) == math.Float64bits(own.Fit), "fit %v of one call differs from %v of another on the same seed", cr.Fit, own.Fit)
		setupS, trainS, iterMS = append(setupS, cr.SetupS), append(trainS, cr.TrainS), append(iterMS, cr.IterMS)
	}
	fit := own.Fit
	res.check(!math.IsNaN(fit) && !math.IsInf(fit, 0) && fit != 0, "fit_final %v is not a nonzero finite number", fit)
	res.set("setup_s", median(setupS))
	res.set("train_s", mean(trainS))
	res.set("iter_ms_p50", mean(iterMS))
	res.set("fit_final", fit)
	res.set("cpals.iter_ms_p75", quantile(sortedCopy(tr.gapsMS), 0.75))

	if w.dist {
		distLayer(res, rec, w, sz, cfg, in, tr, p)
	}
	if w.shadow && cfg.Trace {
		shadowLayer(res, rec, w, sz, cfg, tr, p)
	}
	in.close() // the workers have done their part; the model is served without them

	if err := serveLayers(res, rec, w, sz, cfg, in, tr, p); err != nil {
		return nil, err
	}

	if cfg.Trace {
		arr := streamReadArrayBytes(llcBytes())
		if cfg.Smoke {
			arr = 8 << 20
		}
		res.set("host.stream_read_gbps", streamReadGBps(arr, p))
		res.set("tensor.bytes_per_nnz_computed", float64(entryBytes))
		res.set("trace.overhead_share", traceOverheadShare(rec))
		if cfg.TraceOut != "" {
			if err := writeTraceFile(cfg.TraceOut, rec); err != nil {
				return nil, err
			}
		}
	}
	res.set("peak_rss_mb", peakRSSMB())
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// distLayer checks the distributed solve against Serial on a short
// reference solve of the same input and reads the dist layer's numbers.
func distLayer(res *runResult, rec *recorder, w workload, sz sizes, cfg runConfig, in *input, tr *trained, p int) {
	serial, err := train(in.x, cstf.Serial, w.rank, refIters, cfg.Seed, p, nil)
	res.check(err == nil, "serial reference: %v", err)
	ref, err2 := train(in.x, cstf.Dist, w.rank, refIters, cfg.Seed, p, in.addrs)
	res.check(err2 == nil, "dist reference: %v", err2)
	if err != nil || err2 != nil {
		return
	}
	res.check(sameDecomposition(serial.dec, ref.dec), "dist factors differ from Serial after %d iterations", refIters)
	// The timed run repeats the reference's first iterations exactly.
	same := true
	for i := 0; i < refIters; i++ {
		same = same && math.Float64bits(tr.dec.Fits[i]) == math.Float64bits(serial.dec.Fits[i])
	}
	res.check(same, "timed dist run's first %d fits differ from Serial", refIters)

	m := tr.dec.Metrics
	res.check(m.WorkerDeaths == 0 && !m.DistDegraded, "dist run lost workers (deaths %d, degraded %v)", m.WorkerDeaths, m.DistDegraded)
	if !cfg.Trace {
		return
	}
	const mb = 1e6
	res.set("dist.first_iter_s", tr.first)
	res.set("dist.steady_iter_ms_p50", median(tr.gapsMS))
	res.set("dist.iter_speedup_vs_serial", median(serial.gapsMS)/median(tr.gapsMS))
	res.set("dist.wire_sent_mb", float64(m.WireBytesSent)/mb)
	res.set("dist.wire_recv_mb", float64(m.WireBytesRecv)/mb)
	res.set("dist.wire_shard_mb", float64(m.WireShardBytes)/mb)
	res.set("dist.wire_factor_mb", float64(m.WireFactorBytes)/mb)
	res.set("dist.wire_mb_per_iter", float64(m.WireBytesSent+m.WireBytesRecv-m.WireShardBytes)/mb/float64(sz.iters))
	res.set("dist.delta_frames", float64(m.WireDeltaFrames))
	res.set("dist.worker_deaths", float64(m.WorkerDeaths))
	res.set("dist.task_reassignments", float64(m.TaskReassignments))

	// One span per iteration of the timed run, reconstructed from the
	// OnIteration gaps: the only view of dist a caller has from outside.
	at := time.Duration(0)
	for i, g := range append([]float64{tr.first * 1e3}, tr.gapsMS...) {
		d := time.Duration(g * float64(time.Millisecond))
		rec.add(span{Name: "dist-iteration", Layer: "dist", Start: at, End: at + d, Parent: -1, Run: 500 + i})
		at += d
	}

	t := internalTensor(w.tensor, cfg.Seed)
	codec, err := codecBench(rec, t, w.rank, cfg.Seed)
	res.check(err == nil, "codec: %v", err)
	res.set("dist.codec.shard_encode_ns_per_nnz", codec.shardEncodeNsPerNNZ)
	res.set("dist.codec.shard_decode_ns_per_nnz", codec.shardDecodeNsPerNNZ)
	res.set("dist.codec.factor_encode_mbps", codec.factorEncodeMBps)
	res.set("dist.codec.factor_decode_mbps", codec.factorDecodeMBps)
	rt, err := frameRoundtripUS(rec, 2000)
	res.check(err == nil, "frame round trip: %v", err)
	res.set("dist.frame_roundtrip_us", rt)
}

// Run-id bases of the two shadow solves in the trace.
const (
	runCOO = 100
	runCSF = 300
)

// shadowLayer re-runs the solve as the shadow ALS loop, once per kernel,
// checks it against the public result, and reads the solver layers' times
// out of its spans.
func shadowLayer(res *runResult, rec *recorder, w workload, sz sizes, cfg runConfig, tr *trained, p int) {
	t := internalTensor(w.tensor, cfg.Seed)
	order, nnz := float64(len(t.Dims)), float64(len(t.Entries))

	coo := shadowALS(rec, runCOO, t, w.rank, sz.iters, cfg.Seed, p, false)
	res.check(sameModel(tr.dec, coo.lambda, coo.factors), "shadow ALS (COO) differs from cstf.Decompose")
	csf := shadowALS(rec, runCSF, t, w.rank, sz.iters, cfg.Seed, p, true)
	// The CSF kernel associates the same sums differently: equal to COO
	// only to rounding.
	res.check(math.Abs(csf.fit-coo.fit) <= 1e-6*math.Abs(coo.fit)+1e-12, "shadow ALS fit: CSF %v vs COO %v", csf.fit, coo.fit)

	spans := rec.all()
	// perIter returns the per-iteration time of the named calls in one
	// shadow solve, summed over modes.
	perIter := func(base int, prefix string) []float64 {
		return mapValues(selfByRun(spans, func(s span) bool {
			return s.Run > base && s.Run <= base+sz.iters && strings.HasPrefix(s.Name, prefix)
		}))
	}
	sum := func(v []float64) (s float64) {
		for _, x := range v {
			s += x
		}
		return s
	}

	mttkrp := perIter(runCOO, "mttkrp.")
	iterTotal := sum(perIter(runCOO, "")) // every span of the iterations, the iteration spans' own gaps included
	res.set("tensor.index_build_s", coo.build)
	res.set("tensor.csf_build_s", csf.build)
	res.set("cpals.mttkrp_coo_s", median(mttkrp))
	res.set("cpals.mttkrp_coo_ns_per_nnz", median(mttkrp)/(order*nnz)*1e9)
	for n := range t.Dims {
		res.set(fmt.Sprintf("cpals.mttkrp_coo_s.mode%d", n), median(perIter(runCOO, fmt.Sprintf("mttkrp.mode%d", n))))
	}
	csfMttkrp := perIter(runCSF, "mttkrp.")
	res.set("cpals.mttkrp_csf_s", median(csfMttkrp))
	res.set("cpals.mttkrp_csf_ns_per_nnz", median(csfMttkrp)/(order*nnz)*1e9)
	// Bytes one COO mode pass touches per nonzero, computed from sizes (it
	// ignores cache hits and misses): the entry, its permutation slot, the
	// other modes' factor rows, and the output row read and written.
	bytesPerNNZ := float64(entryBytes) + 4 + (order-1)*float64(w.rank)*8 + 2*float64(w.rank)*8
	res.set("cpals.mttkrp_gbps_computed", order*nnz*bytesPerNNZ/median(mttkrp)/1e9)
	res.set("cpals.mttkrp_share", sum(mttkrp)/iterTotal)
	res.set("cpals.fit_s", median(perIter(runCOO, "fit")))

	rowsolve := perIter(runCOO, "rowsolve")
	var rowFlops float64
	for _, d := range t.Dims {
		rowFlops += 2 * float64(d) * float64(w.rank) * float64(w.rank)
	}
	var laSum float64
	for _, name := range []string{"rowsolve", "gram", "normalize", "pinv"} {
		v := perIter(runCOO, name)
		res.set("la."+name+"_s", median(v))
		laSum += sum(v)
	}
	res.set("la.rowsolve_gflops_computed", rowFlops/median(rowsolve)/1e9)
	res.set("la.share", laSum/iterTotal)

	res.set("cpals.shadow_total_s", coo.wall)
	res.set("cpals.shadow_vs_public", coo.wall/tr.wall)
	// Phase times are the leaf spans; the root's and the iterations' own
	// self time is what the loop spends between calls.
	root := spans[coo.root]
	leaves := sum(mapValues(selfByRun(spans, func(s span) bool {
		return s.Run >= runCOO && s.Run <= runCOO+sz.iters && s.Name != "shadow-als" && s.Name != "iteration"
	})))
	res.set("cpals.shadow_phase_sum_share", leaves/(root.End-root.Start).Seconds())
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// serveLayers serves the trained model over HTTP and runs the query
// phases: the cold closed loop on every workload, the hot one in traced
// runs, and on serve-stream the open-loop update phase beside the stream
// feeder.
func serveLayers(res *runResult, rec *recorder, w workload, sz sizes, cfg runConfig, in *input, tr *trained, p int) error {
	var sv *served
	var st *streamer
	var ckptPath string
	buildStart := time.Now()
	if w.stream {
		if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(cfg.WorkDir, "serve-stream-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckptPath = filepath.Join(dir, "model.ckpt")
		if st, err = newStreamer(in.recsys, tr.dec, cfg.Seed, p, ckptPath); err != nil {
			return err
		}
		if _, err = st.publish(); err != nil {
			return err
		}
		buildStart = time.Now()
		if sv, err = serveCheckpoint(ckptPath); err != nil {
			return err
		}
	} else {
		var err error
		if sv, err = serveDecomposition(tr.dec); err != nil {
			return err
		}
	}
	defer sv.close()
	res.set("serve.model_build_ms", float64(time.Since(buildStart).Nanoseconds())/1e6)

	cold := res.phase("cold", sv, func() phaseStats {
		return closedLoop(sv.url(), p, sz.cold, cfg.Seed^0xC01D, sv.givenRows())
	})
	res.set("qps_cold", cold.qps())
	res.set("query_cold_p50_ms", median(cold.LatMS))
	res.set("query_cold_p99_ms", quantile(sortedCopy(cold.LatMS), 0.99))

	// qps_hot is a per-layer metric (README, "What the first measurements
	// found", 4), so only the traced run spends time on the hot phase. The
	// hot rows are queried once, untimed, so the timed phase reads a full
	// result cache from its first query.
	if cfg.Trace {
		hotRows := min(hotUsers, sv.givenRows())
		res.check(prewarm(sv.url(), p, hotRows) == nil, "hot prewarm failed")
		hot := res.phase("hot", sv, func() phaseStats {
			return closedLoop(sv.url(), p, sz.hot, cfg.Seed^0x0407, hotRows)
		})
		res.set("qps_hot", hot.qps())
	}

	if w.stream {
		updatePhase(res, rec, sz, cfg, sv, st, p)
	}

	if cfg.Trace {
		probes, err := serveProbes(rec, sv, cfg.Seed, sz.probes)
		res.check(err == nil, "serve probes: %v", err)
		scan := median(probes.scanUS)
		res.set("serve.scan_us_p50", scan)
		res.set("serve.scan_ns_per_row", scan*1e3/float64(sv.scannedRows()))
		res.set("serve.server_topk_us_p50", median(probes.serverUS))
		res.set("serve.http_overhead_us_p50", median(probes.httpUS)-median(probes.serverUS))
		if w.stream {
			ck, err := ckptBench(rec, ckptPath)
			res.check(err == nil, "ckpt: %v", err)
			res.set("ckpt.write_ms", ck.writeMS)
			res.set("ckpt.write_mb", ck.mb)
			res.set("ckpt.read_ms", ck.readMS)
		}
	}
	return nil
}

// updatePhase sends open-loop queries at a fixed rate while a feeder
// applies one stream window every windowEvery: ApplyDelta, Publish,
// Reload, then /healthz must report the published version. Freshness lag
// runs from the window's due time to that observation.
func updatePhase(res *runResult, rec *recorder, sz sizes, cfg runConfig, sv *served, st *streamer, p int) {
	var wins []windowOut
	var lagsMS []float64
	var unseen int
	var feedErr error
	var wg sync.WaitGroup
	upd := res.phase("upd", sv, func() phaseStats {
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sz.windows; i++ {
				due := start.Add(time.Duration(i) * sz.windowEvery)
				time.Sleep(time.Until(due))
				wo, err := st.apply(rec, i, sv)
				if err != nil {
					feedErr = err
					return
				}
				var hz struct {
					ModelIter int `json:"model_iter"`
				}
				if err := fetchJSON(sv.url()+"/healthz", &hz); err != nil || hz.ModelIter != wo.version {
					unseen++
				}
				lagsMS = append(lagsMS, float64(time.Since(due).Nanoseconds())/1e6)
				wins = append(wins, wo)
			}
		}()
		ph := openLoop(sv.url(), p, sz.upd, sz.updRate, cfg.Seed^0x0bd, sv.givenRows())
		wg.Wait()
		return ph
	})
	res.Attempted += sz.windows
	res.fail(sz.windows-len(wins), "update feeder stopped after %d of %d windows: %v", len(wins), sz.windows, feedErr)
	res.fail(unseen, "%d published versions were not reported by /healthz", unseen)

	res.set("query_upd_p95_ms", quantile(sortedCopy(upd.LatMS), 0.95))
	res.set("freshness_lag_ms_p50", median(lagsMS))
	res.set("serve.gen_late_ms_p99", quantile(sortedCopy(upd.LateMS), 0.99))
	var apply, publish, reload, touched, events, busyMS float64
	col := func(f func(windowOut) float64) []float64 {
		out := make([]float64, len(wins))
		for i, wo := range wins {
			out[i] = f(wo)
		}
		return out
	}
	apply = median(col(func(wo windowOut) float64 { return wo.applyMS }))
	publish = median(col(func(wo windowOut) float64 { return wo.publishMS }))
	reload = median(col(func(wo windowOut) float64 { return wo.reloadMS }))
	touched = median(col(func(wo windowOut) float64 { return float64(wo.touched) }))
	for _, wo := range wins {
		events += float64(wo.events)
		busyMS += wo.applyMS
	}
	res.set("stream.apply_ms_p50", apply)
	res.set("stream.publish_ms_p50", publish)
	res.set("serve.reload_ms_p50", reload)
	res.set("stream.touched_rows_per_window", touched)
	if busyMS > 0 {
		res.set("stream.events_per_s", events/(busyMS/1e3))
	}
}

// traceOverheadShare is the recorder's own cost as a share of the time the
// root spans cover: spans recorded times the measured cost of recording
// one. The spans sit in the benchmark, outside the program, so this is all
// the tracing there is to pay for; the end-to-end run records none.
func traceOverheadShare(rec *recorder) float64 {
	spans := rec.all()
	var covered time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			covered += s.End - s.Start
		}
	}
	if covered == 0 {
		return 0
	}
	const n = 100_000
	scratch := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("x", "x", -1, 0))
	}
	perSpan := time.Since(t0) / n
	return float64(perSpan*time.Duration(len(spans))) / float64(covered)
}

func writeTraceFile(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, rec.all()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
