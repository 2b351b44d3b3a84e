package main

// layers.go is the benchmark's whole contact surface with the repository's
// internal packages: every call into cstf/internal/... is in this file (the
// list is in README.md, "Measured surface"). A change that renames or
// removes one of these symbols edits this file, in a benchmark change of
// its own, before it edits the program.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"sync"
	"time"
	"unsafe"

	"cstf"
	"cstf/internal/ckpt"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/la"
	"cstf/internal/serve"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

// entryBytes is the in-memory size of one stored nonzero.
const entryBytes = int(unsafe.Sizeof(tensor.Entry{}))

// ---- inputs ----------------------------------------------------------

// internalTensor generates the training tensor of a workload a second
// time, as the internal COO type the layer calls take. The generators are
// pure functions of their arguments, so this is the same tensor the public
// constructor returned.
func internalTensor(s tensorSpec, seed uint64) *tensor.COO {
	if s.zipfTheta > 0 {
		return tensor.GenZipf(seed, s.nnz, s.zipfTheta, s.dims...)
	}
	return tensor.GenLowRank(seed, s.nnz, s.plantedRank, s.noise, s.dims...)
}

// recsysInput is the serve-stream input: a recommender tensor split into
// the resident part the model is trained on and the stream windows applied
// while it is served.
type recsysInput struct {
	base    *tensor.COO
	public  *cstf.Tensor // base again, as the public type Decompose takes
	windows [][]tensor.Entry
}

// genRecsysStream generates the tensor and holds back every k-th nonzero,
// dealing the held-back events round-robin into the windows so that each
// window touches users from the whole range, as arrivals would.
func genRecsysStream(s recsysSpec, seed uint64) recsysInput {
	full := tensor.GenRecsys(seed, s.nnz, s.users, s.items, s.contexts, s.groups, s.noise)
	held := s.windows * s.perWindow
	k := max(full.NNZ()/held, 2)
	in := recsysInput{base: tensor.New(full.Dims...), windows: make([][]tensor.Entry, s.windows)}
	in.base.Entries = make([]tensor.Entry, 0, full.NNZ())
	taken := 0
	for i, e := range full.Entries {
		if (i+1)%k == 0 && taken < held {
			w := taken % s.windows
			in.windows[w] = append(in.windows[w], e)
			taken++
			continue
		}
		in.base.Entries = append(in.base.Entries, e)
	}
	in.public = cstf.NewTensor(full.Dims...)
	for i := range in.base.Entries {
		e := &in.base.Entries[i]
		in.public.Append(e.Val, int(e.Idx[0]), int(e.Idx[1]), int(e.Idx[2]))
	}
	return in
}

// denseOf copies a public factor matrix into the internal dense type.
func denseOf(m *cstf.Matrix) *la.Dense {
	d := la.NewDense(m.Rows(), m.Cols())
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] = m.At(i, j)
		}
	}
	return d
}

// sameModel reports whether a public decomposition equals lambda and
// factors bit for bit.
func sameModel(dec *cstf.Decomposition, lambda []float64, factors []*la.Dense) bool {
	if len(dec.Lambda) != len(lambda) || len(dec.Factors) != len(factors) {
		return false
	}
	for r, v := range lambda {
		if math.Float64bits(v) != math.Float64bits(dec.Lambda[r]) {
			return false
		}
	}
	for n, f := range factors {
		m := dec.Factors[n]
		if m.Rows() != f.Rows || m.Cols() != f.Cols {
			return false
		}
		for i := 0; i < f.Rows; i++ {
			for j, v := range f.Row(i) {
				if math.Float64bits(v) != math.Float64bits(m.At(i, j)) {
					return false
				}
			}
		}
	}
	return true
}

// sameDecomposition compares two public decompositions bit for bit.
func sameDecomposition(a, b *cstf.Decomposition) bool {
	factors := make([]*la.Dense, len(b.Factors))
	for n, m := range b.Factors {
		factors[n] = denseOf(m)
	}
	return sameModel(a, b.Lambda, factors)
}

// ---- shadow ALS ------------------------------------------------------

// shadowOut is one run of the shadow ALS loop.
type shadowOut struct {
	lambda  []float64
	factors []*la.Dense
	fit     float64
	wall    float64 // seconds, the whole solve
	build   float64 // seconds, mode-index build (COO) or CSF build
	root    int     // id of the span covering the solve
}

// shadowALS is CP-ALS written out of the exported calls cpals.Solve itself
// makes, in the same order, with one span per call. Run ids are
// runBase+1+iteration; set-up spans use runBase.
func shadowALS(rec *recorder, runBase int, t *tensor.COO, rank, iters int, seed uint64, w int, useCSF bool) shadowOut {
	order := t.Order()
	start := time.Now()
	root := rec.begin("shadow-als", "bench", -1, runBase)
	timed := func(name, layer string, parent, run int, fn func()) float64 {
		id := rec.begin(name, layer, parent, run)
		t0 := time.Now()
		fn()
		rec.end(id)
		return time.Since(t0).Seconds()
	}

	factors := make([]*la.Dense, order)
	grams := make([]*la.Dense, order)
	timed("init", "cpals", root, runBase, func() {
		for n := 0; n < order; n++ {
			factors[n] = cpals.InitFactor(seed, n, t.Dims[n], rank)
		}
	})
	timed("gram", "la", root, runBase, func() {
		for n := 0; n < order; n++ {
			grams[n] = la.GramParallel(factors[n], w)
		}
	})
	var normX float64
	timed("norm", "tensor", root, runBase, func() { normX = t.Norm() })

	out := shadowOut{root: root}
	var csfs []*tensor.CSF
	if useCSF {
		out.build = timed("csf_build", "tensor", root, runBase, func() { csfs = cpals.BuildCSFs(t) })
	} else {
		out.build = timed("index_build", "tensor", root, runBase, func() {
			for n := 0; n < order; n++ {
				t.ModeIndex(n)
			}
		})
	}

	ws := &cpals.Workspace{}
	var lambda []float64
	var lastM *la.Dense
	for it := 0; it < iters; it++ {
		run := runBase + 1 + it
		iter := rec.begin("iteration", "bench", root, run)
		for n := 0; n < order; n++ {
			var m, pinv *la.Dense
			timed(fmt.Sprintf("mttkrp.mode%d", n), "cpals", iter, run, func() {
				if useCSF {
					m = cpals.MTTKRPCSFWorkers(csfs[n], factors, w)
				} else {
					m = cpals.MTTKRPWorkers(t, n, factors, w, ws.Out(n, t.Dims[n], rank, w), ws)
				}
			})
			timed("pinv", "la", iter, run, func() {
				pinv = la.Pinv(cpals.HadamardOfGramsExcept(grams, n))
			})
			a := factors[n]
			timed("rowsolve", "la", iter, run, func() {
				la.RowBlocksApply(w, a.Rows, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						la.VecMatInto(a.Row(i), m.Row(i), pinv)
					}
				})
			})
			timed("normalize", "la", iter, run, func() { lambda = la.NormalizeColumnsParallel(a, w) })
			timed("gram", "la", iter, run, func() { grams[n] = la.GramParallel(a, w) })
			lastM = m
		}
		timed("fit", "cpals", iter, run, func() {
			out.fit = cpals.FitFromWorkers(normX, lastM, factors[order-1], lambda, grams, w)
		})
		rec.end(iter)
	}
	rec.end(root)
	out.wall = time.Since(start).Seconds()
	out.lambda, out.factors = lambda, factors
	return out
}

// ---- dist ------------------------------------------------------------

// startWorkers launches p in-process dist workers on loopback TCP.
func startWorkers(p int) (addrs []string, stop func(), err error) {
	lc, err := dist.StartInProcess(p)
	if err != nil {
		return nil, nil, err
	}
	return lc.Addrs, lc.Close, nil
}

// codecOut is the wire-codec microbenchmark of the dist layer.
type codecOut struct {
	shardEncodeNsPerNNZ, shardDecodeNsPerNNZ float64
	factorEncodeMBps, factorDecodeMBps       float64
}

// bestOf runs fn three times and returns the shortest duration.
func bestOf(fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}

// codecBench encodes and decodes the whole tensor as one mode-0 shard and
// one mode-0 factor matrix, the two payloads that dominate the wire.
func codecBench(rec *recorder, t *tensor.COO, rank int, seed uint64) (codecOut, error) {
	id := rec.begin("codec", "dist", -1, 0)
	defer rec.end(id)
	mi := t.ModeIndex(0)
	sh := &dist.Shard{Mode: 0, Order: t.Order(), RowLo: 0, RowHi: t.Dims[0], Entries: make([]tensor.Entry, len(mi.Perm))}
	for i, p := range mi.Perm {
		sh.Entries[i] = t.Entries[p]
	}
	var out codecOut
	var buf []byte
	nnz := float64(len(sh.Entries))
	out.shardEncodeNsPerNNZ = float64(bestOf(func() { buf = dist.EncodeShard(sh) }).Nanoseconds()) / nnz
	var derr error
	out.shardDecodeNsPerNNZ = float64(bestOf(func() {
		if _, err := dist.DecodeShard(buf); err != nil {
			derr = err
		}
	}).Nanoseconds()) / nnz
	if derr != nil {
		return out, fmt.Errorf("shard round trip: %w", derr)
	}

	f := &dist.Factor{Mode: 0, M: cpals.InitFactor(seed, 0, t.Dims[0], rank)}
	mb := float64(len(f.M.Data)*8) / 1e6
	out.factorEncodeMBps = mb / bestOf(func() { buf = dist.EncodeFactor(f) }).Seconds()
	out.factorDecodeMBps = mb / bestOf(func() {
		if _, err := dist.DecodeFactor(buf); err != nil {
			derr = err
		}
	}).Seconds()
	if derr != nil {
		return out, fmt.Errorf("factor round trip: %w", derr)
	}
	return out, nil
}

// frameRoundtripUS is the median time of one small frame written and its
// echo read back over loopback TCP with dist.WriteFrame/ReadFrame.
func frameRoundtripUS(rec *recorder, n int) (float64, error) {
	id := rec.begin("frame_roundtrip", "dist", -1, 0)
	defer rec.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			_, payload, err := dist.ReadFrame(c)
			if err != nil {
				return
			}
			if dist.WriteFrame(c, dist.MsgPong, payload) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 64)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := dist.WriteFrame(c, dist.MsgPing, payload); err != nil {
			c.Close()
			return 0, err
		}
		if _, _, err := dist.ReadFrame(c); err != nil {
			c.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	c.Close()
	<-echoed
	return median(us), nil
}

// ---- serve -----------------------------------------------------------

// served is a model server behind the repository's HTTP handler on a
// loopback listener, plus every model version it has served, so a reply
// can be checked against a direct scan of the version it reports.
type served struct {
	srv *serve.Server
	ts  *httptest.Server

	mu     sync.Mutex
	models map[uint64]*serve.Model
}

func newServed(srv *serve.Server) *served {
	s := &served{srv: srv, models: make(map[uint64]*serve.Model)}
	s.ts = httptest.NewServer(serve.NewHandler(srv))
	s.remember()
	return s
}

// serveDecomposition serves a freshly trained model through the public
// Decomposition.Server with default options.
func serveDecomposition(dec *cstf.Decomposition) (*served, error) {
	srv, err := dec.Server(cstf.ServeOptions{})
	if err != nil {
		return nil, err
	}
	return newServed(srv), nil
}

// serveCheckpoint loads a published checkpoint and serves it with the
// default configuration.
func serveCheckpoint(path string) (*served, error) {
	m, err := serve.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(m, serve.Config{})
	if err != nil {
		return nil, err
	}
	return newServed(srv), nil
}

func (s *served) url() string { return s.ts.URL }

// givenRows is the size of the mode the queries condition on.
func (s *served) givenRows() int { return s.srv.Dims()[queryGiven] }

// scannedRows is the size of the mode one query scans.
func (s *served) scannedRows() int { return s.srv.Dims()[queryMode] }

func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
}

// remember records the model now serving under its version.
func (s *served) remember() {
	m := s.srv.Model()
	s.mu.Lock()
	s.models[m.Version] = m
	s.mu.Unlock()
}

// reload swaps in the checkpoint at path and records the new version.
func (s *served) reload(path string) error {
	if err := s.srv.Reload(path); err != nil {
		return err
	}
	s.remember()
	return nil
}

// matches reports whether a sampled reply equals a direct scan of model
// version v.
func (s *served) matches(a answer, v uint64) bool {
	s.mu.Lock()
	m := s.models[v]
	s.mu.Unlock()
	if m == nil {
		return false
	}
	want, err := m.TopKGiven(queryMode, queryGiven, a.Row, queryK)
	if err != nil || len(want) != len(a.Results) {
		return false
	}
	for i, w := range want {
		if w.Index != a.Results[i].Index || math.Float64bits(w.Score) != math.Float64bits(a.Results[i].Score) {
			return false
		}
	}
	return true
}

// wrongAnswers counts sampled replies that equal a direct scan neither of
// the version they report nor of the one before it. The handler reads the
// version label after the scan, so a reply computed just before a reload
// may carry the next version's label; that reply is still a right answer
// of a version that was serving.
func (s *served) wrongAnswers(as []answer) int {
	wrong := 0
	for _, a := range as {
		if !s.matches(a, a.Version) && !s.matches(a, a.Version-1) {
			wrong++
		}
	}
	return wrong
}

// probeOut is the traced, single-caller view of the read path.
type probeOut struct {
	scanUS, serverUS, httpUS []float64
}

// serveProbes times n queries each way: a direct Model scan, the in-process
// Server.TopK (queue, linger, scan), and the same query over HTTP.
func serveProbes(rec *recorder, s *served, seed uint64, n int) (probeOut, error) {
	var out probeOut
	rng := splitmix(seed ^ 0x5CA7)
	m := s.srv.Model()
	rows := s.givenRows()
	hc := newClient()
	defer hc.CloseIdleConnections()
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	for i := 0; i < n; i++ {
		run := 2000 + i
		root := rec.begin("query", "bench", -1, run)
		row := int(rng.next() % uint64(rows))

		id := rec.begin("model_scan", "serve", root, run)
		t0 := time.Now()
		_, err := m.TopKGiven(queryMode, queryGiven, row, queryK)
		out.scanUS = append(out.scanUS, us(t0))
		rec.end(id)
		if err != nil {
			return out, err
		}

		// A fresh row each: the result cache must not answer a probe.
		row = int(rng.next() % uint64(rows))
		id = rec.begin("server_topk", "serve", root, run)
		t0 = time.Now()
		_, err = s.srv.TopK(context.Background(), queryMode, queryGiven, row, queryK)
		out.serverUS = append(out.serverUS, us(t0))
		rec.end(id)
		if err != nil {
			return out, err
		}

		row = int(rng.next() % uint64(rows))
		id = rec.begin("http_topk", "serve", root, run)
		t0 = time.Now()
		_, err = queryOnce(hc, s.url(), row, false)
		out.httpUS = append(out.httpUS, us(t0))
		rec.end(id)
		rec.end(root)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ---- stream + ckpt ---------------------------------------------------

// streamer owns the write path beside the served model: the incremental
// updater, the checkpoint publisher and the held-back windows.
type streamer struct {
	up      *stream.Updater
	pub     *stream.Publisher
	windows [][]tensor.Entry
	fit     float64 // recorded in each published checkpoint
}

func newStreamer(in recsysInput, dec *cstf.Decomposition, seed uint64, p int, path string) (*streamer, error) {
	factors := make([]*la.Dense, len(dec.Factors))
	for n, m := range dec.Factors {
		factors[n] = denseOf(m)
	}
	up, err := stream.NewUpdater(in.base, dec.Lambda, factors, seed, p)
	if err != nil {
		return nil, err
	}
	return &streamer{up: up, pub: stream.NewPublisher(path, seed), windows: in.windows, fit: dec.Fit()}, nil
}

// publish writes the updater's current model as the next version.
func (st *streamer) publish() (int, error) { return st.pub.Publish(st.up, st.fit) }

// windowOut is one applied stream window.
type windowOut struct {
	applyMS, publishMS, reloadMS float64
	touched, events, version     int
}

// apply runs one window down the write path: ApplyDelta, Publish, Reload.
func (st *streamer) apply(rec *recorder, i int, s *served) (windowOut, error) {
	run := 1000 + i
	root := rec.begin("window", "bench", -1, run)
	defer rec.end(root)
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
	var out windowOut

	id := rec.begin("apply_delta", "stream", root, run)
	t0 := time.Now()
	us, err := st.up.ApplyDelta(st.windows[i])
	out.applyMS = ms(t0)
	rec.end(id)
	if err != nil {
		return out, err
	}
	out.touched, out.events = us.TouchedRows, us.Events

	id = rec.begin("publish", "stream", root, run)
	t0 = time.Now()
	out.version, err = st.publish()
	out.publishMS = ms(t0)
	rec.end(id)
	if err != nil {
		return out, err
	}

	id = rec.begin("reload", "serve", root, run)
	t0 = time.Now()
	err = s.reload(st.pub.Path())
	out.reloadMS = ms(t0)
	rec.end(id)
	return out, err
}

// ckptOut is the checkpoint I/O microbenchmark.
type ckptOut struct{ writeMS, readMS, mb float64 }

// ckptBench reads the published checkpoint and writes it back beside
// itself, the two halves of every publish/reload.
func ckptBench(rec *recorder, path string) (ckptOut, error) {
	id := rec.begin("ckpt", "ckpt", -1, 0)
	defer rec.end(id)
	var out ckptOut
	var f *ckpt.File
	var err error
	out.readMS = float64(bestOf(func() {
		if file, e := ckpt.Read(path); e != nil {
			err = e
		} else {
			f = file
		}
	}).Nanoseconds()) / 1e6
	if err != nil {
		return out, err
	}
	scratch := path + ".bench"
	defer os.Remove(scratch)
	out.writeMS = float64(bestOf(func() {
		if e := ckpt.Write(scratch, f); e != nil {
			err = e
		}
	}).Nanoseconds()) / 1e6
	if err != nil {
		return out, err
	}
	st, err := os.Stat(scratch)
	if err != nil {
		return out, err
	}
	out.mb = float64(st.Size()) / 1e6
	return out, nil
}
