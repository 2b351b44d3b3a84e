package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// HTTP JSON surface. Every endpoint answers GET with query parameters and
// POST with a JSON body (the body wins when both are present):
//
//	GET  /predict?index=3,1,4            {"value": ..., "model_version": ...}
//	GET  /topk?mode=1&row=7&k=10[&given=0][&lo=0&hi=5000][&exclude=3,17]
//	GET  /similar?mode=0&row=7&k=10[&lo=0&hi=5000]
//	GET  /healthz                        liveness + model identity + staleness
//	                                     (version, age_seconds since last reload)
//	GET  /statsz                         serving counters (Stats)
//	POST /reloadz                        reload the configured model path now
//	                                     (404 unless HandlerConfig.ReloadPath)
//
// A ranked request is one Query (ParseQuery): given and row may list
// several coordinates (given=0,2&row=7,1), a missing given conditions on
// DefaultGiven(mode), k defaults to 10, and lo/hi — which come together —
// restrict the candidates to rows [lo, hi) of the queried mode, the shard
// form a fleet router scatter-gathers. The same parse and error mapping
// back both the single-node API and the router (the router re-serves this
// surface one layer up), so the two cannot drift.
//
// Error mapping: bad requests → 400, shed load → 429 with Retry-After,
// deadline exceeded → 504, closed or draining server → 503.

// HandlerConfig tunes the optional admin endpoints of the HTTP surface.
type HandlerConfig struct {
	// ReloadPath, when set, enables POST /reloadz: the server reloads
	// this checkpoint path on demand — how a fleet router triggers each
	// replica's step of a rolling reload without waiting for the watcher.
	ReloadPath string
}

// NewHandler returns the HTTP API for s with no admin endpoints.
func NewHandler(s *Server) http.Handler { return NewHandlerWith(s, HandlerConfig{}) }

// NewHandlerWith returns the HTTP API for s with the configured admin
// endpoints enabled.
func NewHandlerWith(s *Server, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) { handlePredict(s, w, r) })
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) { handleRanked(s, w, r, TopK) })
	mux.HandleFunc("/similar", func(w http.ResponseWriter, r *http.Request) { handleRanked(s, w, r, Similar) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealth(s, w, r) })
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, s.Stats()) })
	if hc.ReloadPath != "" {
		mux.HandleFunc("/reloadz", func(w http.ResponseWriter, r *http.Request) { handleReload(s, hc.ReloadPath, w, r) })
	}
	return mux
}

// params are the raw parameters of a query endpoint request, from the
// JSON body or the URL; nil marks an absent one.
type params struct {
	Index   []int   `json:"index,omitempty"`
	Mode    *int    `json:"mode,omitempty"`
	Given   intList `json:"given,omitempty"`
	Row     intList `json:"row,omitempty"`
	K       *int    `json:"k,omitempty"`
	Lo      *int    `json:"lo,omitempty"`
	Hi      *int    `json:"hi,omitempty"`
	Exclude []int   `json:"exclude,omitempty"`
}

// intList is a parameter that is one integer or a list of them: "row":7
// and "row":[7] are the same.
type intList []int

func (l *intList) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		return json.Unmarshal(b, (*[]int)(l))
	}
	if string(b) == "null" {
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*l = intList{n}
	return nil
}

func (l intList) MarshalJSON() ([]byte, error) {
	if len(l) == 1 {
		return json.Marshal(l[0])
	}
	return json.Marshal([]int(l))
}

// queryParams are the URL parameters decode reads, in checking order.
var queryParams = [...]string{"index", "mode", "given", "row", "k", "lo", "hi", "exclude"}

// decode reads a query endpoint request into p: the JSON body if present,
// otherwise the URL parameters, checked in one fixed order (queryParams),
// so a request with several invalid ones always reports the first.
func (p *params) decode(r *http.Request) error {
	if r.Body != nil && r.ContentLength != 0 {
		var b params // decoded here, not into p, so only a POST moves params to the heap
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
		if err := dec.Decode(&b); err != nil {
			return fmt.Errorf("invalid JSON body: %w", err)
		}
		*p = b
		return nil
	}
	lists := [len(queryParams)]*[]int{0: &p.Index, 2: (*[]int)(&p.Given), 3: (*[]int)(&p.Row), 7: &p.Exclude}
	ints := [len(queryParams)]**int{1: &p.Mode, 4: &p.K, 5: &p.Lo, 6: &p.Hi}
	for i, s := range urlParams(r.URL.RawQuery) {
		if s == "" {
			continue
		}
		if lists[i] != nil {
			if err := parseIntList(queryParams[i], s, lists[i]); err != nil {
				return err
			}
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("invalid %s %q", queryParams[i], s)
		}
		*ints[i] = &n
	}
	return nil
}

// urlParams returns what url.Values.Get would for each of queryParams in a
// raw URL query, without building the map.
func urlParams(raw string) (v [len(queryParams)]string) {
	var seen [len(queryParams)]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, val, _ := strings.Cut(pair, "=")
		key, err1 := url.QueryUnescape(key)
		val, err2 := url.QueryUnescape(val)
		if strings.Contains(pair, ";") || err1 != nil || err2 != nil {
			continue
		}
		if i := slices.Index(queryParams[:], key); i >= 0 && !seen[i] {
			v[i], seen[i] = val, true
		}
	}
	return v
}

// parseIntList appends the comma-separated integers of s to dst.
func parseIntList(name, s string, dst *[]int) error {
	for s != "" {
		var part string
		part, s, _ = strings.Cut(s, ",")
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("invalid %s %q", name, part)
		}
		*dst = append(*dst, i)
	}
	return nil
}

// ParseQuery decodes a /topk (kind TopK) or /similar (kind Similar)
// request into its Query. Parameters that do not fit the endpoint are
// errors that name them, never dropped: lo without hi, given on /similar,
// given and row lists of different lengths. What the model decides —
// ranges, rows, k — is checked when the query runs.
func ParseQuery(r *http.Request, kind Kind) (Query, error) {
	var p params
	if err := p.decode(r); err != nil {
		return Query{}, err
	}
	if p.Mode == nil || len(p.Row) == 0 {
		return Query{}, errors.New("mode and row are required")
	}
	q := Query{Kind: kind, Mode: *p.Mode, K: 10, Exclude: p.Exclude}
	if p.K != nil {
		q.K = *p.K
	}
	switch {
	case p.Lo != nil && p.Hi == nil:
		return Query{}, errors.New("lo needs hi: a candidate range names both ends")
	case p.Hi != nil && p.Lo == nil:
		return Query{}, errors.New("hi needs lo: a candidate range names both ends")
	case p.Lo != nil:
		q.Range = &Range{*p.Lo, *p.Hi}
	}
	switch {
	case kind == Similar && p.Given != nil:
		return Query{}, errors.New("given does not apply to /similar")
	case kind == Similar && len(p.Row) != 1:
		return Query{}, errors.New("row takes one value on /similar")
	case kind == Similar:
		q.Row = p.Row[0]
	case p.Given == nil && len(p.Row) != 1:
		return Query{}, errors.New("row lists several values without a given for each")
	case p.Given == nil:
		q.Given = []Cond{{DefaultGiven(q.Mode), p.Row[0]}}
	case len(p.Given) != len(p.Row):
		return Query{}, fmt.Errorf("given lists %d modes for %d rows", len(p.Given), len(p.Row))
	default:
		q.Given = make([]Cond, len(p.Given))
		for i, g := range p.Given {
			q.Given[i] = Cond{g, p.Row[i]}
		}
	}
	return q, nil
}

// MarshalJSON encodes q as the body of a POST to its endpoint — what a
// fleet router sends a replica — which ParseQuery reads back into an
// equal Query. The endpoint carries the kind; a TopK's Row is not sent,
// and neither is a Budget, which the HTTP surface does not take.
func (q Query) MarshalJSON() ([]byte, error) {
	p := params{Mode: &q.Mode, K: &q.K, Exclude: q.Exclude}
	if q.Range != nil {
		p.Lo, p.Hi = &q.Range.Lo, &q.Range.Hi
	}
	if q.Kind == Similar {
		p.Row = intList{q.Row}
	}
	for _, c := range q.Given {
		p.Given, p.Row = append(p.Given, c.Mode), append(p.Row, c.Row)
	}
	return json.Marshal(&p)
}

// ParsePredict decodes a /predict request into the coordinate to
// reconstruct.
func ParsePredict(r *http.Request) ([]int, error) {
	var p params
	if err := p.decode(r); err != nil {
		return nil, err
	}
	if len(p.Index) == 0 {
		return nil, errors.New("predict requires index=i,j,...")
	}
	return p.Index, nil
}

func handlePredict(s *Server, w http.ResponseWriter, r *http.Request) {
	idx, err := ParsePredict(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.Predict(r.Context(), idx...)
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"value":         v,
		"index":         idx,
		"model_version": s.Model().Version,
	})
}

// rankedResponse is the body of a /topk or /similar answer, its fields in
// sorted key order: the bytes the map it replaced encoded to.
type rankedResponse struct {
	K            int      `json:"k"`
	Mode         int      `json:"mode"`
	ModelVersion uint64   `json:"model_version"`
	Results      []Scored `json:"results"`
	Row          int      `json:"row"`
}

// topKResponse adds the conditioning row's predicted-slice mass (from the
// precomputed cross-mode gram), which lets clients judge score scale.
type topKResponse struct {
	rankedResponse
	SliceNorm float64 `json:"slice_norm"`
}

func handleRanked(s *Server, w http.ResponseWriter, r *http.Request, kind Kind) {
	q, err := ParseQuery(r, kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scored, m, err := s.rank(r.Context(), q) // m, the snapshot that answered, labels the response
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	a := q.Anchor()
	resp := &topKResponse{rankedResponse: rankedResponse{K: q.K, Mode: q.Mode, ModelVersion: m.Version, Results: scored, Row: a.Row}}
	if kind == TopK && len(q.Given) == 1 {
		if sn, err := m.SliceNorm(a.Mode, a.Row); err == nil {
			resp.SliceNorm = sn
			WriteJSON(w, http.StatusOK, resp)
			return
		}
	}
	WriteJSON(w, http.StatusOK, &resp.rankedResponse)
}

func handleHealth(s *Server, w http.ResponseWriter, _ *http.Request) {
	m := s.Model()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"version":       m.Version,
		"model_version": m.Version, // kept for pre-streaming clients
		"model_iter":    m.Iter,
		"age_seconds":   s.ModelAge().Seconds(),
		"rank":          m.Components,
		"dims":          m.Dims,
		"memory_bytes":  m.MemoryBytes(),
		"draining":      s.Draining(),
		"inflight":      s.inflight.Load(),
		"approx":        m.HasApprox() && s.cfg.Approx,
		// Non-zero when the live checkpoint was corrupt and an older
		// retained version is serving in its place.
		"reload_fallbacks": s.reloadFallbacks.Load(),
	})
}

// handleReload answers POST /reloadz: reload the configured checkpoint
// path immediately and report the serving version. A failed reload keeps
// the old model serving and returns 500 with the error.
func handleReload(s *Server, path string, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("reloadz requires POST"))
		return
	}
	if err := s.Reload(path); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": s.Model().Version,
	})
}

// WriteQueryError maps a query error to its HTTP status (shared by the
// single-node API and the fleet router so clients see one error surface).
func WriteQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, err) // client went away (nginx convention)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// jsonBuf is a pooled response buffer with its indenting encoder.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	b.enc.SetIndent("", "  ")
	return b
}}

// WriteJSON writes v as indented JSON with the given status code. A value
// that does not encode gets an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	defer jsonBufs.Put(b)
	b.Reset()
	b.enc.Encode(v) //nolint:errcheck // the status is sent either way
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b.Bytes()) //nolint:errcheck // nothing to do if the client went away
}
