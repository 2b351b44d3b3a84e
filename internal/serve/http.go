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
//	GET  /topk?mode=1&row=7&k=10[&given=0][&lo=0&hi=5000]
//	GET  /similar?mode=0&row=7&k=10[&lo=0&hi=5000]
//	GET  /healthz                        liveness + model identity + staleness
//	                                     (version, age_seconds since last reload)
//	GET  /statsz                         serving counters (Stats)
//	POST /reloadz                        reload the configured model path now
//	                                     (404 unless HandlerConfig.ReloadPath)
//
// lo/hi restrict a ranked query to candidate rows [lo, hi) of the queried
// mode — the shard form a fleet router scatter-gathers. The same parse and
// error mapping back both the single-node API and the router (the router
// re-serves this surface one layer up), so the two cannot drift.
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
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) { handleRanked(s, w, r, kindTopK) })
	mux.HandleFunc("/similar", func(w http.ResponseWriter, r *http.Request) { handleRanked(s, w, r, kindSimilar) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealth(s, w, r) })
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, s.Stats()) })
	if hc.ReloadPath != "" {
		mux.HandleFunc("/reloadz", func(w http.ResponseWriter, r *http.Request) { handleReload(s, hc.ReloadPath, w, r) })
	}
	return mux
}

// Query is the merged request shape of every query endpoint, shared with
// the fleet router's HTTP surface.
type Query struct {
	Index []int `json:"index"`
	Mode  *int  `json:"mode"`
	Given *int  `json:"given"`
	Row   *int  `json:"row"`
	K     *int  `json:"k"`
	Lo    *int  `json:"lo"`
	Hi    *int  `json:"hi"`
	// Exclude lists candidate rows of the queried mode to drop from a
	// TopK ranking (?exclude=3,17,42) — the "already seen" filter. Order
	// and duplicates are irrelevant; the server canonicalizes the set.
	Exclude []int `json:"exclude,omitempty"`
}

// queryParams are the URL parameters ParseQuery reads, in checking order.
var queryParams = [...]string{"index", "mode", "given", "row", "k", "lo", "hi", "exclude"}

// ParseQuery decodes a query endpoint request: JSON body if present,
// otherwise URL query parameters, checked in one fixed order — index,
// mode, given, row, k, lo, hi, exclude — so a request with several
// invalid ones always reports the first of them in that order.
func ParseQuery(r *http.Request) (*Query, error) {
	b := &Query{}
	if r.Body != nil && r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
		if err := dec.Decode(b); err != nil {
			return nil, fmt.Errorf("invalid JSON body: %w", err)
		}
		return b, nil
	}
	v := urlParams(r.URL.RawQuery)
	if err := parseIntList(queryParams[0], v[0], &b.Index); err != nil {
		return nil, err
	}
	for i, dst := range [...]**int{&b.Mode, &b.Given, &b.Row, &b.K, &b.Lo, &b.Hi} {
		if s := v[i+1]; s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("invalid %s %q", queryParams[i+1], s)
			}
			*dst = &n
		}
	}
	if err := parseIntList(queryParams[7], v[7], &b.Exclude); err != nil {
		return nil, err
	}
	return b, nil
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

// Range returns the candidate row range of a ranked query: [lo, hi) when
// both bounds are present, (0, -1) — the full mode — otherwise.
func (b *Query) Range() (lo, hi int) {
	if b.Lo != nil && b.Hi != nil {
		return *b.Lo, *b.Hi
	}
	return 0, -1
}

func handlePredict(s *Server, w http.ResponseWriter, r *http.Request) {
	b, err := ParseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(b.Index) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("predict requires index=i,j,..."))
		return
	}
	v, err := s.Predict(r.Context(), b.Index...)
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"value":         v,
		"index":         b.Index,
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

func handleRanked(s *Server, w http.ResponseWriter, r *http.Request, kind reqKind) {
	b, err := ParseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if b.Mode == nil || b.Row == nil {
		writeError(w, http.StatusBadRequest, errors.New("mode and row are required"))
		return
	}
	k := 10
	if b.K != nil {
		k = *b.K
	}
	given := -1
	if b.Given != nil {
		given = *b.Given
	}
	lo, hi := b.Range()
	var scored []Scored
	var m *Model // the snapshot that answered: it labels the response
	switch kind {
	case kindTopK:
		scored, m, err = s.topK(r.Context(), *b.Mode, given, *b.Row, k, lo, hi, b.Exclude)
	case kindSimilar:
		scored, m, err = s.similar(r.Context(), *b.Mode, *b.Row, k, lo, hi)
	}
	if err != nil {
		WriteQueryError(w, err)
		return
	}
	resp := &topKResponse{rankedResponse: rankedResponse{K: k, Mode: *b.Mode, ModelVersion: m.Version, Results: scored, Row: *b.Row}}
	if kind == kindTopK {
		if given == -1 {
			given = DefaultGiven(*b.Mode)
		}
		if sn, err := m.SliceNorm(given, *b.Row); err == nil {
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
		"rank":          m.Rank,
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
