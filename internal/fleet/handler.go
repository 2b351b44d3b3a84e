package fleet

import (
	"errors"
	"net/http"

	"cstf/internal/serve"
)

// NewHandler is the router's HTTP surface — deliberately the same shape a
// single replica serves (same endpoints, same parse, same error mapping),
// so clients cannot tell one node from a fleet:
//
//	GET/POST /predict, /topk, /similar   as in internal/serve
//	GET      /healthz                    fleet view: live count + per-replica
//	                                     routing stats + reload progress
//	GET      /statsz                     same payload as /healthz
//	POST     /reloadz                    run a rolling reload across the fleet
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		idx, err := serve.ParsePredict(r)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		v, err := rt.Predict(r.Context(), idx...)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"value": v, "index": idx})
	})
	ranked := func(kind serve.Kind) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			q, err := serve.ParseQuery(r, kind)
			if err != nil {
				serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			scored, err := rt.Rank(r.Context(), q)
			if err != nil {
				writeRouteError(w, err)
				return
			}
			serve.WriteJSON(w, http.StatusOK, &routedResponse{K: q.K, Mode: q.Mode, Results: scored, Row: q.Anchor().Row})
		}
	}
	mux.HandleFunc("/topk", ranked(serve.TopK))
	mux.HandleFunc("/similar", ranked(serve.Similar))
	health := func(w http.ResponseWriter, r *http.Request) {
		st := rt.Stats()
		code := http.StatusOK
		status := "ok"
		if st.Live == 0 {
			code, status = http.StatusServiceUnavailable, "no live replicas"
		}
		serve.WriteJSON(w, code, map[string]any{
			"status": status,
			"dims":   rt.Dims(),
			"fleet":  st,
		})
	}
	mux.HandleFunc("/healthz", health)
	mux.HandleFunc("/statsz", health)
	mux.HandleFunc("/reloadz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			serve.WriteJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "reloadz requires POST"})
			return
		}
		if err := rt.RollingReload(r.Context()); err != nil {
			serve.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "fleet": rt.Stats()})
	})
	return mux
}

// routedResponse is the body of a routed /topk or /similar answer, its
// fields in sorted key order.
type routedResponse struct {
	K       int            `json:"k"`
	Mode    int            `json:"mode"`
	Results []serve.Scored `json:"results"`
	Row     int            `json:"row"`
}

// writeRouteError maps routing failures onto the shared error surface:
// replica-reported statuses pass through verbatim, a fleet with no live
// replicas is 503, and anything else falls back to serve's mapping.
func writeRouteError(w http.ResponseWriter, err error) {
	var re *replicaError
	if asReplicaError(err, &re) && re.code != 0 {
		serve.WriteJSON(w, re.code, map[string]string{"error": re.msg})
		return
	}
	if errors.Is(err, ErrNoReplicas) {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	serve.WriteQueryError(w, err)
}
