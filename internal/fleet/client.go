package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cstf/internal/serve"
)

// client is the HTTP client for one serve replica. It speaks the exact
// surface internal/serve's handler exposes (/predict, /topk, /similar,
// /healthz, /statsz, /reloadz) and classifies every failure as either
// retriable on another replica (transport errors, 5xx, shed 429 — the
// replica is unhealthy or momentarily unable) or terminal (4xx — the query
// itself is bad, and every replica would reject it the same way).
type client struct {
	base string
	http *http.Client
}

func newClient(baseURL string, timeout time.Duration, tr *http.Transport) *client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &client{base: baseURL, http: &http.Client{Timeout: timeout, Transport: tr}}
}

// replicaError is a failure reported by (or while reaching) a replica.
type replicaError struct {
	code      int // HTTP status; 0 for transport errors
	msg       string
	retriable bool
}

func (e *replicaError) Error() string {
	if e.code == 0 {
		return e.msg
	}
	return fmt.Sprintf("replica returned %d: %s", e.code, e.msg)
}

// retriableElsewhere reports whether err is worth retrying on a different
// replica (as opposed to a terminal bad request).
func retriableElsewhere(err error) bool {
	var re *replicaError
	if ok := asReplicaError(err, &re); ok {
		return re.retriable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller gave up; no replica can help
	}
	return true // transport-level failures without classification
}

func asReplicaError(err error, out **replicaError) bool {
	for err != nil {
		if re, ok := err.(*replicaError); ok {
			*out = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// do issues one request and decodes the JSON response into out. Non-2xx
// responses become *replicaError with the body's "error" field.
func (c *client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// The caller's own context ending is not a replica failure —
		// surface it undecorated so routers don't fail over on it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &replicaError{msg: err.Error(), retriable: true}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return &replicaError{msg: err.Error(), retriable: true}
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(raw)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &replicaError{
			code: resp.StatusCode,
			msg:  msg,
			// 4xx (other than 429 shed) means the query is invalid
			// everywhere; anything else means THIS replica failed.
			retriable: resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode/100 != 4,
		}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (c *client) predict(ctx context.Context, idx []int) (float64, error) {
	var resp struct {
		Value float64 `json:"value"`
	}
	err := c.do(ctx, http.MethodPost, "/predict", struct {
		Index []int `json:"index"`
	}{idx}, &resp)
	return resp.Value, err
}

// rank posts q, as its own JSON encoding, to the replica's endpoint for
// its kind.
func (c *client) rank(ctx context.Context, q serve.Query) ([]serve.Scored, error) {
	path := "/topk"
	if q.Kind == serve.Similar {
		path = "/similar"
	}
	var resp struct {
		Results []serve.Scored `json:"results"`
	}
	err := c.do(ctx, http.MethodPost, path, q, &resp)
	return resp.Results, err
}

// health is the subset of a replica's /healthz the router acts on.
type health struct {
	Status   string `json:"status"`
	Version  uint64 `json:"version"`
	Draining bool   `json:"draining"`
	Inflight int64  `json:"inflight"`
	Dims     []int  `json:"dims"`
}

func (c *client) health(ctx context.Context) (health, error) {
	var h health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	if err == nil && h.Status != "ok" {
		err = &replicaError{msg: fmt.Sprintf("health status %q", h.Status), retriable: true}
	}
	return h, err
}

func (c *client) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &st)
	return st, err
}

// reload triggers POST /reloadz and returns the replica's new model version.
func (c *client) reload(ctx context.Context) (uint64, error) {
	var resp struct {
		Version uint64 `json:"version"`
	}
	err := c.do(ctx, http.MethodPost, "/reloadz", nil, &resp)
	return resp.Version, err
}
