package fleet

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouterHTTPGoldenBytes pins the exact response bytes — status, the
// content type and body — of a /topk, a /similar, a /topk with a POST body
// and exclude set, and a 400 through the router's NewHandler over three
// in-process replicas. Affinity routing and Shard scatter-gather must
// both produce these bytes.
func TestRouterHTTPGoldenBytes(t *testing.T) {
	path := writeCheckpoint(t, t.TempDir(), 3, 4, 1, 600, 300, 80)
	cases := []struct {
		name, method, target, body string
		want                       string
	}{
		{"topk", http.MethodGet, "/topk?mode=0&row=7&k=5", "", "532425e0e7ed6f80"},
		{"similar", http.MethodGet, "/similar?mode=0&row=9&k=3", "", "d6d8941e578f6c0d"},
		{"topk-post", http.MethodPost, "/topk", `{"mode":1,"given":2,"row":4,"k":3,"exclude":[9,1]}`, "be7cb5729effc389"},
		{"bad-row", http.MethodGet, "/topk?mode=1&given=0&row=9999&k=5", "", "968d6f6af44f4687"},
	}
	for _, shard := range []bool{false, true} {
		_, rt := startFleet(t, path, 3, shard)
		h := NewHandler(rt)
		for _, c := range cases {
			req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			got := fmt.Sprintf("%d %s\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
			hh := fnv.New64a()
			hh.Write([]byte(got))
			if sum := fmt.Sprintf("%016x", hh.Sum64()); sum != c.want {
				t.Errorf("shard=%v %s: response hash %s, want %s; response:\n%s", shard, c.name, sum, c.want, got)
			}
		}
	}
}
