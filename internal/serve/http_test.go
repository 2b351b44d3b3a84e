package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func testHTTP(t *testing.T) (*httptest.Server, *Server, *Model) {
	t.Helper()
	s, m := testServer(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return ts, s, m
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPPredict(t *testing.T) {
	ts, _, m := testHTTP(t)
	out := getJSON(t, ts.URL+"/predict?index=1,2,3", http.StatusOK)
	want, _ := m.Predict(1, 2, 3)
	if got := out["value"].(float64); got != want {
		t.Fatalf("value %v want %v", got, want)
	}

	// POST JSON body form.
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"index":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out2 map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2["value"].(float64) != want {
		t.Fatalf("POST value %v want %v", out2["value"], want)
	}
}

func TestHTTPTopKAndSimilar(t *testing.T) {
	ts, _, m := testHTTP(t)
	out := getJSON(t, fmt.Sprintf("%s/topk?mode=1&row=3&k=4", ts.URL), http.StatusOK)
	results := out["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("topk returned %d results, want 4", len(results))
	}
	want, _ := m.TopKGiven(1, DefaultGiven(1), 3, 4)
	first := results[0].(map[string]any)
	if int(first["index"].(float64)) != want[0].Index {
		t.Fatalf("topk first index %v want %d", first["index"], want[0].Index)
	}
	if _, ok := out["slice_norm"]; !ok {
		t.Fatal("topk response missing slice_norm")
	}

	out = getJSON(t, fmt.Sprintf("%s/similar?mode=0&row=9&k=3", ts.URL), http.StatusOK)
	if len(out["results"].([]any)) != 3 {
		t.Fatal("similar returned wrong result count")
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	ts, s, _ := testHTTP(t)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" || out["rank"].(float64) != 3 {
		t.Fatalf("healthz: %v", out)
	}
	// Issue a query, then confirm /statsz reflects it.
	getJSON(t, ts.URL+"/topk?mode=0&row=1&k=2", http.StatusOK)
	out = getJSON(t, ts.URL+"/statsz", http.StatusOK)
	if out["topks"].(float64) < 1 {
		t.Fatalf("statsz did not count the topk: %v", out)
	}
	if uint64(out["model_version"].(float64)) != s.Model().Version {
		t.Fatal("statsz model_version mismatch")
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _, _ := testHTTP(t)
	getJSON(t, ts.URL+"/predict", http.StatusBadRequest)                   // no index
	getJSON(t, ts.URL+"/predict?index=1,nope", http.StatusBadRequest)      // unparsable
	getJSON(t, ts.URL+"/predict?index=999999,0,0", http.StatusBadRequest)  // out of range
	getJSON(t, ts.URL+"/topk?mode=0&k=5", http.StatusBadRequest)           // row missing
	getJSON(t, ts.URL+"/topk?mode=77&row=0&k=5", http.StatusBadRequest)    // bad mode
	getJSON(t, ts.URL+"/similar?mode=0&row=-2&k=5", http.StatusBadRequest) // bad row
}

// ?exclude= on GET and "exclude" in a POST body both reach the scan: the
// listed candidate rows disappear from the ranking, and a malformed list
// is a 400.
func TestHTTPTopKExclude(t *testing.T) {
	ts, _, m := testHTTP(t)
	base, err := m.TopKGiven(1, DefaultGiven(1), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	drop := base[0].Index
	url := fmt.Sprintf("%s/topk?mode=1&row=3&k=5&exclude=%d", ts.URL, drop)
	out := getJSON(t, url, http.StatusOK)
	for _, r := range out["results"].([]any) {
		if int(r.(map[string]any)["index"].(float64)) == drop {
			t.Fatalf("excluded row %d served on GET", drop)
		}
	}

	body := fmt.Sprintf(`{"mode":1,"row":3,"k":5,"exclude":[%d]}`, drop)
	resp, err := http.Post(ts.URL+"/topk", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var post map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&post); err != nil {
		t.Fatal(err)
	}
	for _, r := range post["results"].([]any) {
		if int(r.(map[string]any)["index"].(float64)) == drop {
			t.Fatalf("excluded row %d served on POST", drop)
		}
	}

	getJSON(t, ts.URL+"/topk?mode=1&row=3&k=5&exclude=1,x", http.StatusBadRequest)
}

// A reload that lands between a ranked query's execution and its response
// must not relabel the answer: model_version and slice_norm come from the
// snapshot that computed the results. The query is taken off the queue by
// hand, the model is swapped, and only then does an executor answer it
// with the snapshot it had taken before the swap.
func TestRankedResponseNamesAnsweringModel(t *testing.T) {
	m1 := randModel(t, 42, 3, 400, 300, 200)
	m2 := randModel(t, 43, 3, 400, 300, 200)
	s, err := newServer(m1, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?mode=1&row=3&k=4", nil))
	}()
	r := <-s.reqs
	s.Swap(m2)
	e := newExecutor(s)
	defer e.stop()
	e.exec(m1, []*request{r})
	<-done

	var out struct {
		ModelVersion uint64   `json:"model_version"`
		SliceNorm    float64  `json:"slice_norm"`
		Results      []Scored `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.Bytes())
	}
	if out.ModelVersion != m1.Version || m1.Version == m2.Version {
		t.Fatalf("model_version %d, want %d (the answering model; serving %d)", out.ModelVersion, m1.Version, m2.Version)
	}
	if want, _ := m1.SliceNorm(0, 3); out.SliceNorm != want {
		t.Fatalf("slice_norm %v, want the answering model's %v", out.SliceNorm, want)
	}
	want, _ := m1.TopKGiven(1, DefaultGiven(1), 3, 4)
	requireSameScored(t, want, out.Results, "results")
}

// A request's parameters are checked in one fixed order, so a request
// with several invalid ones reports the same one every time: the first in
// the order index, mode, given, row, k, lo, hi, exclude.
func TestParseQueryReportsFirstInvalidInFixedOrder(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/topk?mode=a&row=b&k=c", nil)
	for i := 0; i < 100; i++ {
		if _, err := ParseQuery(r, TopK); err == nil || err.Error() != `invalid mode "a"` {
			t.Fatalf("call %d: error %v, want invalid mode", i, err)
		}
	}
	// Every parameter invalid, listed in reverse: dropping them one by one
	// from the front of the order walks the reported error down the list.
	for first := range queryParams {
		var parts []string
		for i := len(queryParams) - 1; i >= first; i-- {
			parts = append(parts, queryParams[i]+"=x")
		}
		r := httptest.NewRequest(http.MethodGet, "/topk?"+strings.Join(parts, "&"), nil)
		want := fmt.Sprintf("invalid %s %q", queryParams[first], "x")
		if _, err := ParseQuery(r, TopK); err == nil || err.Error() != want {
			t.Fatalf("%v: error %v, want %s", parts, err, want)
		}
	}
}

// A query without a given conditions on DefaultGiven(mode): it answers
// what the explicit query answers and shares its cache entry.
func TestDefaultGivenSharesCacheEntry(t *testing.T) {
	ts, s, m := testHTTP(t)
	implicit := getJSON(t, ts.URL+"/topk?mode=1&row=3&k=4", http.StatusOK)
	explicit := getJSON(t, ts.URL+"/topk?mode=1&given=0&row=3&k=4", http.StatusOK)
	if fmt.Sprint(implicit) != fmt.Sprint(explicit) {
		t.Fatalf("default given answered %v, explicit given %v", implicit, explicit)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache hits %d misses %d, want 1 and 1", st.CacheHits, st.CacheMisses)
	}
	want, _ := m.TopKGiven(1, 0, 3, 4)
	if got := implicit["results"].([]any)[0].(map[string]any)["index"]; int(got.(float64)) != want[0].Index {
		t.Fatalf("first index %v, want %d", got, want[0].Index)
	}
}

// urlParams reads a raw query the way url.Values.Get does: unescaping,
// first occurrence wins, pairs with a semicolon or a bad escape skipped.
func TestURLParamsMatchesURLValues(t *testing.T) {
	for _, raw := range []string{
		"mode=1&row=2&k=3",
		"mode=%31&row=+2&k=3%20",
		"mode=1;x=2&row=3",
		"mode=&mode=4&row=5",
		"mode=%zz&mode=5",
		"a=1&&mode=2&mo%64e=9",
		"mode&row=1=2",
		"index=1,2,3&exclude=4%2C5",
		"",
	} {
		vals, _ := url.ParseQuery(raw)
		got := urlParams(raw)
		for i, name := range queryParams {
			if want := vals.Get(name); got[i] != want {
				t.Errorf("%q: %s = %q, want %q", raw, name, got[i], want)
			}
		}
	}
}
