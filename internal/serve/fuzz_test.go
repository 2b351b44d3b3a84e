package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// FuzzParseQuery feeds ParseQuery arbitrary URL queries and JSON bodies.
// It must never panic, and every Query it accepts, encoded the way a fleet
// router's client posts it to a replica (json.Marshal), must parse back to
// an equal Query.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []struct {
		similar        bool
		rawQuery, body string
	}{
		{false, "mode=1&row=3&k=4", ""},
		{false, "mode=0&row=7&k=5", ""},
		{true, "mode=0&row=9&k=3", ""},
		{false, "mode=77&row=0&k=5", ""},
		{false, "mode=1&row=3&k=5&exclude=1,x", ""},
		{false, "mode=a&row=b&k=c", ""},
		{false, "mode=1&given=0&row=9999&k=5", ""},
		{false, "mode=0&row=7&k=3&lo=100&hi=200&exclude=3,17", ""},
		{true, "mode=0&row=7&k=3&lo=100", ""},
		{false, "mode=0&given=2,1&row=5,7&k=4", ""},
		{false, "mode=0&row=7&k=3&lo=0&hi=0", ""},
		{false, "mode=%31&row=+2&k=3%20", ""},
		{false, "", `{"mode":1,"given":2,"row":4,"k":3,"exclude":[9,1]}`},
		{false, "", `{"mode":1,"row":3,"k":5,"exclude":[2]}`},
		{true, "", `{"mode":0,"row":[9],"k":3,"lo":0,"hi":50}`},
		{false, "", `{"mode":0,"given":[2,1],"row":[5,7],"k":4}`},
		{true, "", `{"mode":0,"row":9,"k":3,"lo":0,"hi":0}`},
		{false, "", `{"index":[1,2,3]}`},
	} {
		f.Add(seed.similar, seed.rawQuery, seed.body)
	}
	f.Fuzz(func(t *testing.T, similar bool, rawQuery, body string) {
		kind := TopK
		if similar {
			kind = Similar
		}
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.URL.RawQuery = rawQuery
		if body != "" {
			r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		}
		q, err := ParseQuery(r, kind)
		if err != nil {
			return
		}
		enc, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("%+v does not encode: %v", q, err)
		}
		back, err := ParseQuery(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(enc)), kind)
		if err != nil {
			t.Fatalf("%+v encoded as %s does not parse: %v", q, enc, err)
		}
		if !sameQuery(q, back) {
			t.Fatalf("%+v encoded as %s parses as %+v", q, enc, back)
		}
	})
}

// sameQuery reports whether two queries are equal, a nil slice equal to
// an empty one.
func sameQuery(a, b Query) bool {
	return a.Kind == b.Kind && a.Mode == b.Mode && a.Row == b.Row && a.K == b.K &&
		(a.Range == nil) == (b.Range == nil) && (a.Range == nil || *a.Range == *b.Range) &&
		a.Budget == b.Budget && slices.Equal(a.Given, b.Given) && slices.Equal(a.Exclude, b.Exclude)
}
