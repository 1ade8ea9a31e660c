package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rtmac/internal/telemetry"
)

// TestAPIDocuments pins every JSON endpoint's wire contract with and without
// its provider: status code, Content-Type, two-space indented body with a
// trailing newline, and the 404 message naming the missing plane.
func TestAPIDocuments(t *testing.T) {
	doc := map[string]any{"b": []int{1, 2}, "a": "x"}
	indented := func(v any) string {
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out) + "\n"
	}
	var gotA, gotB string
	withProviders := func(p *Plane) {
		p.SetLinksProvider(func() any { return doc })
		p.SetRunsProvider(func() any { return doc })
		p.SetHealthProvider(func() any { return doc })
		p.SetAlertsProvider(func() any { return doc })
		p.SetCompareProvider(func(a, b string) any {
			gotA, gotB = a, b
			return doc
		})
	}
	bareHealth := indented(struct {
		Enabled bool                   `json:"enabled"`
		Runtime telemetry.BuildRuntime `json:"runtime"`
	}{Runtime: telemetry.RuntimeInfo()})
	cases := []struct {
		name      string
		path      string
		providers bool
		code      int
		body      string // exact body; "" means the progress snapshot
	}{
		{"progress", "/api/progress", false, http.StatusOK, ""},
		{"links", "/api/links", true, http.StatusOK, indented(doc)},
		{"links-404", "/api/links", false, http.StatusNotFound, "no link board attached (run with journeys enabled)\n"},
		{"runs", "/api/runs", true, http.StatusOK, indented(doc)},
		{"runs-404", "/api/runs", false, http.StatusNotFound, "no run ledger attached (run with -ledger DIR)\n"},
		{"health", "/api/health", true, http.StatusOK, indented(doc)},
		{"health-bare", "/api/health", false, http.StatusOK, bareHealth},
		{"alerts", "/api/alerts", true, http.StatusOK, indented(doc)},
		{"alerts-404", "/api/alerts", false, http.StatusNotFound, "no watch engine attached (run with -watch)\n"},
		{"compare", "/api/compare?a=r1&b=r2", true, http.StatusOK, indented(doc)},
		{"compare-404", "/api/compare", false, http.StatusNotFound, "no run ledger attached (run with -ledger DIR)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlane(nil)
			if tc.providers {
				withProviders(p)
			}
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			code, body := resp.StatusCode, string(raw)
			if code != tc.code {
				t.Fatalf("status %d, want %d (%s)", code, tc.code, body)
			}
			wantType := "application/json"
			if code != http.StatusOK {
				wantType = "text/plain; charset=utf-8"
			}
			if ct := resp.Header.Get("Content-Type"); ct != wantType {
				t.Errorf("Content-Type %q, want %q", ct, wantType)
			}
			want := tc.body
			if want == "" {
				want = indented(p.Tracker.Snapshot())
			}
			if body != want {
				t.Errorf("body\n%s\nwant\n%s", body, want)
			}
		})
	}

	p := NewPlane(nil)
	withProviders(p)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/api/compare"); code != http.StatusOK || gotA != "latest~1" || gotB != "latest" {
		t.Errorf("compare defaults: status %d, refs %q %q", code, gotA, gotB)
	}
	if get(t, srv.URL+"/api/compare?a=r1&b=r2"); gotA != "r1" || gotB != "r2" {
		t.Errorf("compare refs %q %q, want r1 r2", gotA, gotB)
	}
}
