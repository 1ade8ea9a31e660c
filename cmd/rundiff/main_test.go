package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDetectModeSkipsLeadingWhitespace: the mode probe reads the first
// non-blank line, as the stream readers do.
func TestDetectModeSkipsLeadingWhitespace(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, content, want string }{
		{"events", "\n " + `{"schema":"rtmac.events","schema_version":1}` + "\n", "events"},
		{"journeys", "\r\n\n" + `{"schema":"rtmac.journeys","schema_version":1}` + "\n", "journeys"},
		{"legacy-journeys", "\n" + `{"seq":0,"k":0,"link":0,"cause":"delivered"}` + "\n", "journeys"},
		{"legacy-events", "  \n" + `{"k":0,"t":10,"link":0,"kind":"tx"}` + "\n", "events"},
	} {
		path := filepath.Join(dir, tc.name+".jsonl")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := detectMode(path)
		if err != nil || got != tc.want {
			t.Errorf("%s: detectMode = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}
