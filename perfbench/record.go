package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host fingerprints the machine and the code a run measured.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	// Commit is the checked-out commit when the checkout is a git work
	// tree, "none" otherwise; SourceSHA256 identifies the code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// record is one run's full account: the fingerprint, every metric, every
// raw sample and every failed check.
type record struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     int                  `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Started   time.Time            `json:"started"`
	ElapsedS  float64              `json:"elapsed_s"`
	Host      host                 `json:"host"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   []metric             `json:"metrics"`
	Info      []metric             `json:"info,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
}

func newRecord(workload string, seed uint64, trace int, seconds float64, started time.Time, out *outcome) *record {
	return &record{
		Workload:  workload,
		Seed:      seed,
		Trace:     trace,
		Seconds:   seconds,
		Started:   started.UTC(),
		ElapsedS:  time.Since(started).Seconds(),
		Host:      fingerprint(),
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Problems:  out.Problems,
		Metrics:   out.Metrics,
		Info:      out.Info,
		Samples:   out.Samples,
	}
}

// write stores the record as JSON in dir and returns its path.
func (r *record) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		r.Workload, r.Seed, r.Trace, r.Started.Format("20060102T150405.000000000")))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func fingerprint() host {
	return host{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPU:          cpuModel(),
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly, so no git process runs.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root, in path
// order, skipping the benchmark's build directory.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown:" + err.Error()
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown:" + err.Error()
		}
		fmt.Fprintf(h, "%s\n", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown:" + err.Error()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
