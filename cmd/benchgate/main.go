// Command benchgate is the performance gate: a same-host A/B of perfbench's
// kernel workload between a baseline git ref and the current checkout,
// decided by the run ledger's regression sentinel. It measures nothing
// itself.
//
// Usage:
//
//	benchgate          # baseline HEAD~1: the parent commit, or in CI the
//	                   # base-branch tip of a pull request's merge commit
//	benchgate HEAD     # gate uncommitted work against the last commit
//
// The ref is checked out with `git worktree add --detach` under
// .bench_build/. Then `bash perfbench/run.sh --workload kernel` runs in the
// baseline tree and in the current checkout, 5 times each, alternating which
// tree goes first, and the last line of each run's stdout (perfbench's JSON
// result) is kept. Each side's values of an end-to-end metric become one
// ledger point with one replication per run, and ledger.Diff compares them
// with Welch's t-test at 95% confidence. A gated metric (intervals_per_s
// and wall_s, directions from BENCHMARK.json) regresses when the sentinel
// flags it and the change's median is more than 10% worse than the
// baseline's. The other end-to-end metrics are printed, not gated.
//
// Exit codes: 0 pass; 1 a gated regression, or the change's perfbench
// reporting correct: false; 2 usage, git or I/O error, or the baseline
// reporting correct: false.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"rtmac/internal/cli"
)

// The gate's fixed parameters. N runs per side and the per-run timed
// seconds are sized so the whole gate takes a few minutes on two cores.
const (
	runsPerSide = 5
	runSeconds  = "5"
)

func main() { cli.Main("benchgate", run) }

// run gates the current checkout against the ref in args; cancelling ctx
// stops the perfbench run in progress, and the baseline worktree is removed
// either way.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: benchgate [REF] (default HEAD~1)") }
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	ref := "HEAD~1"
	switch fs.NArg() {
	case 0:
	case 1:
		ref = fs.Arg(0)
	default:
		return fmt.Errorf("usage: benchgate [REF] (default HEAD~1)")
	}
	top, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	metrics, err := loadMetrics(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	commit, err := git(top, "rev-parse", "--short", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	baseDir, cleanup, err := checkout(top, commit)
	if err != nil {
		return err
	}
	defer cleanup(stderr)
	if _, err := os.Stat(filepath.Join(baseDir, "perfbench", "run.sh")); err != nil {
		return fmt.Errorf("baseline %s has no perfbench: %w", ref, err)
	}

	fmt.Fprintf(stdout, "benchgate: baseline %s (%s) against the current checkout, %d perfbench kernel runs each (--seconds %s)\n",
		ref, commit, runsPerSide, runSeconds)
	var base, change []result
	for i := 0; i < runsPerSide; i++ {
		sides := []struct {
			name, dir string
			into      *[]result
		}{{"baseline", baseDir, &base}, {"change", top, &change}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			r, err := perfbench(ctx, s.dir, stderr)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, i+1, err)
			}
			*s.into = append(*s.into, r)
			fmt.Fprintf(stdout, "run %d %-8s correct=%t", i+1, s.name, r.Correct)
			for _, m := range metrics {
				if m.gated {
					fmt.Fprintf(stdout, " %s=%.6g", m.name, r.Metrics[m.name].Value)
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	regressed, err := decide(stdout, base, change, metrics)
	if err != nil {
		return err
	}
	if regressed {
		fmt.Fprintln(stdout, "benchgate: FAIL")
		return cli.Found
	}
	fmt.Fprintln(stdout, "benchgate: pass")
	return nil
}

// perfbench runs one timed kernel pass in dir and parses its result line.
// perfbench's own table goes nowhere; its stderr passes through.
func perfbench(ctx context.Context, dir string, stderr io.Writer) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh", "--workload", "kernel", "--seconds", runSeconds)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("perfbench in %s: %w", dir, err)
	}
	return parseResult(out)
}

// checkout adds a detached worktree of commit under top/.bench_build and
// returns its path and the function that removes it again.
func checkout(top, commit string) (string, func(io.Writer), error) {
	build := filepath.Join(top, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(build, "benchgate-")
	if err != nil {
		return "", nil, err
	}
	if _, err := git(top, "worktree", "add", "--quiet", "--detach", dir, commit); err != nil {
		os.Remove(dir)
		return "", nil, err
	}
	cleanup := func(stderr io.Writer) {
		if _, err := git(top, "worktree", "remove", "--force", dir); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
		}
	}
	return dir, cleanup, nil
}

// git runs one git command in dir and returns its trimmed stdout.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
