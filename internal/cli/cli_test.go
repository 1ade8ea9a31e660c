package cli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the commands TestInterrupt runs in a child process:
// one busy with work that never looks at ctx, one that waits on it.
func TestMain(m *testing.M) {
	switch os.Getenv("CLI_TEST_COMMAND") {
	case "busy":
		Main("busy", func(_ context.Context, _ []string, stdout, _ io.Writer) error {
			fmt.Fprintln(stdout, "ready")
			time.Sleep(time.Minute)
			return nil
		})
	case "waits":
		Main("waits", func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
			done := ctx.Done()
			fmt.Fprintln(stdout, "ready")
			<-done
			return ctx.Err()
		})
	}
	os.Exit(m.Run())
}

// TestInterrupt sends SIGINT to a command: one that waits on ctx is
// cancelled and exits 2 through Main, one that never looks at ctx keeps
// the signal's default action and dies at once.
func TestInterrupt(t *testing.T) {
	for _, command := range []string{"waits", "busy"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "CLI_TEST_COMMAND="+command)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(stdout).ReadString('\n'); line != "ready\n" {
			cmd.Process.Kill()
			t.Fatalf("%s: read %q, %v", command, line, err)
		}
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s: wait: %v", command, err)
		}
		status := exit.Sys().(syscall.WaitStatus)
		switch command {
		case "waits":
			if status.ExitStatus() != 2 || stderr.String() != "waits: context canceled\n" {
				t.Errorf("waits: exit %d, stderr %q; want 2 and the cancellation", status.ExitStatus(), stderr.String())
			}
		case "busy":
			if !status.Signaled() || status.Signal() != syscall.SIGINT {
				t.Errorf("busy: %v, want killed by SIGINT", err)
			}
		}
	}
}

func TestExitCode(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "")
		return Parse(fs, args)
	}
	_, readErr := os.ReadFile(t.TempDir())
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"-h", parse("-h"), 0},
		{"bad flag", parse("-x"), 2},
		{"bad flag value", parse("-n", "x"), 2},
		{"plain error", errors.New("boom"), 2},
		{"finding", Finding(errors.New("differ")), 1},
		{"wrapped finding", fmt.Errorf("a: %w", Finding(errors.New("differ"))), 1},
		{"found", Found, 1},
		{"malformed input under a check", Check(errors.New("line 3: bad")), 1},
		{"unreadable input under a check", Check(fmt.Errorf("x: %w", readErr)), 2},
		{"nil check", Check(nil), 0},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestReported pins which errors Main leaves unprinted: parse errors the
// FlagSet already printed, and Found.
func TestReported(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, err := range []error{Parse(fs, []string{"-x"}), Found} {
		if !errors.As(err, new(reported)) {
			t.Errorf("%v would be printed again", err)
		}
	}
	for _, err := range []error{errors.New("boom"), Finding(errors.New("differ"))} {
		if errors.As(err, new(reported)) {
			t.Errorf("%v would not be printed", err)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "hello\n" {
		t.Fatalf("file holds %q, %v", data, err)
	}
	boom := errors.New("render failed")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("render error came back as %v", err)
	}
	if err := WriteFile(filepath.Join(path, "x"), func(io.Writer) error { return nil }); err == nil {
		t.Error("creating a file under a file succeeded")
	}
}
