// Package cli is the harness every command under cmd/ runs behind. A
// command is one function, run(ctx, args, stdout, stderr) error, and Main
// turns its error into the exit code all the commands share:
//
//	0  success, or -h
//	1  a finding: a difference, a violation, an alert, an infeasible
//	   vector, malformed input under a check, or a strict-monitor abort
//	2  any other error: usage, a bad flag value, unreadable input or an
//	   unwritable output
//
// Scripts can therefore tell "the tool found something" from "the tool
// could not do its job".
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Main runs a command as the process and exits with its code. A non-nil
// error is printed once to stderr, as "name: err".
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, cancel := context.WithCancel(context.Background())
	err := run(&interruptContext{Context: ctx, cancel: cancel}, os.Args[1:], os.Stdout, os.Stderr)
	cancel()
	if err != nil && !errors.As(err, new(reported)) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}

// interruptContext is cancelled by the first SIGINT or SIGTERM after a
// command has asked for its Done channel; a command that waits on ctx winds
// down and its deferred cleanup runs. Until then, and from the second
// signal on, the signals keep their default action, so a command busy with
// work that never looks at ctx still stops at once.
type interruptContext struct {
	context.Context
	cancel context.CancelFunc
	arm    sync.Once
}

func (c *interruptContext) Done() <-chan struct{} {
	c.arm.Do(func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			select {
			case <-sig:
			case <-c.Context.Done():
			}
			signal.Stop(sig)
			c.cancel()
		}()
	})
	return c.Context.Done()
}

// ExitCode is the exit code Main gives a command's error.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(*finding)):
		return 1
	}
	return 2
}

// finding marks an error as something the command found, not a failure to
// run it.
type finding struct{ err error }

func (f *finding) Error() string { return f.err.Error() }
func (f *finding) Unwrap() error { return f.err }

// Finding marks err as a finding: Main prints it and exits 1.
func Finding(err error) error { return &finding{err} }

// Found is a finding the command's output already reports, such as a diff
// or an alert tally: Main exits 1 and prints nothing more.
var Found error = reported{Finding(errors.New("found"))}

// Check marks err, returned by a check over input the command read, as a
// finding: malformed or violating input is what a check exists to find.
// Failing to read the input at all is an I/O error and stays one.
func Check(err error) error {
	var pe *fs.PathError
	if err == nil || errors.As(err, &pe) {
		return err
	}
	return Finding(err)
}

// reported is an error that needs no printing: Found, or a flag parse error
// the FlagSet has already printed with its usage.
type reported struct{ error }

func (r reported) Unwrap() error { return r.error }

// Parse parses args into fs, whose output should be the command's stderr.
// The FlagSet prints its own errors and usage, so an error comes back marked
// as printed: Main exits 0 for -h (flag.ErrHelp) and 2 for a malformed flag
// without repeating either.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return reported{err}
	}
	return nil
}

// WriteFile creates path, renders into it and closes it, returning the
// first error.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
