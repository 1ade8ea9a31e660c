package main

import (
	"context"
	"io"
	"testing"

	"rtmac/internal/cli"
)

// TestExitCodes covers the exit contract up to the point where the gate
// would start building the baseline: 0 for -h, 2 for usage errors. A gated
// regression exits 1; TestDecide covers the decision itself.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"-h", []string{"-h"}, 0},
		{"bad flag", []string{"-nosuch"}, 2},
		{"two refs", []string{"HEAD", "HEAD~1"}, 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
