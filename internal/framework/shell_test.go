package framework

import (
	"errors"
	"slices"
	"testing"

	"maya/internal/cuda"
	"maya/internal/emulator"
	"maya/internal/hardware"
)

// TestShellLaunchCopiesDims launches through one shell's dims array:
// dims up to its length reach the trace unchanged, a later launch does
// not rewrite an earlier one's, and a longer slice is the rank's
// sticky error, never a truncated launch.
func TestShellLaunchCopiesDims(t *testing.T) {
	em := emulator.New(emulator.Config{World: 1, GPU: hardware.H100(), Host: hardware.EpycHost()})
	s := &shell{dev: em}
	long := make([]int, len(s.dims)+1)
	for i := range long {
		long[i] = i + 1
	}
	s.kernel("fits", long[:len(s.dims)], 0, 0, "fp32")
	s.kernel("short", []int{7}, 0, 0, "fp32")
	if s.err != nil {
		t.Fatalf("launching dims that fit: %v", s.err)
	}
	s.kernel("too_long", long, 0, 0, "fp32")
	if !errors.Is(s.err, cuda.ErrInvalidValue) {
		t.Fatalf("launching %d dims: error %v, want %v", len(long), s.err, cuda.ErrInvalidValue)
	}
	s.kernel("after", []int{1}, 0, 0, "fp32")

	ops := em.Trace().Ops
	if len(ops) != 2 {
		t.Fatalf("%d ops recorded, want the 2 that fit", len(ops))
	}
	for i, want := range [][]int{long[:len(s.dims)], {7}} {
		if got := ops[i].Shape.Dims; !slices.Equal(got, want) {
			t.Errorf("op %d (%s): dims %v, want %v", i, ops[i].Name, got, want)
		}
	}
}
