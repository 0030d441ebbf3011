package trace

import (
	"slices"
	"testing"
	"time"
)

func annJob(t *testing.T) *Job {
	t.Helper()
	w0 := &Worker{Rank: 0, World: 2}
	w0.Append(Op{Kind: KindKernel, Name: "pre"})
	w0.Append(Op{Kind: KindKernel, Name: "k"})
	w1 := &Worker{Rank: 1, World: 2}
	w1.Append(Op{Kind: KindKernel, Name: "k"})
	w1.Append(Op{Kind: KindMemcpy, Bytes: 64, Shape: &Shape{Bytes: 64, MemKind: "HtoD"}})
	w1.Append(Op{Kind: KindKernel, Name: "post"})
	job, err := NewJob([]*Worker{w0, w1})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestAnnotationsSeedAndSet(t *testing.T) {
	job := annJob(t)
	a := NewAnnotations(job)
	// A new overlay starts at zero.
	if got := a.Table(); len(got) != 5 || slices.ContainsFunc(got, func(d time.Duration) bool { return d != 0 }) {
		t.Fatalf("new overlay = %v, want five zeros", got)
	}
	// Writes land per (worker, position).
	a.Set(1, 0, 42*time.Microsecond)
	if got := a.Dur(1, 0); got != 42*time.Microsecond {
		t.Fatalf("Dur after Set = %v", got)
	}
	if got := a.Dur(0, 1); got != 0 {
		t.Fatalf("neighbor slot contaminated: %v", got)
	}
}

func TestAnnotationsRebindReusesAndReseeds(t *testing.T) {
	job := annJob(t)
	a := NewAnnotations(job)
	a.Set(0, 1, time.Millisecond)
	a.Rebind(job)
	if got := a.Dur(0, 1); got != 0 {
		t.Fatalf("Rebind did not re-seed: %v", got)
	}

	small, err := NewJob([]*Worker{{Rank: 0, World: 1, Ops: []Op{{Kind: KindKernel}}}})
	if err != nil {
		t.Fatal(err)
	}
	a.Set(1, 2, time.Millisecond)
	a.Rebind(small)
	if got := a.Table(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("rebound overlay = %v", got)
	}
}

func TestAnnotationsFillFrom(t *testing.T) {
	job := annJob(t)
	a := NewAnnotations(job)
	durs := []time.Duration{1, 2, 3, 4, 5} // row-major: w0 then w1
	if !a.FillFrom(durs) {
		t.Fatal("FillFrom rejected a matching table")
	}
	want := [][]time.Duration{{1, 2}, {3, 4, 5}}
	for wi, row := range want {
		for i, d := range row {
			if got := a.Dur(wi, i); got != d {
				t.Fatalf("Dur(%d,%d) = %v, want %v", wi, i, got, d)
			}
		}
	}
	// A mismatched table is rejected and the overlay untouched.
	if a.FillFrom(durs[:3]) {
		t.Fatal("FillFrom accepted a short table")
	}
	if got := a.Dur(1, 2); got != 5 {
		t.Fatalf("rejected FillFrom mutated the overlay: %v", got)
	}
	// The table is copied, not aliased.
	durs[0] = 99
	if got := a.Dur(0, 0); got != 1 {
		t.Fatalf("FillFrom aliased the source table: %v", got)
	}
}

func TestAcquireReleaseCycle(t *testing.T) {
	job := annJob(t)
	a := AcquireAnnotations(job)
	a.Set(0, 1, time.Second)
	a.Release()
	b := AcquireAnnotations(job)
	defer b.Release()
	if got := b.Dur(0, 1); got != 0 {
		t.Fatalf("pooled overlay leaked a previous run's value: %v", got)
	}
}
