package faults

import (
	"bytes"
	"context"
	"testing"

	"maya/internal/sim"
)

// FuzzParseFaultPlan shakes the fault-plan parser with hostile bytes:
// ParsePlan must either reject them or return a plan whose stragglers
// run on a small job without panicking and never finish it sooner than
// the clean run — a straggler only slows.
func FuzzParseFaultPlan(f *testing.F) {
	seeds := []string{
		`{"stragglers":[{"factor":1e12}]}`, // wrapped the stretch negative
		`{"stragglers":[{"factor":1e308}]}`,
		`{"stragglers":[{"factor":1000},{"factor":1000}]}`,
		`{"stragglers":[{"ranks":[1],"factor":2}]}`,
		`{"stragglers":[{"every_nth":2,"factor":1.5,"from_ns":5000000,"until_ns":20000000}]}`,
		`{"stragglers":[{"ranks":[7],"factor":2}]}`,
		`{"stragglers":[{"factor":0.5}]}`,
		`{"stragglers":[{"factor":-1}]}`,
		`{"stragglers":[{"factor":2,"until_ns":-1}]}`,
		`{"seed":3,"mtbf_ns":1000,"failures":[{"rank":0,"at_ns":1}],"checkpoint_every":1}`,
		`{"resizes":[{"at_iteration":1,"new_world":1}]}`,
		`{"mtfb_ns":1}`, `{}`, `null`, ``, `[`, `{"stragglers":null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	ctx := context.Background()
	j := iterJob(f)
	ann := timing(f, j, iterKernel)
	clean, err := sim.Run(ctx, j, sim.Options{Annotations: ann})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		inj, err := p.Injection(j)
		if err != nil {
			return // a straggler names a rank the job lacks
		}
		r, err := sim.Run(ctx, j, sim.Options{Faults: inj, Annotations: ann})
		if err != nil {
			t.Fatalf("plan %s: %v", data, err)
		}
		if r.Makespan < clean.Makespan {
			t.Fatalf("plan %s: makespan %v below the clean run's %v", data, r.Makespan, clean.Makespan)
		}
	})
}
