package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"maya"
)

// FuzzPredictSpec feeds the predict endpoint's decoding path hostile
// bodies: parsePredictBody, then PredictSpec.build against a fixed
// 8-GPU cluster, then the request deadline. Whatever arrives, nothing
// may panic, every rejection is an error with nothing else returned,
// an accepted spec builds a workload of the cluster's world size, and
// the deadline is positive and clamped to the server maximum. Seeds
// are the spec test cases; none of this emulates anything.
func FuzzPredictSpec(f *testing.F) {
	good := smallSpec()
	wrongCluster := good
	wrongCluster.Cluster = "64xH100"
	specs := []PredictSpec{
		good,
		{},
		{Model: "gpt3-1.3b"},
		{Model: "gpt3-1.3b", GlobalBatch: 16, Annotation: "psychic"},
		{Model: "gpt3-1.3b", GlobalBatch: 16, DType: "fp64"},
		wrongCluster,
		{Model: "no-such-model", GlobalBatch: 16},
		{Model: "gpt3-18.4b", GlobalBatch: 64, TP: 4, PP: 2, MicroBatches: 8, VirtualStages: 2,
			SeqParallel: true, ActRecompute: true, DistOptimizer: true, Annotation: annNetsim, DType: "FP16", Seed: 3},
		{Model: "gpt3-1.3b", GlobalBatch: 16, TP: 1 << 32, PP: 1 << 32},
		{Model: "gpt3-1.3b", GlobalBatch: 16, PP: 2, VirtualStages: 1 << 62},
		{Model: "gpt3-1.3b", GlobalBatch: 1 << 62, MicroBatches: 1 << 62},
		{Model: "gpt3-1.3b", GlobalBatch: 1 << 30, PP: 2, MicroBatches: 1 << 27},
		{Model: "gpt3-1.3b", GlobalBatch: 16, DeadlineMS: 1 << 62},
		{Model: "gpt3-1.3b", GlobalBatch: 16, DeadlineMS: 9_223_372_036_855},
		{Model: "gpt3-1.3b", GlobalBatch: 16, DeadlineMS: -1},
	}
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	batch, err := json.Marshal(batchEnvelope{Requests: specs})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add([]byte(`{"requests": []}`))
	f.Add([]byte(`{"requests": null, "model": "gpt3-1.3b", "global_batch": 16}`))
	f.Add([]byte(`[{"model": "gpt3-1.3b"}]`))
	f.Add([]byte(`{"model": "gpt3-1.3b", "global_batch": 1e400}`))
	f.Add([]byte("not json"))

	cluster := maya.DGXV100(1)
	srv := &Server{cfg: Config{DefaultDeadline: 30 * time.Second, MaxDeadline: 2 * time.Minute}}
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, _, err := parsePredictBody(body)
		if err != nil {
			if specs != nil {
				t.Fatalf("rejected body returned specs: %v", err)
			}
			return
		}
		for i := range specs {
			w, opts, err := specs[i].build(cluster)
			if err != nil {
				if w != nil || opts != nil {
					t.Fatalf("spec %d: rejected spec built something: %v", i, err)
				}
				continue
			}
			if w == nil || w.World() != cluster.TotalGPUs() {
				t.Fatalf("spec %d: built %v, want a %d-rank workload", i, w, cluster.TotalGPUs())
			}
			specs[i].predictKey(cluster, w)
			specs[i].captureKey(cluster, w)
		}
		start := time.Now()
		ctx, cancel := srv.requestCtx(httptest.NewRequest("POST", "/v1/predict", nil), specs)
		defer cancel()
		deadline, ok := ctx.Deadline()
		if d := deadline.Sub(start); !ok || d <= 0 || d > srv.cfg.MaxDeadline+time.Second {
			t.Fatalf("request deadline %v away, want within (0, %v]", d, srv.cfg.MaxDeadline)
		}
	})
}

// FuzzReadChaosPlan feeds the chaos-plan reader hostile files.
// Whatever arrives, ReadChaosPlan must not panic and must reject with
// an error and no plan. An accepted plan must validate again, survive
// a JSON round trip unchanged, and resolve effects for any target,
// time and call without panicking, every latency it injects the
// duration the plan asked for. Seeds are the chaos test cases.
func FuzzReadChaosPlan(f *testing.F) {
	plans := []ChaosPlan{
		{Events: []ChaosEvent{{Kind: "meteor"}}},
		{Events: []ChaosEvent{{Kind: ChaosError, Target: "billing"}}},
		{Events: []ChaosEvent{{Kind: ChaosError, FromMS: -1}}},
		{Events: []ChaosEvent{{Kind: ChaosError, FromMS: 100, UntilMS: 50}}},
		{Events: []ChaosEvent{{Kind: ChaosLatency}}},
		{Events: []ChaosEvent{{Kind: ChaosError, Fraction: 1.5}}},
		{Seed: 42, Events: []ChaosEvent{
			{Kind: ChaosOutage, Target: ChaosTargetPredict, FromMS: 1000, UntilMS: 3000},
			{Kind: ChaosLatency, LatencyMS: 50, Fraction: 0.5},
			{Kind: ChaosPanic, Target: ChaosTargetCapture, FromMS: 500},
		}},
		{Events: []ChaosEvent{{Kind: ChaosLatency, LatencyMS: 1 << 62}}},
		{Events: []ChaosEvent{{Kind: ChaosError, FromMS: 1 << 62}}},
	}
	for _, p := range plans {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"seed": 7, "events": [{"kind": "outage", "from_ms": 100, "until_ms": 200}]}`))
	f.Add([]byte(`{"seed": 7, "evnts": []}`))
	f.Add([]byte(`{"events": [{"kind": "error"}]} trailing`))
	f.Add([]byte(`{"events": [{"kind": "error", "fraction": 1e999}]}`))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadChaosPlan(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatalf("rejected plan returned: %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadChaosPlan(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded plan rejected: %v\n%s", err, b)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, b) {
			t.Fatalf("plan changed across a round trip:\n%s\n%s", b, again)
		}
		for _, e := range p.Events {
			if d := time.Duration(e.LatencyMS) * time.Millisecond; e.Kind == ChaosLatency && (d <= 0 || d.Milliseconds() != e.LatencyMS) {
				t.Fatalf("accepted latency_ms %d injects %v", e.LatencyMS, d)
			}
		}
		for _, target := range []string{ChaosTargetPredict, ChaosTargetCapture} {
			for _, at := range []time.Duration{0, time.Second, 1<<63 - 1} {
				for call := uint64(0); call < 4; call++ {
					p.effect(target, at, call)
				}
			}
		}
	})
}
