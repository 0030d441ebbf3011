package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

// goldenTrace is a version-1 trace file written by the encoder that
// predates interned shapes, when every op carried its own dims, flops,
// dtype, extra and memKind. It is the capture goldenCapture makes,
// with zero stage timings. Do not regenerate it with the current
// encoder: it pins that the format did not move.
const goldenTrace = "testdata/capture-v1.mtrace"

// goldenTraceV2 is the same capture as written by the first binary
// encoder (format version 2). Do not regenerate it either: it pins that
// the binary format did not move.
const goldenTraceV2 = "testdata/capture-v2.mtrace"

// goldenCapture captures a tiny CNN under DDP on two A40s with
// torch.compile (Triton kernels carry extra) and activation offload
// (memcpys carry a direction), every rank emulated.
func goldenCapture(t *testing.T) (*Pipeline, *Capture) {
	t.Helper()
	cnn := models.CNN{
		Name:  "tinycnn",
		Input: 32,
		Stem:  models.ConvStage{In: 3, Out: 8, Kernel: 3, Stride: 2, Repeat: 1},
		Stages: []models.ConvStage{
			{In: 8, Out: 16, Kernel: 3, Stride: 2, Repeat: 1, Bottleneck: true},
		},
		Classes: 10,
	}
	w, err := framework.NewDataParallel(framework.DataParallelConfig{
		CNN: &cnn, NGPUs: 2, GlobalBatch: 4, Strategy: framework.DDP, DType: "fp16",
		Compile: true, ActOffload: true, Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := oraclePipeline(hardware.A40Node(), Options{NoDedup: true})
	c, err := p.Capture(context.Background(), w)
	if err != nil || c.OOM {
		t.Fatalf("Capture: %v (oom %t)", err, c != nil && c.OOM)
	}
	c.EmulateTime, c.CollateTime = 0, 0
	return p, c
}

func TestGoldenTraceStillLoads(t *testing.T) {
	golden, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCapture(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("ReadCapture(%s): %v", goldenTrace, err)
	}
	p, fresh := goldenCapture(t)

	// The loaded file and the same capture made in process write the
	// same binary bytes, and they are the bytes of the binary golden,
	// which loads to the capture the JSON golden does.
	goldenV2, err := os.ReadFile(goldenTraceV2)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Capture{"loaded": loaded, "in-process": fresh} {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), goldenV2) {
			t.Errorf("%s capture writes %d bytes that differ from the %d of %s", name, buf.Len(), len(goldenV2), goldenTraceV2)
		}
	}
	loadedV2, err := ReadCapture(bytes.NewReader(goldenV2))
	if err != nil {
		t.Fatalf("ReadCapture(%s): %v", goldenTraceV2, err)
	}
	if !reflect.DeepEqual(loadedV2, loaded) {
		t.Errorf("%s and %s load to different captures", goldenTraceV2, goldenTrace)
	}
	// WriteJSON writes the same job record, indented.
	var payload struct{ Job json.RawMessage }
	if err := json.Unmarshal(golden[len(traceMagic)+2+8:len(golden)-8], &payload); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Indent(&want, payload.Job, "", " "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if err := loaded.Job.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WriteJSON of the loaded job differs from the job record in the file")
	}

	// The old file replays exactly as the in-process capture does.
	ctx := context.Background()
	for name, replay := range map[string]func(*Capture) (*Report, error){
		"oracle": func(c *Capture) (*Report, error) { return p.Simulate(ctx, c, 1e12, hardware.FP16) },
		"physical": func(c *Capture) (*Report, error) {
			return p.Measure(ctx, c, DefaultOracle(p.Cluster), 1e12, hardware.FP16)
		},
	} {
		a, err := replay(loaded)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if zeroStages(a) != zeroStages(b) {
			t.Errorf("%s: loaded capture simulates to %+v, in-process to %+v", name, zeroStages(a), zeroStages(b))
		}
		if a.IterTime <= 0 {
			t.Errorf("%s: iteration time %v", name, a.IterTime)
		}
	}
}
