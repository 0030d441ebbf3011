package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/trace"
)

// goldenTrace is a version-1 trace file written by the encoder that
// predates interned shapes, when every op carried its own dims, flops,
// dtype, extra and memKind. It is the capture goldenCapture makes,
// with zero stage timings, recorded when host delays, mallocs and
// frees were ops of their own. Do not regenerate it with the current
// encoder: it pins that the format did not move.
const goldenTrace = "testdata/capture-v1.mtrace"

// goldenTraceV2 is the same capture as written by the first binary
// encoder (format version 2), host-only ops included. Do not
// regenerate it either.
const goldenTraceV2 = "testdata/capture-v2.mtrace"

// goldenTraceV3 is the same capture in format version 3, its host
// time folded into the ops' gaps. Do not regenerate it: it pins that
// the current format did not move.
const goldenTraceV3 = "testdata/capture-v3.mtrace"

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

// TestGoldenTraceStillLoads loads the capture of every format
// version: each folds to the capture made in process, writes the bytes
// of the version-3 golden and the in-process job's bytes, and replays
// exactly as the in-process capture does.
func TestGoldenTraceStillLoads(t *testing.T) {
	p, fresh := goldenCapture(t)
	goldenV3, err := os.ReadFile(goldenTraceV3)
	if err != nil {
		t.Fatal(err)
	}
	freshJob := jobBytes(t, fresh.Job) // the encoder refuses a host-delay, malloc or free
	ctx := context.Background()
	replays := map[string]func(*Capture) (*Report, error){
		"oracle": func(c *Capture) (*Report, error) { return p.Simulate(ctx, c, 1e12, hardware.FP16) },
		"physical": func(c *Capture) (*Report, error) {
			return p.Measure(ctx, c, DefaultOracle(p.Cluster), 1e12, hardware.FP16)
		},
	}
	want := map[string]Report{}
	for name, replay := range replays {
		r, err := replay(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if r.IterTime <= 0 {
			t.Errorf("%s: iteration time %v", name, r.IterTime)
		}
		want[name] = zeroStages(r)
	}

	for _, file := range []string{goldenTrace, goldenTraceV2, goldenTraceV3} {
		golden, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadCapture(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("ReadCapture(%s): %v", file, err)
		}
		var bin bytes.Buffer
		if _, err := loaded.WriteTo(&bin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), goldenV3) {
			t.Errorf("%s writes %d bytes that differ from the %d of %s", file, bin.Len(), len(goldenV3), goldenTraceV3)
		}
		if !bytes.Equal(jobBytes(t, loaded.Job), freshJob) {
			t.Errorf("the job of %s writes bytes that differ from the in-process job's", file)
		}
		for name, replay := range replays {
			r, err := replay(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if zeroStages(r) != want[name] {
				t.Errorf("%s: %s simulates to %+v, in-process to %+v", name, file, zeroStages(r), want[name])
			}
		}
		// Compared last: a replay memoizes into the capture.
		loaded, _ = ReadCapture(bytes.NewReader(golden))
		if _, fresh := goldenCapture(t); !reflect.DeepEqual(loaded, fresh) {
			t.Errorf("%s does not load to the in-process capture", file)
		}
	}
}

// jobBytes encodes j in the binary form captures carry it in.
func jobBytes(t *testing.T, j *trace.Job) []byte {
	t.Helper()
	var e trace.Encoder
	if err := e.Job(j); err != nil {
		t.Fatal(err)
	}
	return e.B
}

// TestClassHintedBitIgnoredOnRead loads a version-3 capture whose
// flags carry bit 1, which marked captures of a capture route that no
// longer exists: it loads to the capture without the bit, and writes
// that capture's bytes.
func TestClassHintedBitIgnoredOnRead(t *testing.T) {
	_, c := goldenCapture(t)
	write := func() []byte {
		var b bytes.Buffer
		if _, err := c.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain := write()
	// The flags byte is the first byte an OOM verdict changes.
	c.OOM = true
	flags := 0
	for oom := write(); plain[flags] == oom[flags]; flags++ {
	}
	c.OOM = false

	hinted := bytes.Clone(plain)
	hinted[flags] |= captureClassHinted
	sum := len(hinted) - 8
	binary.BigEndian.PutUint64(hinted[sum:], payloadSum(hinted[traceHeaderLen:sum]))
	loaded, err := ReadCapture(bytes.NewReader(hinted))
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	want, err := ReadCapture(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Fatal("the bit changed what loaded")
	}
	var b bytes.Buffer
	if _, err := loaded.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), plain) {
		t.Fatal("a capture loaded with the bit writes it back")
	}
}
