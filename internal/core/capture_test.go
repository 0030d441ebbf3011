package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

// testCapture builds a small real capture without training estimators.
func testCapture(t *testing.T) (*Pipeline, *Capture) {
	t.Helper()
	cluster := hardware.DGXV100(1)
	p := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
	c, err := p.Capture(context.Background(), m)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if c.OOM {
		t.Fatalf("test capture unexpectedly OOM")
	}
	return p, c
}

// zeroStages strips wall-clock stage timings for value comparison.
func zeroStages(r *Report) Report {
	c := *r
	c.Stages = StageTimings{}
	return c
}

func TestCaptureIsImmutableUnderSimulate(t *testing.T) {
	p, c := testCapture(t)
	before, err := json.Marshal(c.Job)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1, err := p.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Measure(ctx, c, DefaultOracle(p.Cluster), 0, hardware.BF16); err != nil {
		t.Fatal(err)
	}
	r2, err := p.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(c.Job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Simulate/Measure mutated the capture's job trace")
	}
	if zeroStages(r1) != zeroStages(r2) {
		t.Errorf("repeated Simulate from one capture diverged: %+v vs %+v", r1, r2)
	}
	if r1.Stages.Emulate != 0 || r1.Stages.Collate != 0 {
		t.Errorf("Simulate from a capture must not report emulate/collate time, got %+v", r1.Stages)
	}
}

func TestCaptureSerializationRoundTrip(t *testing.T) {
	_, c := testCapture(t)
	c.EmulateTime, c.CollateTime = 123*time.Millisecond, 45*time.Millisecond

	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}

	if got.Workload != c.Workload || got.Cluster != c.Cluster ||
		got.TotalWorkers != c.TotalWorkers || got.UniqueWorkers != c.UniqueWorkers ||
		got.PeakMemBytes != c.PeakMemBytes || got.OOM != c.OOM ||
		got.EmulateTime != c.EmulateTime || got.CollateTime != c.CollateTime {
		t.Errorf("metadata did not round-trip:\n got %+v\nwant %+v", got, c)
	}
	if !reflect.DeepEqual(got.Comms, c.Comms) || !reflect.DeepEqual(got.CommSizes, c.CommSizes) {
		t.Error("communicator membership did not round-trip")
	}
	if !reflect.DeepEqual(got.Participants, c.Participants) {
		t.Error("participation counts were not reconstructed")
	}
	gj, _ := json.Marshal(got.Job)
	cj, _ := json.Marshal(c.Job)
	if !bytes.Equal(gj, cj) {
		t.Error("job trace did not round-trip")
	}
}

func TestCaptureSerializationVersionMismatch(t *testing.T) {
	_, c := testCapture(t)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(traceMagic)] = 0xFF // corrupt the version field
	_, err := ReadCapture(bytes.NewReader(raw))
	if !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("future-version trace: err = %v, want ErrTraceVersion", err)
	}
}

func TestCaptureSerializationBadInput(t *testing.T) {
	_, c := testCapture(t)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncations at every structural boundary report unexpected EOF.
	for _, cut := range []int{0, 3, len(traceMagic) + 1, len(traceMagic) + 2 + 4, len(raw) / 2, len(raw) - 3} {
		trunc := raw[:cut]
		_, err := ReadCapture(bytes.NewReader(trunc))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Not a trace at all.
	if _, err := ReadCapture(bytes.NewReader([]byte("definitely not a maya trace, but long enough"))); !errors.Is(err, ErrTraceFormat) {
		t.Errorf("garbage input: err = %v, want ErrTraceFormat", err)
	}

	// A flipped payload byte fails the checksum.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(traceMagic)+2+8+10] ^= 0x40
	if _, err := ReadCapture(bytes.NewReader(corrupt)); !errors.Is(err, ErrTraceFormat) {
		t.Errorf("corrupt payload: err = %v, want ErrTraceFormat", err)
	}

	// A crafted huge length field must fail cheaply at EOF, not
	// allocate gigabytes up front.
	huge := append([]byte(nil), raw...)
	binary.BigEndian.PutUint64(huge[len(traceMagic)+2:], 1<<33)
	if _, err := ReadCapture(bytes.NewReader(huge)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("lying length field: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestSimulateOOMCapture(t *testing.T) {
	cluster := hardware.DGXV100(1)
	p := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	m := megatron(t, framework.MegatronConfig{
		Model: models.GPT3_18_4B(), NGPUs: 8, GlobalBatch: 64, TP: 1, PP: 1, MicroBatches: 1,
	})
	ctx := context.Background()
	c, err := p.Capture(ctx, m)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if !c.OOM {
		t.Fatal("expected an OOM capture")
	}
	rep, err := p.Simulate(ctx, c, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM || rep.IterTime != 0 {
		t.Errorf("OOM capture must simulate to an OOM report, got %+v", rep)
	}

	// OOM captures serialize too (they carry the verdict, no job).
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OOM || got.Job != nil || got.PeakMemBytes != c.PeakMemBytes {
		t.Errorf("OOM capture did not round-trip: %+v", got)
	}
}
