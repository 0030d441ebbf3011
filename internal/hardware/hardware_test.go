package hardware

import (
	"maps"
	"testing"
	"time"
)

// TestFingerprintCoversTheDescription: clusters that share a name but
// differ in any part of their hardware fingerprint apart, and equal
// descriptions fingerprint alike.
func TestFingerprintCoversTheDescription(t *testing.T) {
	base := DGXH100(1)
	if DGXH100(1).Fingerprint() != base.Fingerprint() {
		t.Fatal("equal clusters fingerprint differently")
	}
	for name, change := range map[string]func(c *Cluster){
		"tensor throughput": func(c *Cluster) {
			c.Node.GPU.TensorTFLOPS = maps.Clone(c.Node.GPU.TensorTFLOPS)
			c.Node.GPU.TensorTFLOPS[BF16] /= 4
		},
		"memory":       func(c *Cluster) { c.Node.GPU.MemBytes /= 2 },
		"interconnect": func(c *Cluster) { c.Node.Inter.PerGPUGBps *= 2 },
		"host":         func(c *Cluster) { c.Host.DispatchOverhead += time.Microsecond },
		"nodes":        func(c *Cluster) { c.Nodes++ },
	} {
		c := DGXH100(1)
		change(&c)
		if c.Name != base.Name {
			t.Fatalf("%s: the name changed", name)
		}
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: a changed cluster of the same name fingerprints alike", name)
		}
	}
}
