package topo

import (
	"strings"
	"testing"

	"maya/internal/hardware"
)

// FuzzTopoByName shakes the topology-spec parser with hostile input:
// whatever the spec string, ByName must either return an error or a
// validated topology covering every GPU of the cluster — never panic,
// never hand back a fabric the simulator would divide by zero on.
func FuzzTopoByName(f *testing.F) {
	seeds := []string{
		"", "auto", "flat", "rail", "oversub:4", "pods:2", // the grammar
		"oversub", "pods", "oversub:", "pods:", // missing args
		"oversub:0", "oversub:-1", "pods:0", "pods:-3", // non-positive
		"pods:999999999", "oversub:9223372036854775808", // huge / overflow
		"auto:1", "flat:", "rail:0", // args where none belong
		":", "::", "a:b:c", "oversub:+4", "pods:0x2", // junk shapes
		" flat", "flat ", "FLAT", "päds:2", "oversub:4\n", // spacing, case, unicode
		strings.Repeat("pods:", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	clusters := []hardware.Cluster{
		hardware.DGXV100(2), // hybrid cube-mesh, multi-node
		hardware.DGXH100(8), // NVSwitch islands at scale
		hardware.A40Node(),  // single PCIe node: no inter level
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, c := range clusters {
			tp, err := ByName(spec, c)
			if err != nil {
				continue // rejected: fine, as long as it didn't panic
			}
			if tp == nil {
				t.Fatalf("ByName(%q, %s) returned nil topology without error", spec, c.Name)
			}
			if tp.leaves != c.TotalGPUs() {
				t.Fatalf("ByName(%q, %s): %d leaves for %d GPUs", spec, c.Name, tp.leaves, c.TotalGPUs())
			}
			for i, l := range tp.Levels[1:] {
				if l.BWGBps <= 0 || l.Links < 1 || l.Fanout < 1 {
					t.Fatalf("ByName(%q, %s): degenerate level %d: %+v", spec, c.Name, i+1, l)
				}
			}
		}
	})
}
