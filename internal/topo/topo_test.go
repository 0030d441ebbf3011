package topo

import (
	"reflect"
	"testing"

	"maya/internal/hardware"
)

func TestFromClusterShape(t *testing.T) {
	tp := FromCluster(hardware.DGXH100(4))
	if len(tp.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(tp.Levels))
	}
	if tp.leaves != 32 {
		t.Fatalf("leaves = %d, want 32", tp.leaves)
	}
	// Link domains: 4 island fabrics + 1 spine fabric + 4 island
	// uplinks.
	if tp.numLinks != 9 {
		t.Fatalf("links = %d, want 9", tp.numLinks)
	}
	single := FromCluster(hardware.A40Node())
	if len(single.Levels) != 2 {
		t.Fatalf("single-node levels = %d, want 2", len(single.Levels))
	}
	if single.numLinks != 1 {
		t.Fatalf("single-node links = %d, want 1", single.numLinks)
	}
}

func TestResolveFullMembership(t *testing.T) {
	tp := FromCluster(hardware.DGXH100(4))
	ranks := make([]int, 16)
	for i := range ranks {
		ranks[i] = i
	}
	p := tp.Resolve(ranks, 16)
	if want := []int{16, 2, 1}; !reflect.DeepEqual(p.Span, want) {
		t.Fatalf("span = %v, want %v", p.Span, want)
	}
	if p.Top() != 2 {
		t.Fatalf("top = %d, want 2", p.Top())
	}
	// Fabrics of islands 0,1 (ids 0,1), spine fabric (id 4), uplinks
	// of islands 0,1 (ids 5,6).
	if want := []int32{0, 1, 4, 5, 6}; !reflect.DeepEqual(p.Links, want) {
		t.Fatalf("links = %v, want %v", p.Links, want)
	}
}

func TestResolveIntraIsland(t *testing.T) {
	tp := FromCluster(hardware.DGXH100(4))
	p := tp.Resolve([]int{8, 9, 10, 11}, 4)
	if want := []int{4, 1, 1}; !reflect.DeepEqual(p.Span, want) {
		t.Fatalf("span = %v, want %v", p.Span, want)
	}
	if p.Top() != 1 {
		t.Fatalf("top = %d, want 1", p.Top())
	}
	// Only island 1's fabric: no spine traffic, no uplinks.
	if want := []int32{1}; !reflect.DeepEqual(p.Links, want) {
		t.Fatalf("links = %v, want %v", p.Links, want)
	}
}

func TestResolvePartialMembershipExtrapolates(t *testing.T) {
	tp := FromCluster(hardware.DGXH100(128))
	// Two of 128 declared ranks known, stride 512: the group really
	// spans all 128 islands at one GPU each.
	p := tp.Resolve([]int{0, 512}, 128)
	if p.Span[1] != 128 {
		t.Fatalf("island span = %d, want 128", p.Span[1])
	}
	if p.Span[2] != 1 {
		t.Fatalf("spine span = %d, want 1", p.Span[2])
	}
	// One known rank: stride defaults to leaves/size, recovering the
	// uniform inter-node layout.
	p1 := tp.Resolve([]int{0}, 128)
	if p1.Span[1] != 128 {
		t.Fatalf("single-known island span = %d, want 128", p1.Span[1])
	}
}

func TestResolvePodsFixture(t *testing.T) {
	tp, err := ByName("pods:2", hardware.DGXH100(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(tp.Levels))
	}
	// 8 island fabrics (0-7), 4 pod fabrics (8-11), 1 core fabric
	// (12), 8 island uplinks (13-20), 4 pod uplinks (21-24).
	if tp.numLinks != 25 {
		t.Fatalf("links = %d, want 25", tp.numLinks)
	}

	// Non-contiguous set spanning two pods: ranks 0,1 (island 0),
	// 9 (island 1), 25 (island 3).
	p := tp.Resolve([]int{0, 1, 9, 25}, 4)
	if want := []int{4, 3, 2, 1}; !reflect.DeepEqual(p.Span, want) {
		t.Fatalf("span = %v, want %v", p.Span, want)
	}
	if p.Top() != 3 {
		t.Fatalf("top = %d, want 3", p.Top())
	}
	// island-0 fabric, pod-0 fabric, core fabric, uplinks of islands
	// 0,1,3 and pods 0,1 — ascending.
	if want := []int32{0, 8, 12, 13, 14, 16, 21, 22}; !reflect.DeepEqual(p.Links, want) {
		t.Fatalf("links = %v, want %v", p.Links, want)
	}

	// One GPU per pod: no island or pod fabrics, only the core plus
	// the uplinks along each branch.
	p2 := tp.Resolve([]int{0, 16, 32, 48}, 4)
	if want := []int{4, 4, 4, 1}; !reflect.DeepEqual(p2.Span, want) {
		t.Fatalf("span = %v, want %v", p2.Span, want)
	}
	if want := []int32{12, 13, 15, 17, 19, 21, 22, 23, 24}; !reflect.DeepEqual(p2.Links, want) {
		t.Fatalf("links = %v, want %v", p2.Links, want)
	}
}

func TestResolveSingletonAndEmpty(t *testing.T) {
	tp := FromCluster(hardware.DGXH100(2))
	p := tp.Resolve([]int{5}, 1)
	if p.Top() != 0 || len(p.Links) != 0 {
		t.Fatalf("singleton path = %+v", p)
	}
	p = tp.Resolve(nil, 0)
	if p.N != 0 || len(p.Links) != 0 {
		t.Fatalf("empty path = %+v", p)
	}
}

func TestByNameSpecs(t *testing.T) {
	c := hardware.DGXH100(8)
	for _, spec := range []string{"", "auto", "flat", "rail", "oversub:4", "pods:2"} {
		tp, err := ByName(spec, c)
		if err != nil {
			t.Fatalf("ByName(%q): %v", spec, err)
		}
		if tp.leaves < c.TotalGPUs() {
			t.Fatalf("ByName(%q): %d leaves < %d GPUs", spec, tp.leaves, c.TotalGPUs())
		}
	}
	auto, _ := ByName("auto", c)
	rail, _ := ByName("rail", c)
	if got, want := rail.Levels[2].Links, c.Node.GPUsPerNode; got != want {
		t.Fatalf("rail spine links = %d, want %d", got, want)
	}
	over, _ := ByName("oversub:4", c)
	if got, want := over.Levels[2].BWGBps, auto.Levels[2].BWGBps/4; got != want {
		t.Fatalf("oversub:4 spine BW = %g, want %g", got, want)
	}
	flat, _ := ByName("flat", c)
	if len(flat.Levels) != 2 {
		t.Fatalf("flat levels = %d, want 2", len(flat.Levels))
	}
	for _, bad := range []string{"mesh", "oversub", "oversub:x", "pods:0", "rail:2x"} {
		if _, err := ByName(bad, c); err == nil {
			t.Fatalf("ByName(%q) did not fail", bad)
		}
	}
	// pods larger than the cluster degenerates to auto.
	if tp, err := ByName("pods:16", c); err != nil || len(tp.Levels) != 3 {
		t.Fatalf("pods:16 = %v levels, err %v", tp, err)
	}
}

func TestNewValidates(t *testing.T) {
	leaf := Level{Name: "gpu", Fanout: 1}
	for _, bad := range [][]Level{
		{leaf},
		{{Name: "gpu", Fanout: 2}, {Name: "f", Fanout: 4, BWGBps: 1, Links: 1}},
		{leaf, {Name: "f", Fanout: 0, BWGBps: 1, Links: 1}},
		{leaf, {Name: "f", Fanout: 4, BWGBps: 0, Links: 1}},
		{leaf, {Name: "f", Fanout: 4, BWGBps: 1, Links: 0}},
	} {
		if _, err := New("bad", bad); err == nil {
			t.Fatalf("New(%v) did not fail", bad)
		}
	}
}
