// Package topo models cluster network fabrics as declarative level
// hierarchies: GPU → NVLink island → node → leaf/spine, each level a
// plain record of fan-out, per-member bandwidth, hop latency and link
// count. New fabrics are data, not code — a rail-optimized spine, an
// oversubscribed core or a pod hierarchy is just a different []Level.
//
// A Topology also names every shared-bandwidth link domain in the
// fabric (the internal fabric of each unit, and each unit's uplink
// into its parent) with a dense int32 id, and Resolve maps a
// communicator's rank set to the levels it spans and the link domains
// it occupies. The netsim collective model selects algorithms against
// the spans; the sim engine's congestion mode charges concurrent
// collectives against the link occupancies.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"maya/internal/hardware"
)

// Effective-bandwidth derates shared by every consumer of the model.
const (
	// NVSwitchDerate is achievable/peak NVLink bandwidth through an
	// NVSwitch plane.
	NVSwitchDerate = 0.85
	// CubeMeshDerate accounts for the asymmetric hybrid cube-mesh of
	// DGX-V100, where not every pair has a direct link.
	CubeMeshDerate = 0.55
	// PCIeDerate is achievable/peak PCIe bandwidth (pairwise-NVLink
	// nodes route collectives over PCIe).
	PCIeDerate = 0.65
	// InterDerate is achievable/peak NIC bandwidth for inter-node
	// collectives. This is the single inter-node derate: send/recv and
	// group collectives use the same constant.
	InterDerate = 0.80
)

// Fixed hop latencies of the model.
const (
	// IntraLatency is the per-hop latency inside a node.
	IntraLatency = 5 * time.Microsecond
	// InterSwitchLatency is the switching overhead added on top of the
	// interconnect's base latency for inter-node hops.
	InterSwitchLatency = 6 * time.Microsecond
)

// Level is one tier of the fabric hierarchy. Levels[0] is always the
// leaf ("gpu", Fanout 1, no fabric of its own); every higher level
// groups Fanout units of the level below behind a shared fabric.
type Level struct {
	// Name labels the level ("gpu", "island", "spine", ...).
	Name string
	// Fanout is the number of level-below units per unit of this
	// level. Levels[0] has Fanout 1.
	Fanout int
	// BWGBps is the effective per-member bandwidth through this
	// level's fabric, in GB/s (derates already applied).
	BWGBps float64
	// Latency is the per-hop latency of crossing this level.
	Latency time.Duration
	// Links is the number of parallel links each child has into this
	// level's fabric — the capacity unit of congestion: a link domain
	// of width k serves k concurrent collectives at full rate.
	Links int
}

// Topology is a validated, precomputed fabric hierarchy.
type Topology struct {
	// Name identifies the topology (the spec string it was built
	// from: "auto", "flat", "rail", "oversub:4", "pods:2", ...).
	Name   string
	Levels []Level

	sizes      []int // leaves per unit at each level
	leaves     int
	fabricBase []int32 // first link id of each level's fabric domains
	uplinkBase []int32 // first link id of each level's unit uplinks
	numLinks   int32
	widths     []int32
}

// New validates and precomputes a topology. Levels[0] must be the
// leaf (Fanout 1); every other level needs Fanout ≥ 1, positive
// bandwidth and at least one link.
func New(name string, levels []Level) (*Topology, error) {
	if len(levels) < 2 {
		return nil, fmt.Errorf("topo: %q needs at least a leaf and one fabric level, got %d", name, len(levels))
	}
	if levels[0].Fanout != 1 {
		return nil, fmt.Errorf("topo: %q leaf level %q must have fanout 1, got %d", name, levels[0].Name, levels[0].Fanout)
	}
	t := &Topology{Name: name, Levels: append([]Level(nil), levels...)}
	t.sizes = make([]int, len(levels))
	t.sizes[0] = 1
	for i := 1; i < len(levels); i++ {
		l := levels[i]
		if l.Fanout < 1 {
			return nil, fmt.Errorf("topo: %q level %q has fanout %d", name, l.Name, l.Fanout)
		}
		if l.BWGBps <= 0 {
			return nil, fmt.Errorf("topo: %q level %q has no bandwidth", name, l.Name)
		}
		if l.Links < 1 {
			return nil, fmt.Errorf("topo: %q level %q has %d links", name, l.Name, l.Links)
		}
		t.sizes[i] = t.sizes[i-1] * l.Fanout
	}
	t.leaves = t.sizes[len(levels)-1]

	// Link-domain ids: the fabric of every unit at levels 1..L-1,
	// then the uplink of every unit at levels 1..L-2 into its parent.
	// Allocation order makes per-level id ranges contiguous and
	// ascending, so Resolve can emit sorted link lists without a sort.
	L := len(levels)
	t.fabricBase = make([]int32, L)
	t.uplinkBase = make([]int32, L)
	var id int32
	for i := 1; i < L; i++ {
		t.fabricBase[i] = id
		for u := 0; u < t.units(i); u++ {
			t.widths = append(t.widths, int32(levels[i].Links))
		}
		id += int32(t.units(i))
	}
	for i := 1; i < L-1; i++ {
		t.uplinkBase[i] = id
		for u := 0; u < t.units(i); u++ {
			t.widths = append(t.widths, int32(levels[i+1].Links))
		}
		id += int32(t.units(i))
	}
	t.numLinks = id
	return t, nil
}

// units returns how many units exist at a level.
func (t *Topology) units(i int) int { return t.leaves / t.sizes[i] }

// LinkWidths returns the per-link-domain capacity (parallel physical
// links): a domain of width k serves k concurrent flows at full rate.
// The returned slice is shared; callers must not mutate it.
func (t *Topology) LinkWidths() []int32 { return t.widths }

func (t *Topology) String() string {
	parts := make([]string, len(t.Levels))
	for i, l := range t.Levels {
		parts[i] = fmt.Sprintf("%s×%d", l.Name, l.Fanout)
	}
	return fmt.Sprintf("%s[%s]", t.Name, strings.Join(parts, " "))
}

// Path is the resolved footprint of one communicator on the fabric.
type Path struct {
	// N is the communicator's declared size.
	N int
	// Span[i] is how many level-i units the group touches. Span[0] is
	// N; partial memberships are extrapolated to the declared size.
	Span []int
	// Links lists the link domains the group's traffic occupies,
	// ascending. Only domains evidenced by observed members are
	// charged: for partial memberships the unobserved units' links
	// are unknowable, so the footprint is a deterministic lower bound.
	Links []int32
}

// Top returns the highest level the group actually crosses: the
// smallest level index whose span is 1. A single-rank group returns
// 0; a group confined to one island returns 1.
func (p Path) Top() int {
	for i, s := range p.Span {
		if s == 1 {
			return i
		}
	}
	return len(p.Span) - 1
}

// Resolve maps a communicator's rank set to its fabric footprint.
// ranks may be partial (deduplicated captures observe only unique
// workers); membership is completed by extending the observed stride,
// exactly as trace.ExpandRanks does, before spans and links are
// derived. nranks ≤ 0 means len(ranks).
func (t *Topology) Resolve(ranks []int, nranks int) Path {
	n := nranks
	if n <= 0 {
		n = len(ranks)
	}
	L := len(t.Levels)
	p := Path{N: n, Span: make([]int, L)}
	for i := range p.Span {
		p.Span[i] = 1
	}
	if n <= 0 {
		return p
	}
	p.Span[0] = n

	members := t.memberSet(ranks, n)
	distinct := len(members)
	if distinct == 0 {
		return p
	}

	// Observed spans: members are sorted, so unit ids per level are
	// non-decreasing and distinct counts are one linear pass each.
	observed := make([]int, L)
	observed[0] = distinct
	for i := 1; i < L; i++ {
		cnt, last := 0, -1
		for _, m := range members {
			if u := m / t.sizes[i]; u != last {
				cnt++
				last = u
			}
		}
		observed[i] = cnt
	}

	// Partial membership: scale each level's span by the declared
	// size, assuming the unobserved members follow the observed
	// packing density (occ members per touched unit).
	for i := 1; i < L; i++ {
		sp := observed[i]
		if distinct < n && observed[i] > 0 {
			occ := (distinct + observed[i] - 1) / observed[i]
			sp = (n + occ - 1) / occ
			if sp < observed[i] {
				sp = observed[i]
			}
			if u := t.units(i); sp > u {
				sp = u
			}
		}
		p.Span[i] = sp
	}

	// Fabric domains: the fabric of unit u at level i carries traffic
	// iff at least two of u's children are touched.
	for i := 1; i < L; i++ {
		if observed[i-1] < 2 {
			continue
		}
		unit, child, kids := -1, -1, 0
		flush := func() {
			if kids >= 2 {
				p.Links = append(p.Links, t.fabricBase[i]+int32(unit))
			}
		}
		for _, m := range members {
			u, c := m/t.sizes[i], m/t.sizes[i-1]
			if u != unit {
				if unit >= 0 {
					flush()
				}
				unit, child, kids = u, c, 1
				continue
			}
			if c != child {
				child = c
				kids++
			}
		}
		flush()
	}
	// Uplink domains: every touched level-i unit sends traffic up iff
	// the group spans more than one level-i unit.
	for i := 1; i < L-1; i++ {
		if p.Span[i] < 2 {
			continue
		}
		last := -1
		for _, m := range members {
			if u := m / t.sizes[i]; u != last {
				p.Links = append(p.Links, t.uplinkBase[i]+int32(u))
				last = u
			}
		}
	}
	return p
}

// memberSet completes a partial rank set to the declared size by
// stride extrapolation, then sorts and deduplicates it.
func (t *Topology) memberSet(ranks []int, n int) []int {
	var members []int
	if len(ranks) >= n {
		members = append(members, ranks...)
	} else if len(ranks) > 0 {
		stride := 1
		if len(ranks) >= 2 {
			stride = ranks[1] - ranks[0]
			if stride <= 0 {
				stride = 1
			}
		} else if t.leaves > n {
			stride = t.leaves / n
		}
		members = make([]int, 0, n)
		for i := 0; i < n; i++ {
			members = append(members, ranks[0]+i*stride)
		}
	} else {
		return nil
	}
	for i, m := range members {
		if m < 0 {
			m = -m
		}
		members[i] = m % t.leaves
	}
	sort.Ints(members)
	out := members[:0]
	last := -1
	for _, m := range members {
		if m != last {
			out = append(out, m)
			last = m
		}
	}
	return out
}

// FromCluster derives the canonical hierarchical topology of a
// cluster: GPU leaves, an NVLink island per node, and (for multi-node
// clusters) a single spine fabric between nodes.
func FromCluster(c hardware.Cluster) *Topology {
	bw, links := intraFabric(c.Node)
	levels := []Level{
		{Name: "gpu", Fanout: 1},
		{Name: "island", Fanout: c.Node.GPUsPerNode, BWGBps: bw, Latency: IntraLatency, Links: links},
	}
	if c.Nodes > 1 {
		levels = append(levels, spineLevel(c, 1))
	}
	return mustNew("auto", levels)
}

// spineLevel builds the inter-node level with the given per-node
// uplink count.
func spineLevel(c hardware.Cluster, links int) Level {
	return Level{
		Name:    "spine",
		Fanout:  c.Nodes,
		BWGBps:  c.Node.Inter.PerGPUGBps * InterDerate,
		Latency: c.Node.Inter.BaseLatency + InterSwitchLatency,
		Links:   links,
	}
}

// intraFabric returns the effective intra-node bandwidth and link
// count for a node's internal topology.
func intraFabric(n hardware.Node) (bwGBps float64, links int) {
	switch n.Topology {
	case hardware.NVSwitch:
		return n.GPU.NVLinkGBps * NVSwitchDerate, n.GPUsPerNode
	case hardware.CubeMesh:
		return n.GPU.NVLinkGBps * CubeMeshDerate, 2
	default: // pairwise NVLink and PCIe-only both bottleneck on PCIe
		return n.PCIeGBps * PCIeDerate, 1
	}
}

func mustNew(name string, levels []Level) *Topology {
	t, err := New(name, levels)
	if err != nil {
		panic(err) // unreachable for catalog clusters
	}
	return t
}

// ByName builds a topology for a cluster from a spec string:
//
//	"" / "auto"  the cluster's canonical hierarchy (FromCluster)
//	"flat"       one fabric over all GPUs at inter-node bandwidth —
//	             the pre-hierarchical baseline, for fidelity studies
//	"rail"       auto, with a rail-optimized spine: one uplink per
//	             GPU instead of one per node
//	"oversub:K"  auto, with the spine bandwidth oversubscribed K:1
//	"pods:K"     four levels: islands, pods of K nodes at full
//	             inter-node bandwidth, and a half-bandwidth,
//	             double-latency core between pods
func ByName(spec string, c hardware.Cluster) (*Topology, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	k := 0
	if hasArg {
		var err error
		if k, err = strconv.Atoi(arg); err != nil || k < 1 {
			return nil, fmt.Errorf("topo: bad topology spec %q: want a positive integer after %q", spec, name+":")
		}
	}
	switch name {
	case "", "auto":
		return FromCluster(c), nil
	case "flat":
		bw, _ := intraFabric(c.Node)
		lat := IntraLatency
		links := 1
		if c.Nodes > 1 {
			bw = c.Node.Inter.PerGPUGBps * InterDerate
			lat = c.Node.Inter.BaseLatency + InterSwitchLatency
		}
		return New("flat", []Level{
			{Name: "gpu", Fanout: 1},
			{Name: "fabric", Fanout: c.TotalGPUs(), BWGBps: bw, Latency: lat, Links: links},
		})
	case "rail":
		t := FromCluster(c)
		levels := append([]Level(nil), t.Levels...)
		if c.Nodes > 1 {
			levels[len(levels)-1] = spineLevel(c, c.Node.GPUsPerNode)
		}
		return New("rail", levels)
	case "oversub":
		if !hasArg {
			return nil, fmt.Errorf("topo: spec %q needs a ratio (e.g. oversub:4)", spec)
		}
		t := FromCluster(c)
		levels := append([]Level(nil), t.Levels...)
		if c.Nodes > 1 {
			levels[len(levels)-1].BWGBps /= float64(k)
		}
		return New(spec, levels)
	case "pods":
		if !hasArg {
			return nil, fmt.Errorf("topo: spec %q needs a pod size (e.g. pods:2)", spec)
		}
		pods := (c.Nodes + k - 1) / k
		if pods <= 1 {
			return ByName("auto", c)
		}
		bw, links := intraFabric(c.Node)
		interBW := c.Node.Inter.PerGPUGBps * InterDerate
		interLat := c.Node.Inter.BaseLatency + InterSwitchLatency
		return New(spec, []Level{
			{Name: "gpu", Fanout: 1},
			{Name: "island", Fanout: c.Node.GPUsPerNode, BWGBps: bw, Latency: IntraLatency, Links: links},
			{Name: "pod", Fanout: k, BWGBps: interBW, Latency: interLat, Links: 1},
			{Name: "core", Fanout: pods, BWGBps: interBW / 2, Latency: 2 * interLat, Links: 1},
		})
	default:
		return nil, fmt.Errorf("topo: unknown topology spec %q (have auto, flat, rail, oversub:K, pods:K)", spec)
	}
}
