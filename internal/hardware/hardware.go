// Package hardware describes the accelerator hardware Maya models:
// GPU microarchitectures, node topologies, interconnects and host CPUs.
//
// The catalog mirrors the clusters used in the paper's evaluation —
// DGX-H100 and DGX-V100 servers plus an 8xA40 node — but arbitrary
// clusters can be described with the same types. Everything is a plain
// value type: specs are immutable inputs to the emulator, the timing
// oracle, the estimators and the simulator.
package hardware

import (
	"fmt"
	"hash/fnv"
	"time"
)

// DType identifies a numeric element type used by kernels.
type DType string

// Data types that appear in training workloads.
const (
	FP32 DType = "fp32"
	FP16 DType = "fp16"
	BF16 DType = "bf16"
	FP8  DType = "fp8"
	INT8 DType = "int8"
)

// Size returns the element size in bytes.
func (d DType) Size() int64 {
	switch d {
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	case FP8, INT8:
		return 1
	default:
		return 4
	}
}

// Arch identifies a GPU microarchitecture generation. The synthetic
// silicon model keys its architecture quirks on this value.
type Arch string

// Supported architectures.
const (
	Volta  Arch = "volta"
	Ampere Arch = "ampere"
	Hopper Arch = "hopper"
)

// GPU describes a single accelerator device.
type GPU struct {
	Name string // marketing name, e.g. "H100-SXM"
	Arch Arch

	// MemBytes is the HBM capacity available to the allocator.
	MemBytes int64
	// MemBWGBps is the peak HBM bandwidth in GB/s.
	MemBWGBps float64
	// SMs is the number of streaming multiprocessors.
	SMs int
	// ClockMHz is the boost clock.
	ClockMHz int

	// TensorTFLOPS maps data type to peak dense tensor-core throughput
	// in TFLOP/s. Types absent from the map fall back to VectorTFLOPS
	// (the device executes them on the general-purpose pipeline, the
	// way V100 handles bf16).
	TensorTFLOPS map[DType]float64
	// VectorTFLOPS is peak non-tensor-core FP32 throughput.
	VectorTFLOPS float64

	// LaunchOverhead is the device-side cost of starting a kernel
	// (scheduling, not host dispatch).
	LaunchOverhead time.Duration

	// NVLinkGBps is the per-GPU aggregate NVLink bandwidth in GB/s
	// (unidirectional) when the node topology provides NVLink.
	NVLinkGBps float64
}

// PeakTFLOPS returns the peak matmul throughput for dtype, falling
// back to the vector pipeline when no tensor-core path exists.
func (g GPU) PeakTFLOPS(dt DType) float64 {
	if v, ok := g.TensorTFLOPS[dt]; ok {
		return v
	}
	return g.VectorTFLOPS
}

// IntraTopology describes how GPUs inside one node are connected.
type IntraTopology string

// Node-internal topologies used by the paper's clusters.
const (
	// NVSwitch provides full-bandwidth all-to-all NVLink (DGX-H100).
	NVSwitch IntraTopology = "nvswitch"
	// CubeMesh is the asymmetric 8-GPU hybrid cube-mesh of DGX-V100.
	CubeMesh IntraTopology = "cubemesh"
	// PairwiseNVLink links GPUs in pairs; traffic between pairs
	// falls back to PCIe (the A40 node).
	PairwiseNVLink IntraTopology = "pairwise"
)

// InterconnectKind names the fabric between nodes.
type InterconnectKind string

// Inter-node fabrics.
const (
	InfiniBand InterconnectKind = "infiniband"
	RoCE       InterconnectKind = "roce"
	TCP        InterconnectKind = "tcp"
)

// Interconnect describes the network between nodes.
type Interconnect struct {
	Kind InterconnectKind
	// PerGPUGBps is the NIC bandwidth available per GPU in GB/s.
	PerGPUGBps float64
	// BaseLatency is the one-way small-message latency.
	BaseLatency time.Duration
}

// Node describes one server.
type Node struct {
	GPU         GPU
	GPUsPerNode int
	Topology    IntraTopology
	// PCIeGBps is the fallback bandwidth for device pairs without
	// NVLink and for host<->device transfers.
	PCIeGBps float64
	Inter    Interconnect
}

// Host models the CPU side that dispatches device work. The emulator
// uses it to synthesize hostDelay ops deterministically.
type Host struct {
	Name string
	// DispatchOverhead is the mean cost of one device-API call
	// (framework dispatch + driver entry).
	DispatchOverhead time.Duration
	// KernelPrepOverhead is extra per-kernel-launch host work
	// (argument marshalling, Python-layer bookkeeping).
	KernelPrepOverhead time.Duration
	// JitterFrac is the relative spread of the deterministic jitter
	// applied to host delays (0.15 = +/-15%).
	JitterFrac float64
}

// Cluster is a homogeneous collection of nodes plus the host spec of
// each server.
type Cluster struct {
	Name  string
	Node  Node
	Nodes int
	Host  Host
}

// TotalGPUs returns the number of devices in the cluster.
func (c Cluster) TotalGPUs() int { return c.Node.GPUsPerNode * c.Nodes }

// NodeOf returns the node index hosting a global rank.
func (c Cluster) NodeOf(rank int) int { return rank / c.Node.GPUsPerNode }

// Validate checks the cluster description for obvious mistakes.
func (c Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("hardware: cluster %q has %d nodes", c.Name, c.Nodes)
	}
	if c.Node.GPUsPerNode <= 0 {
		return fmt.Errorf("hardware: cluster %q has %d GPUs per node", c.Name, c.Node.GPUsPerNode)
	}
	if c.Node.GPU.MemBytes <= 0 {
		return fmt.Errorf("hardware: cluster %q GPU has no memory", c.Name)
	}
	if c.Node.GPU.MemBWGBps <= 0 {
		return fmt.Errorf("hardware: cluster %q GPU has no memory bandwidth", c.Name)
	}
	return nil
}

// String implements fmt.Stringer.
func (c Cluster) String() string {
	return fmt.Sprintf("%s: %d x %d x %s", c.Name, c.Nodes, c.Node.GPUsPerNode, c.Node.GPU.Name)
}

// Fingerprint hashes the full hardware description, so two clusters
// sharing a name but differing in any GPU, node, interconnect or host
// parameter never share a cached capture or trained suite. Struct
// rendering via %+v is deterministic: fmt prints map keys sorted.
func (c Cluster) Fingerprint() uint64 {
	type fields Cluster // no String method: %+v renders every field
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", fields(c))
	return h.Sum64()
}

const gib = int64(1) << 30

// V100 is the 40GB Volta part used in the paper's DGX-V100 cluster.
// (The paper reports 40GB HBM per GPU; we follow the paper.)
func V100() GPU {
	return GPU{
		Name:      "V100",
		Arch:      Volta,
		MemBytes:  40 * gib,
		MemBWGBps: 900,
		SMs:       80,
		ClockMHz:  1530,
		TensorTFLOPS: map[DType]float64{
			FP16: 112,
			// No bf16 tensor cores on Volta: bf16 matmuls run on a
			// slow emulated path, which is why Calculon/AMPeD skip
			// Volta bf16 in the paper.
			BF16: 28,
		},
		VectorTFLOPS:   15.7,
		LaunchOverhead: 4 * time.Microsecond,
		NVLinkGBps:     150, // 300 GB/s bidirectional cube-mesh links
	}
}

// H100 is the 80GB Hopper SXM part of DGX-H100.
func H100() GPU {
	return GPU{
		Name:      "H100",
		Arch:      Hopper,
		MemBytes:  80 * gib,
		MemBWGBps: 3350,
		SMs:       132,
		ClockMHz:  1830,
		TensorTFLOPS: map[DType]float64{
			FP16: 989,
			BF16: 989,
			FP8:  1979,
		},
		VectorTFLOPS:   67,
		LaunchOverhead: 2500 * time.Nanosecond,
		NVLinkGBps:     450, // NVLink 4.0, 900 GB/s bidirectional
	}
}

// A40 is the 48GB Ampere workstation part used for the vision
// experiments.
func A40() GPU {
	return GPU{
		Name:      "A40",
		Arch:      Ampere,
		MemBytes:  48 * gib,
		MemBWGBps: 696,
		SMs:       84,
		ClockMHz:  1740,
		TensorTFLOPS: map[DType]float64{
			FP16: 150,
			BF16: 150,
		},
		VectorTFLOPS:   37,
		LaunchOverhead: 3 * time.Microsecond,
		NVLinkGBps:     56, // pairwise NVLink bridges
	}
}

// EpycHost models the AMD EPYC head nodes the paper ran the pipeline
// on.
func EpycHost() Host {
	return Host{
		Name:               "EPYC-7513",
		DispatchOverhead:   5 * time.Microsecond,
		KernelPrepOverhead: 9 * time.Microsecond,
		JitterFrac:         0.15,
	}
}

// DGXH100 builds the paper's H100 cluster: 8 GPUs per node, NVSwitch
// inside, 400Gb RoCE per GPU between nodes.
func DGXH100(nodes int) Cluster {
	return Cluster{
		Name: fmt.Sprintf("%dxH100", nodes*8),
		Node: Node{
			GPU:         H100(),
			GPUsPerNode: 8,
			Topology:    NVSwitch,
			PCIeGBps:    55,
			Inter: Interconnect{
				Kind:        RoCE,
				PerGPUGBps:  50, // 400 Gb/s per GPU pair
				BaseLatency: 5 * time.Microsecond,
			},
		},
		Nodes: nodes,
		Host:  EpycHost(),
	}
}

// DGXV100 builds the paper's V100 cluster: 8 GPUs per node, hybrid
// cube-mesh NVLink, 100Gb InfiniBand between nodes.
func DGXV100(nodes int) Cluster {
	return Cluster{
		Name: fmt.Sprintf("%dxV100", nodes*8),
		Node: Node{
			GPU:         V100(),
			GPUsPerNode: 8,
			Topology:    CubeMesh,
			PCIeGBps:    12,
			Inter: Interconnect{
				Kind:        InfiniBand,
				PerGPUGBps:  12.5, // 100 Gb/s
				BaseLatency: 3 * time.Microsecond,
			},
		},
		Nodes: nodes,
		Host:  EpycHost(),
	}
}

// A40Node builds the single 8xA40 node with pairwise NVLink used for
// the vision experiments.
func A40Node() Cluster {
	return Cluster{
		Name: "8xA40",
		Node: Node{
			GPU:         A40(),
			GPUsPerNode: 8,
			Topology:    PairwiseNVLink,
			PCIeGBps:    25,
			Inter: Interconnect{
				Kind:        TCP,
				PerGPUGBps:  3,
				BaseLatency: 20 * time.Microsecond,
			},
		},
		Nodes: 1,
		Host:  EpycHost(),
	}
}

// ByName returns a preset cluster for a short spec string such as
// "8xV100", "64xH100" or "8xA40". It is the parser the CLIs use.
func ByName(spec string) (Cluster, error) {
	var n int
	var gpu string
	if _, err := fmt.Sscanf(spec, "%dx%s", &n, &gpu); err != nil {
		return Cluster{}, fmt.Errorf("hardware: bad cluster spec %q (want e.g. 32xH100)", spec)
	}
	switch gpu {
	case "H100", "h100":
		if n%8 != 0 {
			return Cluster{}, fmt.Errorf("hardware: H100 clusters come in multiples of 8 GPUs, got %d", n)
		}
		return DGXH100(n / 8), nil
	case "V100", "v100":
		if n%8 != 0 {
			return Cluster{}, fmt.Errorf("hardware: V100 clusters come in multiples of 8 GPUs, got %d", n)
		}
		return DGXV100(n / 8), nil
	case "A40", "a40":
		if n != 8 {
			return Cluster{}, fmt.Errorf("hardware: only the 8xA40 node is cataloged, got %d", n)
		}
		return A40Node(), nil
	default:
		return Cluster{}, fmt.Errorf("hardware: unknown GPU %q", gpu)
	}
}
