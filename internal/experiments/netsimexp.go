package experiments

// Validation of the topology-aware network fabric: the hierarchical
// netsim model (per-collective algorithm selection on the declarative
// topology) versus the synthetic silicon's ground-truth collective
// times, with a flat single-fabric model as the ablation. TestClaims
// holds the worst regime to netsimHierBound.

import (
	"context"
	"fmt"
	"math"

	"maya/internal/hardware"
	"maya/internal/netsim"
	"maya/internal/silicon"
	"maya/internal/topo"
)

func init() {
	register("netsim", netsimValidation)
}

// netsimHierBound is the published per-regime error bound of the
// hierarchical model against the collective benchmarks: the silicon's
// protocol-switch quirks wiggle truth by up to ±6%, and the model's
// algorithm selection may legitimately undercut the truth's fixed
// algorithm choice by a few percent more.
const netsimHierBound = 0.15

func netsimValidation(ctx context.Context, e *Env) (*Table, error) {
	cluster := hardware.DGXH100(4) // 32 GPUs, 4 NVSwitch islands
	oracle := silicon.NewOracle(cluster, silicon.DefaultSeed)
	hier := netsim.New(cluster)
	flatTopo, err := topo.ByName("flat", cluster)
	if err != nil {
		return nil, err
	}
	flat := netsim.NewWithTopology(cluster, flatTopo)

	contiguous := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// The communicator shapes of the validation sweep.
	groups := []struct {
		name  string
		ranks []int
	}{
		{"intra-island (8)", contiguous(8)},
		{"cross-node pair", []int{0, 8}},
		{"one-per-node (4)", []int{0, 8, 16, 24}},
		{"world (32)", contiguous(32)},
	}
	ops := []string{
		"ncclAllReduce", "ncclAllGather", "ncclReduceScatter",
		"ncclBroadcast", "ncclAllToAll", "ncclSend",
	}
	sizes := []int64{1 << 20, 1 << 26}
	if e.Scale == Full {
		sizes = []int64{1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28}
	}

	t := &Table{
		ID:     "netsim",
		Title:  "Hierarchical network model vs ground-truth collectives (DGXH100 x4)",
		Header: []string{"communicator", "points", "hier MAPE", "hier max", "flat MAPE", "flat max"},
	}
	var worstMAPE float64
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var hierSum, hierMax, flatSum, flatMax float64
		points := 0
		for _, op := range ops {
			// Send is point-to-point: only meaningful on the pair.
			if op == "ncclSend" && len(g.ranks) != 2 {
				continue
			}
			for _, b := range sizes {
				truth := oracle.CollectiveTime(op, b, g.ranks).Seconds()
				if truth <= 0 {
					continue
				}
				he := math.Abs(hier.EstimateCollective(op, b, g.ranks, len(g.ranks)).Seconds()-truth) / truth
				fe := math.Abs(flat.EstimateCollective(op, b, g.ranks, len(g.ranks)).Seconds()-truth) / truth
				hierSum += he
				flatSum += fe
				hierMax = math.Max(hierMax, he)
				flatMax = math.Max(flatMax, fe)
				points++
			}
		}
		hierMAPE := hierSum / float64(points)
		flatMAPE := flatSum / float64(points)
		worstMAPE = math.Max(worstMAPE, hierMAPE)
		t.Rows = append(t.Rows, []string{
			g.name, fmt.Sprint(points),
			pct(hierMAPE), pct(hierMax), pct(flatMAPE), pct(flatMax),
		})
	}
	t.claim("worst_hier_mape", worstMAPE)
	t.Notes = append(t.Notes,
		fmt.Sprintf("hierarchical model holds a %.0f%% per-regime MAPE bound (worst regime %.1f%%); truth includes the silicon's ±6%% protocol-switch quirks", netsimHierBound*100, worstMAPE*100),
		"flat ablation collapses the fabric to one level: its cross-node error is the fidelity the hierarchy buys",
	)
	return t, nil
}
