package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the harness reads: metric
// declarations with their regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &runSet{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// untraced collects, per workload, the values of every end-to-end
// metric over the set's untraced runs, and the result digest per seed.
func (s *runSet) untraced() (values map[string]map[string][]float64, digests map[string]map[uint64]string) {
	values, digests = map[string]map[string][]float64{}, map[string]map[uint64]string{}
	for _, r := range s.Runs {
		if r.Trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload], digests[r.Workload] = map[string][]float64{}, map[uint64]string{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
		digests[r.Workload][r.Seed] = r.Digest
	}
	return values, digests
}

// compareFiles prints, per workload × end-to-end metric, whether the
// second set of runs is the same as the first, worse, or unresolved
// (either set's spread is wider than the metric's bound), and whether
// the result digests agree. It reports true when anything is worse.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	va, da := a.untraced()
	vb, db := b.untraced()
	worse := false
	fmt.Fprintf(out, "%-18s %-16s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "spread a", "spread b", "bound", "verdict")
	for _, name := range workloadNames {
		if va[name] == nil || vb[name] == nil {
			fmt.Fprintf(out, "%-18s missing from one of the files\n", name)
			worse = true
			continue
		}
		for _, mm := range man.EndToEnd {
			xa, xb := va[name][mm.Name], vb[name][mm.Name]
			ma, mb := median(xa), median(xb)
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "same"
			regressed := mb > ma*(1+mm.Bound)
			if mm.Better == "higher" {
				regressed = mb < ma*(1-mm.Bound)
			}
			switch {
			case math.Max(sa, sb) > mm.Bound:
				verdict = "unresolved"
			case regressed:
				verdict = "WORSE"
				worse = true
			}
			fmt.Fprintf(out, "%-18s %-16s %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%  %s\n",
				name, mm.Name, ma, mb, 100*sa, 100*sb, 100*mm.Bound, verdict)
		}
		for seed, d := range da[name] {
			if other, ok := db[name][seed]; ok && other != d {
				fmt.Fprintf(out, "%-18s result_digest at seed %d: %s vs %s  DIFFERS\n", name, seed, d, other)
				worse = true
			} else if ok {
				fmt.Fprintf(out, "%-18s result_digest at seed %d: %s  equal\n", name, seed, d)
			}
		}
	}
	return worse, nil
}
