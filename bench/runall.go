package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is the content of an -out file: every run of every workload,
// untraced and traced, in the order they ran.
type runSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in a fresh
// child process of this binary so no workload inherits another's heap,
// pools or caches. It prints every metric by name and unit and
// reports whether every run was correct.
func runAll(ctx context.Context, cfg config, runs int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var set runSet
	ok := true
	for run := 0; run < runs; run++ {
		for _, name := range workloadNames {
			for _, trace := range []int{0, 1} {
				resFile := filepath.Join(buildDir, fmt.Sprintf("result-%s-%d.json", name, trace))
				args := []string{
					"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace), "-out", resFile,
				}
				if cfg.tiny {
					args = append(args, "-tiny")
				}
				os.Remove(resFile)
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
				runErr := cmd.Run()
				data, err := os.ReadFile(resFile)
				if err != nil {
					return false, fmt.Errorf("%s (trace %d): %v (no result: %w)", name, trace, runErr, err)
				}
				os.Remove(resFile)
				res := &result{}
				if err := json.Unmarshal(data, res); err != nil {
					return false, err
				}
				set.Runs = append(set.Runs, res)
				ok = ok && res.Correct && runErr == nil
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return false, err
		}
	}
	return ok, nil
}
