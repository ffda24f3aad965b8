package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/bench/internal/workload"
)

// runTrace runs the traced pass (bench/trace) over every workload and
// returns exactly the per-layer metrics BENCHMARK.json lists. Every
// traced run covers all four workloads, because each must report every
// per-layer metric.
func runTrace(cfg runConfig, sp spec, w io.Writer) (*workload.LayerReport, error) {
	metrics := filepath.Join(cfg.work, "layers.json")
	cmd := command(cfg.bin("trace"), "-seed", strconv.FormatInt(cfg.seed, 10), "-root", cfg.root,
		"-metrics", metrics, "-o", filepath.Join(cfg.work, "spans.json"))
	cmd.Dir = cfg.work
	cmd.Stdout = w
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		return nil, err
	}
	var rep workload.LayerReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", metrics, err)
	}
	out := make(map[string]workload.Metric, len(sp.PerLayer))
	for _, m := range sp.PerLayer {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return nil, fmt.Errorf("per-layer metric %s (%s) in BENCHMARK.json not reported as such", m.Name, m.Unit)
		}
		out[m.Name] = got
	}
	rep.Metrics = out
	return &rep, nil
}
