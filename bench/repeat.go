package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// repeatRow is one (workload, metric) pair across -repeat invocations.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// Range is (max-min)/median; IQR is (q3-q1)/median.
	Range float64 `json:"range"`
	IQR   float64 `json:"iqr"`
	Bound float64 `json:"bound"`
	// Over reports a range above the metric's BENCHMARK.json bound.
	Over bool `json:"over"`
}

// repeatRuns runs the benchmark n times, each a fresh invocation of this
// program with the same flags, and reports each end-to-end metric's
// median, quartiles and spread, flagging spreads above their bounds.
func repeatRuns(cfg runConfig, sp spec, names []string, seconds, n int, w io.Writer) ([]repeatRow, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			out := filepath.Join(cfg.work, fmt.Sprintf("run-%d-%s.json", i, name))
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(seconds), "-root", cfg.root, "-o", out)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("invocation %d of %s: %w", i+1, name, err)
			}
			rep, err := readReport(out)
			if err != nil {
				return nil, err
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range rep.Results[0].Metrics {
				values[name][k] = append(values[name][k], m.Value)
			}
		}
	}
	var rows []repeatRow
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "range", "iqr", "bound")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			vs := values[name][m.Name]
			if len(vs) == 0 {
				continue
			}
			row := repeatRow{Workload: name, Metric: m.Name, Unit: m.Unit, Values: vs, Median: median(vs), Bound: m.Bound}
			row.Q1, row.Q3 = quartiles(vs)
			row.Range = (slices.Max(vs) - slices.Min(vs)) / row.Median
			row.IQR = (row.Q3 - row.Q1) / row.Median
			row.Over = row.Range > m.Bound
			flag := ""
			if row.Over {
				flag = "  SPREAD ABOVE BOUND"
			}
			fmt.Fprintf(w, "%-13s %-18s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				name, m.Name, row.Median, row.Q1, row.Q3, row.Range, row.IQR, m.Bound, flag)
			rows = append(rows, row)
		}
	}
	return rows, nil
}
