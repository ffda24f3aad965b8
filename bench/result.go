package main

import (
	"fmt"
	"os"

	"repro/bench/internal/workload"
)

// End-to-end metrics: every workload reports each one, each measured on
// that workload's own operations (see README.md). mTail is reported by
// the quote workloads only and is not one of BENCHMARK.json's metrics: on
// a 2-vCPU host it sits in millisecond scheduling stalls and did not
// repeat within any useful bound.
const (
	mSetup      = "setup_s"
	mP50        = "p50_ms"
	mTail       = "p99_ms"
	mThroughput = "closed_loop_per_s"
	mCPU        = "cpu_ms_per_op"
	mRSS        = "peak_rss_mb"
)

// result is one workload's run.
type result struct {
	Workload string `json:"workload"`
	// Metrics are the end-to-end metrics, timings scaled to the reference
	// speed (see host.go); Raw holds them as measured.
	Metrics map[string]workload.Metric `json:"metrics"`
	Raw     map[string]workload.Metric `json:"raw"`
	kinds   map[string]scaling
	// Layers are the per-layer counters the end-to-end run reads off the
	// wire: run validity and the daemon's own statistics.
	Layers     map[string]workload.Metric `json:"layers,omitempty"`
	Attempted  int                        `json:"attempted"`
	Failed     int                        `json:"failed"`
	FailFrac   float64                    `json:"fail_frac"`
	Mismatches []string                   `json:"mismatches,omitempty"`
	// Invalid lists why the run's load did not follow its schedule.
	Invalid []string          `json:"invalid,omitempty"`
	Phases  map[string]string `json:"phases"`

	host hostSpeed
}

// scaling says how a metric follows the host's speed.
type scaling int

const (
	plain    scaling = iota // not a time: memory, counts
	timeLike                // multiplied by the speed factor
	rateLike                // divided by it
)

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]workload.Metric{}, Raw: map[string]workload.Metric{},
		kinds: map[string]scaling{}, Layers: map[string]workload.Metric{}}
}

func (r *result) metric(name string, v float64, unit string, n int, k scaling) {
	r.Raw[name] = workload.Metric{Value: v, Unit: unit, N: n}
	r.kinds[name] = k
}

func (r *result) layer(name string, v float64, unit string, n int, base string) {
	r.Layers[name] = workload.Metric{Value: v, Unit: unit, N: n, Base: base}
}

// ratio records hits/(hits+misses), with its base.
func (r *result) ratio(name string, hits, misses uint64) {
	v := 0.0
	if hits+misses > 0 {
		v = float64(hits) / float64(hits+misses)
	}
	r.layer(name, v, "ratio", int(hits+misses), fmt.Sprintf("%d/%d", hits, hits+misses))
}

func (r *result) count(name string, n uint64) {
	r.layer(name, float64(n), "count", 1, "")
}

// mismatch records a correctness failure: it counts as a failed operation
// and fails the run.
func (r *result) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "bench: MISMATCH:", msg)
	r.Mismatches = append(r.Mismatches, msg)
	r.Failed++
}

func (r *result) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "bench: INVALID RUN:", msg)
	r.Invalid = append(r.Invalid, msg)
}

// finish derives the failure fraction from the tallies and scales the
// timings to the reference speed.
func (r *result) finish() {
	if r.Attempted > 0 {
		r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	}
	f := r.host.factor()
	r.layer("bench.ref_unit_us", float64(r.host.unitTime())/1e3, "us", r.host.units, "")
	r.layer("bench.speed_factor", f, "ratio", r.host.units, "")
	for name, m := range r.Raw {
		switch r.kinds[name] {
		case timeLike:
			m.Value *= f
		case rateLike:
			m.Value /= f
		}
		r.Metrics[name] = m
	}
}
