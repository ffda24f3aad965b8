package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The host's speed drifts. On the 2-vCPU VM this benchmark was built on, a
// fixed loop took 6 ms or 11 ms depending on what ran beside the VM, and
// the share of slow time moved by tens of percent over minutes, so a run's
// raw timings moved with it. Every run therefore also times a fixed
// reference computation while the programs under test are idle, and
// reports each timing scaled to the speed at which that reference takes
// refUnit (README.md, "Host-speed scaling").
const (
	// refUnit is the reference unit's nominal time: a timing is reported
	// as measured × refUnit / (the unit's mean time during the run).
	refUnit = 300 * time.Microsecond
	// batchProbeUnits units are timed after every run of a batch program.
	batchProbeUnits = 10
)

// refState holds the reference unit's buffers. The unit allocates nothing
// once they exist, so the driver's garbage collector, whose cost grows
// with the response bodies a run keeps, does not enter its time.
type refState struct {
	xs  []float64
	m   map[int]float64
	buf []byte
	sum float64
}

func newRefState() *refState {
	return &refState{xs: make([]float64, 2000), m: make(map[int]float64, 2048), buf: make([]byte, 0, 64)}
}

// unit is a fixed mix of the kinds of work the programs under test do:
// floating-point special functions, sorting, hashing and number
// formatting.
func (st *refState) unit(seed uint64) {
	x := seed*0x9e3779b97f4a7c15 | 1
	for i := range st.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		st.xs[i] = float64(x>>11) / (1 << 53)
	}
	s := 0.0
	for _, v := range st.xs {
		s += math.Exp(-v*v) * math.Log1p(v)
	}
	sort.Float64s(st.xs)
	clear(st.m)
	for i := 0; i < 1000; i++ {
		st.m[i*7919%1543] += st.xs[i]
	}
	for i := 0; i < 200; i++ {
		st.buf = strconv.AppendFloat(st.buf[:0], st.xs[i*10], 'g', -1, 64)
		s += float64(len(st.buf))
	}
	st.sum += s + float64(len(st.m))
}

// hostSpeed collects the reference unit's time over a run. It is used by
// one goroutine at a time.
type hostSpeed struct {
	busy  time.Duration
	units int
	st    *refState
}

// probe runs n units back to back on the calling goroutine. Call it only
// while the programs under test are idle.
func (h *hostSpeed) probe(n int) {
	if h.st == nil {
		h.st = newRefState()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		h.st.unit(uint64(h.units + i + 1))
	}
	h.busy += time.Since(start)
	h.units += n
}

// unitTime is the unit's mean time over the run. A mean, not a median: the
// timings it scales span many of the host's fast and slow stretches, which
// enter both in proportion to their length.
func (h *hostSpeed) unitTime() time.Duration {
	if h.units == 0 {
		return 0
	}
	return h.busy / time.Duration(h.units)
}

// factor is what a timing of this run is multiplied by: refUnit over the
// unit's mean time. A rate is divided by it.
func (h *hostSpeed) factor() float64 {
	return refUnit.Seconds() / h.unitTime().Seconds()
}
