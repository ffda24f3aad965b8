package main

import "testing"

// TestReferenceUnitAllocatesNothing pins the property the host-speed probe
// relies on: the unit's time does not include garbage collection.
func TestReferenceUnitAllocatesNothing(t *testing.T) {
	st := newRefState()
	if n := testing.AllocsPerRun(20, func() { st.unit(1) }); n != 0 {
		t.Errorf("reference unit allocates %v times per run, want 0", n)
	}
}

func TestHostSpeedFactor(t *testing.T) {
	var h hostSpeed
	h.probe(3)
	h.probe(1)
	if h.units != 4 || h.busy <= 0 {
		t.Fatalf("%d units in %v, want 4 in a positive time", h.units, h.busy)
	}
	if f := h.factor(); !(f > 0) {
		t.Errorf("speed factor %v, want a positive number", f)
	}
	t.Logf("unit %v, factor %.3f", h.unitTime(), h.factor())
}
