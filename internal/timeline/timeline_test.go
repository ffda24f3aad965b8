package timeline

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// tableIII returns the chain timings of the paper's Table III.
func tableIII() Chains { return Chains{TauA: 3, TauB: 4, EpsB: 1} }

func TestChainsValidate(t *testing.T) {
	tests := []struct {
		name    string
		c       Chains
		wantErr bool
	}{
		{"tableIII", tableIII(), false},
		{"zeroTauA", Chains{TauA: 0, TauB: 4, EpsB: 1}, true},
		{"zeroTauB", Chains{TauA: 3, TauB: 0, EpsB: 1}, true},
		{"zeroEpsB", Chains{TauA: 3, TauB: 4, EpsB: 0}, true},
		{"epsEqualsTau", Chains{TauA: 3, TauB: 4, EpsB: 4}, true},
		{"epsExceedsTau", Chains{TauA: 3, TauB: 4, EpsB: 5}, true},
		{"fastChains", Chains{TauA: 0.1, TauB: 0.2, EpsB: 0.05}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadTiming) {
				t.Errorf("error should wrap ErrBadTiming, got %v", err)
			}
		})
	}
}

func TestIdealizedMatchesEq13(t *testing.T) {
	// With Table III (τa=3, τb=4, εb=1):
	// t1=0, t2=3, t3=7, t4=8, t5=tb=11, t6=ta=11, t7=15, t8=14.
	tl, err := Idealized(tableIII())
	if err != nil {
		t.Fatalf("Idealized: %v", err)
	}
	want := Timeline{
		T0: 0, T1: 0, T2: 3, T3: 7, T4: 8,
		T5: 11, T6: 11, T7: 15, T8: 14, TA: 11, TB: 11,
	}
	if tl != want {
		t.Errorf("Idealized = %+v, want %+v", tl, want)
	}
}

func TestIdealizedInvalid(t *testing.T) {
	if _, err := Idealized(Chains{TauA: -1, TauB: 4, EpsB: 1}); !errors.Is(err, ErrBadTiming) {
		t.Errorf("want ErrBadTiming, got %v", err)
	}
}

func TestIdealizedSatisfiesOrdering(t *testing.T) {
	c := tableIII()
	tl, err := Idealized(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Validate(c); err != nil {
		t.Errorf("idealized timeline violates Eq. 12: %v", err)
	}
}

func TestWithWaits(t *testing.T) {
	c := tableIII()
	tl, err := WithWaits(c, 1, 2, 0.5, 0.25)
	if err != nil {
		t.Fatalf("WithWaits: %v", err)
	}
	if err := tl.Validate(c); err != nil {
		t.Errorf("timeline with waits violates Eq. 12: %v", err)
	}
	if tl.T1 != 1 {
		t.Errorf("T1 = %v, want 1", tl.T1)
	}
	if tl.T2 != 1+3+2 {
		t.Errorf("T2 = %v, want 6", tl.T2)
	}
	// Zero waits must coincide with the idealized timeline.
	tl0, err := WithWaits(c, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Idealized(c)
	if err != nil {
		t.Fatal(err)
	}
	if tl0 != ideal {
		t.Errorf("WithWaits(0,0,0,0) = %+v, want idealized %+v", tl0, ideal)
	}
}

func TestWithWaitsNegative(t *testing.T) {
	if _, err := WithWaits(tableIII(), -1, 0, 0, 0); !errors.Is(err, ErrBadTiming) {
		t.Errorf("negative wait should fail, got %v", err)
	}
	if _, err := WithWaits(tableIII(), 0, 0, 0, -0.1); !errors.Is(err, ErrBadTiming) {
		t.Errorf("negative wait4 should fail, got %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := tableIII()
	base, err := Idealized(c)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Timeline)
	}{
		{"t2BeforeConfirmation", func(tl *Timeline) { tl.T2 = tl.T1 + c.TauA - 1 }},
		{"t3BeforeConfirmation", func(tl *Timeline) { tl.T3 = tl.T2 + c.TauB - 0.5 }},
		{"t4BeforeMempool", func(tl *Timeline) { tl.T4 = tl.T3 }},
		{"receiptAfterExpiryB", func(tl *Timeline) { tl.TB = tl.T5 - 1 }},
		{"receiptAfterExpiryA", func(tl *Timeline) { tl.TA = tl.T6 - 1 }},
		{"wrongT7", func(tl *Timeline) { tl.T7 += 2 }},
		{"wrongT8", func(tl *Timeline) { tl.T8 -= 2 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			tl := base
			m.mutate(&tl)
			if err := tl.Validate(c); !errors.Is(err, ErrBadTiming) {
				t.Errorf("corrupted timeline should fail validation, got %v", err)
			}
		})
	}
}

func TestWithWaitsOrderingProperty(t *testing.T) {
	// Property: any non-negative waits produce a timeline satisfying Eq. 12,
	// and waiting only postpones events.
	c := tableIII()
	ideal, err := Idealized(c)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(w1, w2, w3, w4 float64) bool {
		a := math.Mod(math.Abs(w1), 50)
		b := math.Mod(math.Abs(w2), 50)
		d := math.Mod(math.Abs(w3), 50)
		e := math.Mod(math.Abs(w4), 50)
		tl, err := WithWaits(c, a, b, d, e)
		if err != nil {
			return false
		}
		if tl.Validate(c) != nil {
			return false
		}
		return tl.T5 >= ideal.T5 && tl.T6 >= ideal.T6 && tl.T7 >= ideal.T7 && tl.T8 >= ideal.T8
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
