package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNilInjectorIsInert checks the production default: every method on a
// nil injector no-ops.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Fire(KeyRPCError) {
		t.Error("nil injector fired")
	}
	if d, ok := in.Delay(KeyRPCLatency); ok || d != 0 {
		t.Errorf("nil injector delayed: %v %v", d, ok)
	}
	if in.Counts() != nil {
		t.Error("nil injector reported counts")
	}
	if in.Enabled() {
		t.Error("nil injector enabled")
	}
}

// TestParseGrammar walks the -fault spec grammar.
func TestParseGrammar(t *testing.T) {
	rules, err := Parse(" rpc.latency=0.05:5ms, rpc.error=0.5 ,,stream.write.error=1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Rule{
		{Key: KeyRPCLatency, Prob: 0.05, Delay: 5 * time.Millisecond},
		{Key: KeyRPCError, Prob: 0.5},
		{Key: KeyStreamWriteError, Prob: 1},
	}
	if len(rules) != len(want) {
		t.Fatalf("rules = %+v, want %+v", rules, want)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	if r, err := Parse(""); err != nil || r != nil {
		t.Errorf("empty spec = %v, %v; want no rules, no error", r, err)
	}

	for _, bad := range []string{
		"rpc.latency",                 // no '='
		"rpc.latency=zebra",           // bad probability
		"rpc.latency=0.1:mghz",        // bad delay
		"nope.where=0.1",              // unregistered key (caught by New)
		"rpc.error=1.5",               // probability out of range (caught by New)
		"rpc.latency=0.1:-5ms",        // negative delay (caught by New)
		"rpc.error=0.1,rpc.error=0.2", // duplicate key (caught by New)
	} {
		rules, perr := Parse(bad)
		if perr == nil {
			_, perr = New(1, rules)
		}
		if perr == nil {
			t.Errorf("spec %q: want an error", bad)
		}
	}
}

// TestDeterminism checks the core contract: the same (seed, key, visit
// index) draws the same decision, and different seeds draw different
// sequences.
func TestDeterminism(t *testing.T) {
	const n = 2000
	mk := func(seed int64) []bool {
		in, err := NewFromSpec(seed, "rpc.error=0.3")
		if err != nil {
			t.Fatalf("NewFromSpec: %v", err)
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = in.Fire(KeyRPCError)
		}
		return out
	}
	a, b, c := mk(42), mk(42), mk(43)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Error("same seed drew different sequences")
	}
	if !diff {
		t.Error("different seeds drew identical sequences")
	}
}

// TestFireRate checks the empirical rate tracks the configured
// probability, and that counts tally fires.
func TestFireRate(t *testing.T) {
	in, err := New(7, []Rule{{Key: KeyRPCError, Prob: 0.25}, {Key: KeyRPCPanic, Prob: 0}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Fire(KeyRPCError) {
			fired++
		}
		if in.Fire(KeyRPCPanic) {
			t.Fatal("probability-0 rule fired")
		}
		if in.Fire(KeyStreamWriteError) {
			t.Fatal("unarmed key fired")
		}
	}
	if rate := float64(fired) / n; math.Abs(rate-0.25) > 0.02 {
		t.Errorf("fire rate = %.3f, want 0.25 +/- 0.02", rate)
	}
	counts := in.Counts()
	if counts[KeyRPCError] != uint64(fired) {
		t.Errorf("counts = %v, want %s=%d", counts, KeyRPCError, fired)
	}
	if _, ok := counts[KeyRPCPanic]; ok {
		t.Errorf("counts = %v; never-fired key present", counts)
	}
	if !in.Enabled() {
		t.Error("armed injector not enabled")
	}
}

// TestDelay checks the duration-typed points return their configured
// delay exactly when they fire.
func TestDelay(t *testing.T) {
	in, err := NewFromSpec(1, "rpc.latency=1:25ms")
	if err != nil {
		t.Fatalf("NewFromSpec: %v", err)
	}
	d, ok := in.Delay(KeyRPCLatency)
	if !ok || d != 25*time.Millisecond {
		t.Errorf("Delay = %v, %v; want 25ms, true", d, ok)
	}
	if _, ok := in.Delay(KeyStreamWriteError); ok {
		t.Error("unarmed delay fired")
	}
}

// TestRegistry checks the key registry surface the docs and the spec
// validation lean on.
func TestRegistry(t *testing.T) {
	keys := Keys()
	if len(keys) != 4 {
		t.Fatalf("Keys() = %v, want 4 registered points", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not sorted: %v", keys)
		}
	}
	for _, k := range keys {
		if Describe(k) == "" {
			t.Errorf("key %q has no description", k)
		}
	}
	if Describe("no.such.point") != "" {
		t.Error("unknown key has a description")
	}
	for _, k := range []string{KeyRPCLatency, KeyRPCError, KeyRPCPanic, KeyStreamWriteError} {
		if !strings.Contains(strings.Join(keys, " "), k) {
			t.Errorf("constant %q missing from registry", k)
		}
	}
}

// TestFireSequencePinned pins the first 1000 fire decisions of every
// registered key at seed 42, at the chaos harness's probabilities and at
// 0.5: each digest hashes the decisions in visit order. A change to the
// draw (its mix, the key hash or the visit indexing) moves a digest.
func TestFireSequencePinned(t *testing.T) {
	want := map[string]string{
		KeyRPCError:         "9e30b9f60e6f5547a118731d06d60607",
		KeyRPCLatency:       "8098535081d4030d87963966d638a4a1",
		KeyRPCPanic:         "5e11a11a69472b6afaf61c1734e55dab",
		KeyStreamWriteError: "f76571ebc37e5bbfca1cbde1b4b7f974",
	}
	probs := []float64{0.01, 0.03, 0.05, 0.5}
	for _, key := range Keys() {
		h := sha256.New()
		for _, p := range probs {
			in, err := New(42, []Rule{{Key: key, Prob: p}})
			if err != nil {
				t.Fatal(err)
			}
			var seq [1000]byte
			for i := range seq {
				if in.Fire(key) {
					seq[i] = 1
				}
			}
			h.Write(seq[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)[:16]); got != want[key] {
			t.Errorf("%s: fire decisions hash %s, want %s", key, got, want[key])
		}
	}
}
