// Package fault is the deterministic fault-injection substrate of the
// quote daemon's chaos harness. An Injector holds a set of rules, each
// keyed to one registered injection point in the RPC server or its
// streamed responses ("rpc.latency", "stream.write.error", …); at each point
// the server asks the injector whether the fault fires. Decisions are
// seeded: a per-key counter indexes a sweep.Seed stream, so two runs that
// visit a point the same number of times draw the same fire/no-fire
// sequence regardless of wall clock or goroutine identity.
//
// The nil *Injector is the production default: every method on a nil
// receiver is a no-op, so the hot path pays one pointer test and nothing
// else when no faults are configured.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// Registered injection-point keys. The key names the site and the fault it
// arms there; Parse rejects anything not in this registry so a typo in a
// -fault spec fails at startup instead of silently injecting nothing.
const (
	// KeyRPCLatency delays an admitted request before dispatch (the rule's
	// duration argument sets the delay).
	KeyRPCLatency = "rpc.latency"
	// KeyRPCError replaces the handler's result with a -32603 error.
	KeyRPCError = "rpc.error"
	// KeyRPCPanic panics inside the handler, exercising panic isolation.
	KeyRPCPanic = "rpc.panic"
	// KeyStreamWriteError fails a swap.simulate progress-line write,
	// simulating a broken or stalled peer mid-stream.
	KeyStreamWriteError = "stream.write.error"
)

// registry maps every legal key to its site description (surfaced by
// Describe and the DESIGN.md fault table).
var registry = map[string]string{
	KeyRPCLatency:       "delay before dispatching an admitted request",
	KeyRPCError:         "replace the handler result with a -32603 error",
	KeyRPCPanic:         "panic inside the request handler",
	KeyStreamWriteError: "fail a stream's progress-line write",
}

// Keys returns the registered injection-point keys, sorted.
func Keys() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns a key's site description ("" for unknown keys).
func Describe(key string) string { return registry[key] }

// Rule arms one injection point: the fault fires with probability Prob on
// each visit, and Delay parameterises the duration-typed fault (latency).
type Rule struct {
	Key   string
	Prob  float64
	Delay time.Duration
}

// point is the per-key runtime state: the rule, the base of its draw
// stream (the seed xor the key's hash), the deterministic draw counter and
// the fired tally.
type point struct {
	rule  Rule
	base  int64
	seq   atomic.Uint64
	fired atomic.Uint64
}

// Injector decides, deterministically per (seed, key, visit index),
// whether a registered fault fires. The zero-size nil injector disables
// everything.
type Injector struct {
	points map[string]*point
}

// New builds an injector from a seed and a rule set. Rules must name
// registered keys, probabilities must lie in [0, 1], and delays must be
// non-negative; duplicate keys are rejected (one rule per point keeps the
// draw sequence unambiguous).
func New(seed int64, rules []Rule) (*Injector, error) {
	in := &Injector{points: make(map[string]*point, len(rules))}
	for _, r := range rules {
		if _, ok := registry[r.Key]; !ok {
			return nil, fmt.Errorf("fault: unknown injection point %q (known: %s)",
				r.Key, strings.Join(Keys(), ", "))
		}
		if r.Prob < 0 || r.Prob > 1 || r.Prob != r.Prob {
			return nil, fmt.Errorf("fault: %s: probability %v outside [0, 1]", r.Key, r.Prob)
		}
		if r.Delay < 0 {
			return nil, fmt.Errorf("fault: %s: negative delay %v", r.Key, r.Delay)
		}
		if _, dup := in.points[r.Key]; dup {
			return nil, fmt.Errorf("fault: duplicate rule for %q", r.Key)
		}
		in.points[r.Key] = &point{rule: r, base: seed ^ int64(fnv1a(r.Key))}
	}
	return in, nil
}

// Parse reads the -fault flag grammar: comma-separated "key=prob" or
// "key=prob:delay" entries, e.g.
//
//	rpc.latency=0.05:5ms,rpc.error=0.03,rpc.panic=0.01
//
// An empty spec yields no rules (and New of no rules injects nothing).
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, rest, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("fault: entry %q: want key=prob[:delay]", part)
		}
		r := Rule{Key: strings.TrimSpace(key)}
		probStr, delayStr, hasDelay := strings.Cut(rest, ":")
		if _, err := fmt.Sscanf(strings.TrimSpace(probStr), "%g", &r.Prob); err != nil {
			return nil, fmt.Errorf("fault: entry %q: bad probability %q", part, probStr)
		}
		if hasDelay {
			d, err := time.ParseDuration(strings.TrimSpace(delayStr))
			if err != nil {
				return nil, fmt.Errorf("fault: entry %q: bad delay %q: %v", part, delayStr, err)
			}
			r.Delay = d
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// NewFromSpec is New over Parse — the one-call form the CLI flag uses.
func NewFromSpec(seed int64, spec string) (*Injector, error) {
	rules, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(seed, rules)
}

// Fire reports whether key's fault fires at this visit. Unarmed keys and
// the nil injector never fire.
func (in *Injector) Fire(key string) bool {
	if in == nil {
		return false
	}
	p, ok := in.points[key]
	if !ok || p.rule.Prob == 0 {
		return false
	}
	n := p.seq.Add(1) - 1
	// The draw is indexed by (seed, key, visit): deterministic under any
	// goroutine interleaving that preserves per-key visit counts.
	u := float64(uint64(sweep.Seed(p.base, int(n+1)))>>11) / (1 << 53)
	if u >= p.rule.Prob {
		return false
	}
	p.fired.Add(1)
	return true
}

// Delay reports whether key's fault fires, and if so for how long — the
// duration-typed point (latency).
func (in *Injector) Delay(key string) (time.Duration, bool) {
	if !in.Fire(key) {
		return 0, false
	}
	return in.points[key].rule.Delay, true
}

// Counts snapshots the per-key fired tallies (keys that never fired are
// omitted). Nil injectors report nil.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	var out map[string]uint64
	for key, p := range in.points {
		if n := p.fired.Load(); n > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[key] = n
		}
	}
	return out
}

// Enabled reports whether any rule is armed (false for nil injectors).
func (in *Injector) Enabled() bool { return in != nil && len(in.points) > 0 }

// fnv1a hashes a key into the draw stream's offset (FNV-1a 64).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
