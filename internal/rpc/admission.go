package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// admission is the server's load-shedding front door: a bounded in-flight
// semaphore with a short, deadline-aware wait queue. A request that finds
// a free slot is admitted immediately; when the semaphore is saturated it
// may queue — but only up to queueDepth deep and only for queueWait (or
// its own context deadline, whichever is sooner). Anything beyond that is
// shed with CodeOverloaded and a retryAfterMs hint, so overload degrades
// into fast, explicit rejections instead of unbounded queueing: the
// service-layer analogue of the game's timeout discipline, where refusing
// to wait indefinitely is what keeps outcomes correct under adversarial
// delay.
//
// Only the expensive methods pass through admission (swap.solve,
// scenario.diff, swap.simulate streams — which hold their slot for the
// stream's lifetime). scenario.list, swapd.stats and /healthz stay
// exempt: observability must keep answering precisely when the daemon is
// shedding.
type admission struct {
	sem        chan struct{}
	queueDepth int64
	queueWait  time.Duration
	shedWindow time.Duration

	queued   atomic.Int64 // requests waiting for a slot right now
	admitted atomic.Uint64
	enqueued atomic.Uint64 // admissions that had to queue first
	shed     atomic.Uint64
	lastShed atomic.Int64 // UnixNano of the most recent shed, 0 = never
}

// newAdmission sizes the controller; the Config defaults flow in here.
func newAdmission(maxInflight, queueDepth int, queueWait, shedWindow time.Duration) *admission {
	return &admission{
		sem:        make(chan struct{}, maxInflight),
		queueDepth: int64(queueDepth),
		queueWait:  queueWait,
		shedWindow: shedWindow,
	}
}

// acquire claims an in-flight slot, queueing briefly when saturated. A nil
// return is an admission and must be paired with release; otherwise the
// returned error is the CodeOverloaded shed response, or CodeCanceled
// when the caller's context is cancelled while it queues. A cancelled
// caller has gone away, not been turned away: it is no shed, so it
// neither counts in shed nor arms the /healthz window.
func (a *admission) acquire(ctx context.Context) *Error {
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	// Saturated: take a queue slot if one is free.
	if a.queued.Add(1) > a.queueDepth {
		a.queued.Add(-1)
		return a.reject()
	}
	defer a.queued.Add(-1)
	a.enqueued.Add(1)
	wait := a.queueWait
	// Deadline-aware: never queue past the request's own deadline — the
	// caller would only discard the slot it waited for.
	if deadline, ok := ctx.Deadline(); ok {
		if until := time.Until(deadline); until < wait {
			wait = until
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-timer.C:
		return a.reject()
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.Canceled) {
			return Errorf(CodeCanceled, "request cancelled while queued for admission")
		}
		return a.reject()
	}
}

// release returns an admitted request's slot.
func (a *admission) release() { <-a.sem }

// reject records a shed and builds the CodeOverloaded response. The
// retryAfterMs hint tells well-behaved clients when a retry has a chance:
// one full queue wait from now, after the currently queued requests have
// either been admitted or shed.
func (a *admission) reject() *Error {
	a.shed.Add(1)
	a.lastShed.Store(time.Now().UnixNano())
	rerr := Errorf(CodeOverloaded, "overloaded: %d in flight and %d queued; retry after %dms",
		len(a.sem), a.queued.Load(), a.retryAfterMs())
	rerr.Data = map[string]any{"retryAfterMs": a.retryAfterMs()}
	return rerr
}

// retryAfterMs is the shed responses' backoff hint in milliseconds.
func (a *admission) retryAfterMs() int {
	ms := int(a.queueWait / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// overloaded reports whether a shed happened within the shed window — the
// condition under which /healthz degrades to 503 so load balancers steer
// traffic away while the daemon recovers.
func (a *admission) overloaded() bool {
	last := a.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < a.shedWindow
}

// admissionStats snapshots the controller for swapd.stats.
type admissionStats struct {
	MaxInflight int    `json:"maxInflight"`
	InFlight    int    `json:"inFlight"`
	Queued      int64  `json:"queued"`
	Admitted    uint64 `json:"admitted"`
	QueuedTotal uint64 `json:"queuedTotal"`
	Shed        uint64 `json:"shed"`
	Overloaded  bool   `json:"overloaded"`
}

func (a *admission) stats() admissionStats {
	return admissionStats{
		MaxInflight: cap(a.sem),
		InFlight:    len(a.sem),
		Queued:      a.queued.Load(),
		Admitted:    a.admitted.Load(),
		QueuedTotal: a.enqueued.Load(),
		Shed:        a.shed.Load(),
		Overloaded:  a.overloaded(),
	}
}
