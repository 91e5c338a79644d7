package runtime

import (
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/metrics"
)

// MRASSP — stale synchronous parallel evaluation — is the point between
// BSP and AP that Das & Zaniolo argue often beats both: workers run
// supersteps like BSP (buffer a whole pass, flush at superstep end),
// but the barrier is relaxed — a worker may run up to Staleness
// supersteps ahead of the slowest peer before blocking on stragglers.
// Staleness = 0 degenerates to lockstep; Staleness = ∞ would be AP.
//
// This file is the whole mode: a FlushPolicy (barrier-style superstep
// batching), a BarrierPolicy (the staleness gate over per-peer EndPhase
// counts), and a registration — the policy-layer seams make a new
// consistency model a one-file addition.
//
// Termination uses the polling master (like the async family): workers
// keep answering StatsRequest while blocked at the gate, so quiescence
// and ε detection work unchanged. Correctness rests on Theorem 3, which
// licenses any interleaving of fold/propagate for MRA programs — SSP
// merely constrains the schedule the theorem already covers.

func init() {
	registerMode(MRASSP, false, newSSPPolicies)
}

func newSSPPolicies(cfg Config, plan *compiler.Plan, self int, reg *metrics.Registry) policySet {
	return policySet{
		// Superstep batching: buffers flush only when the step ends
		// (barrier semantics), never on emit or the τ timer.
		flush:   barrierFlush{},
		sched:   withPriorityHold(baseScheduler(cfg, plan), cfg, plan, reg),
		barrier: &sspBarrier{staleness: cfg.Staleness},
		pass:    (*worker).scanPass,
	}
}

// sspBarrier implements the staleness gate. steps counts the supersteps
// this worker has completed; each completion broadcasts an EndPhase
// marker, and handle() counts markers per sender in w.peerSteps — the
// vector clock the gate reads.
type sspBarrier struct {
	staleness int
	steps     int
}

func (b *sspBarrier) setup(*worker) {}

func (b *sspBarrier) beginPass(w *worker) bool { return w.drainInbox() }

func (b *sspBarrier) endPass(w *worker, progressed bool) bool {
	// A superstep boundary is SSP's snapshot safe point: join a pending
	// marker episode (combining aggregates) or write a local stale
	// snapshot (selective aggregates, Theorem 3) — and the membership
	// safe point: join a pending fence (membership.go).
	w.maybeSnapshot()
	w.maybeJoinFence()
	if !progressed {
		if w.pol.sched.release() {
			// §5.4: held low-priority deltas are used when the worker
			// would otherwise idle.
			return true
		}
		// An idle worker's clock ticks freely toward the frontier, so a
		// fast peer blocked at the gate can never deadlock on a peer
		// that simply has no work: the straggler catches up one marker
		// per idle pass until the gap closes.
		if b.steps < w.maxPeerSteps() {
			b.advance(w)
			return true
		}
		w.flushAll()
		w.idleWait()
		return true
	}
	w.passes++
	w.pol.sched.rearm()
	b.advance(w)
	// The gate: before starting superstep steps+1, every peer must have
	// completed at least steps − Staleness.
	b.awaitPeerSteps(w, b.steps-b.staleness)
	return true
}

// advance completes one superstep: flush the pass's buffered updates,
// then fence them with EndPhase markers (data lane, so per-pair
// ordering guarantees the data lands first). Markers carry the 1-based
// completed-step count; receivers keep the max, so duplicates are
// no-ops and a dropped marker is covered by any later one.
func (b *sspBarrier) advance(w *worker) {
	w.flushAll()
	b.steps++
	w.rounds++
	w.broadcastEndPhase(b.steps)
	w.maybeStaleSnapshot(b.steps)
}

// minPeerSteps / maxPeerSteps scan the EndPhase vector clock, skipping
// crash-orphaned and non-member slots — the skip is what unwedges a
// gated worker blocked on a dead peer's frozen clock once the Orphan
// verdict lands.
func (w *worker) minPeerSteps() int {
	first := true
	least := 0
	skipped := false
	for j, s := range w.peerSteps {
		if j == w.id {
			continue
		}
		if w.peerSkip(j) {
			skipped = true
			continue
		}
		if first || s < least {
			least, first = s, false
		}
	}
	if first && skipped {
		// Peers exist but every one is down or outside the membership:
		// nothing to gate on (the fence, not the gate, synchronises next).
		return maxSteps
	}
	return least
}

func (w *worker) maxPeerSteps() int {
	most := 0
	for j, s := range w.peerSteps {
		if !w.peerSkip(j) && s > most {
			most = s
		}
	}
	return most
}

// awaitPeerSteps blocks until every peer has completed at least need
// supersteps, handling all control traffic (stats polls, Stop) while
// blocked. The blocked time is accounted as straggler wait — the SSP
// cost surfaced through Result.Workers. A stalled wait retransmits this
// worker's own marker (a lost one may be what blocks a peer), and a
// snapshot episode requested while blocked is joined inline — a gated
// worker that ignored SnapRequest would deadlock the episode against
// peers already waiting for its mark.
func (b *sspBarrier) awaitPeerSteps(w *worker, need int) {
	if w.nw == 1 || need <= 0 {
		return
	}
	var start time.Time
	// A parked peer stops advancing its superstep clock, so the gate must
	// also yield to a pending Park — the park handshake (not the gate) is
	// the epoch's final synchronisation point.
	for !w.stopped && !w.dead.Load() && !w.parkPending() && w.minPeerSteps() < need {
		if start.IsZero() {
			start = time.Now()
		}
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				goto done
			}
			w.handle(m)
			w.maybeSnapshot()
			// A membership fence requested while gated is joined inline
			// for the same reason as an episode: peers mid-fence wait for
			// this worker's cut marker.
			w.maybeJoinFence()
		case <-time.After(markerResend):
			w.met.markerResends.Inc()
			w.broadcastEndPhase(b.steps)
		}
	}
done:
	if !start.IsZero() {
		blocked := time.Since(start)
		w.stragglerWait += blocked
		w.met.stragglerUS.Observe(uint64(blocked.Microseconds()))
	}
}
