package runtime

import (
	stdruntime "runtime"
	"time"

	"powerlog/internal/transport"
)

// BarrierPolicy implementations (§5.2): the synchronisation protocol
// bracketing each pass of the unified compute loop.

// bspBarrier runs bulk-synchronous supersteps: flush everything,
// exchange EndPhase markers, report to the master, and wait for its
// Continue/Stop verdict. With naive=true each superstep recomputes the
// full result from the previous one (Equation 2); otherwise it is MRA
// semi-naive evaluation (Equation 4) under a barrier.
type bspBarrier struct {
	naive bool
}

func (b *bspBarrier) setup(w *worker) {
	if b.naive {
		// The table being built this round; incoming Data always lands
		// in the freshest next (created *before* reporting PhaseDone so
		// that faster peers' next-round data cannot be stranded).
		w.next = w.newTable()
		w.apply = w.next
	}
}

func (b *bspBarrier) beginPass(w *worker) bool {
	w.rounds++
	return false
}

func (b *bspBarrier) endPass(w *worker, _ bool) bool {
	w.flushAll()
	w.broadcastEndPhase(w.rounds)
	w.awaitPeerRounds(w.rounds)
	if w.stopped {
		return false
	}
	var stats transport.Stats
	if b.naive {
		diff, changed := w.naiveFinish()
		stats.AccDelta = diff
		stats.Dirty = changed
		w.next = w.newTable()
		w.apply = w.next
	} else {
		if w.accFolds >= accResyncFolds {
			// A barrier is an epoch boundary: replace the drifting
			// running Σacc with the exact table sum (worker.resyncAccSum)
			// before it feeds another million folds.
			w.resyncAccSum()
		}
		stats.AccDelta = w.accDelta
		w.accDelta = 0
		stats.Dirty = w.table.HasDirty()
		if w.cfg.SnapshotDir != "" && w.cfg.SnapshotEvery > 0 && w.rounds%w.cfg.SnapshotEvery == 0 {
			// A BSP barrier is a consistent cut: no messages in flight.
			// Fault tolerance is best-effort; the run itself must not fail.
			_ = w.snapshot(w.rounds, true)
		}
	}
	stats.Sent, stats.Recv = w.sent, w.recv
	w.enqueue(w.master, transport.Message{Kind: transport.PhaseDone, Stats: stats})
	return w.awaitVerdict()
}

// freeRun is the barrier-free policy shared by MRAAsync, MRASyncAsync,
// and MRAAAP: drain the inbox before each pass, flush per the mode's
// policy after it, and idle briefly when nothing moved. Termination
// comes from the master's periodic check (paper §5.3: async workers
// have no global view, so the master polls stats and decides).
type freeRun struct{}

func (freeRun) setup(*worker) {}

func (freeRun) beginPass(w *worker) bool { return w.drainInbox() }

func (freeRun) endPass(w *worker, progressed bool) bool {
	// A pass boundary is the async family's snapshot safe point: join a
	// pending marker episode (combining aggregates) or write a local
	// stale snapshot (selective aggregates, Theorem 3) — and the
	// membership safe point: join a pending fence (membership.go).
	w.maybeSnapshot()
	w.maybeJoinFence()
	if progressed {
		// Only productive passes count as effective iterations (the
		// ε gating and the system-level cap both key off them).
		w.passes++
		// Yield between passes so the master's termination check (and
		// the comm goroutines) are never starved by spinning compute.
		stdruntime.Gosched()
	}
	w.maybeStaleSnapshot(int(w.passes))
	w.timedFlush()
	if progressed {
		w.pol.sched.rearm()
		return true
	}
	if w.pol.sched.release() {
		// Nothing urgent left: release the low-priority cache (§5.4 —
		// less important deltas are used when the worker would idle).
		return true
	}
	w.flushAll()
	w.idleWait()
	return true
}

// markerResend is how long a worker blocks on its inbox before
// retransmitting its own EndPhase marker. Markers ride the data lane and
// can be lost to faults; because the receiver keeps the max of announced
// rounds, a retransmission is always safe.
const markerResend = 3 * time.Millisecond

// broadcastEndPhase fences this superstep's data with round-stamped
// markers (data lane, so per-pair ordering guarantees the data lands
// before the marker).
func (w *worker) broadcastEndPhase(round int) {
	w.eachPeer(func(j int) {
		w.enqueue(j, transport.Message{Kind: transport.EndPhase, Round: round})
	})
}

// awaitPeerRounds blocks until every peer has announced completion of at
// least the given round (data sent before a marker is already applied by
// then, thanks to per-pair ordering). If the wait stalls — a marker was
// lost — the worker retransmits its own marker so a peer blocked on THIS
// worker's lost marker unblocks, announces its round, and unblocks us.
func (w *worker) awaitPeerRounds(round int) {
	for w.minPeerSteps() < round && !w.stopped && !w.dead.Load() {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return
			}
			w.handle(m)
		case <-time.After(markerResend):
			w.met.markerResends.Inc()
			w.broadcastEndPhase(round)
		}
	}
}

// awaitVerdict blocks for the master's Continue/Stop and reports whether
// to run another superstep. A stalled wait retransmits this worker's
// marker: the worker whose marker was dropped is still stuck in
// awaitPeerRounds and cannot reach the master, so the already-idle
// workers are the ones that must heal the barrier.
func (w *worker) awaitVerdict() bool {
	for !w.verdictSet {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return false
			}
			w.handle(m)
		case <-time.After(markerResend):
			if w.dead.Load() {
				return false
			}
			if w.rounds > 0 {
				w.met.markerResends.Inc()
				w.broadcastEndPhase(w.rounds)
			}
		}
	}
	w.verdictSet = false
	return w.verdict == transport.Continue && !w.stopped
}
