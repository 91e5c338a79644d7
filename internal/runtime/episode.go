package runtime

import (
	"time"

	"powerlog/internal/transport"
)

// Snapshot episodes give the async family and SSP a consistent cut for
// combining aggregates (sum/count), where a stale snapshot is NOT safe
// to restore: re-delivered deltas would be double-counted. The protocol
// is a stop-the-world Chandy–Lamport cut driven by the master:
//
//	master:  SnapRequest(epoch) → all workers
//	worker:  at its next pass boundary — flush buffers, send
//	         SnapMark(epoch) to every peer on the data lane, fold
//	         incoming data until every peer's mark arrives (per-pair
//	         FIFO ⇒ everything folded was sent before the cut), write
//	         the shard, report SnapDone(epoch) to the master, block
//	         until Resume(epoch)
//	master:  after all SnapDone (or a timeout) → Resume(epoch)
//
// Workers send no data between their mark and Resume, so the union of
// the shards is exactly the state of one global cut line. Selective
// aggregates skip all of this: they snapshot locally with no
// coordination (maybeStaleSnapshot) because Theorem 3's replay
// tolerance makes a stale restore safe.

// maybeSnapshot joins a pending snapshot episode. Called only at the
// worker's pass boundaries (freeRun / SSP endPass, the SSP gate), which
// are the safe points: no partially scanned pass, buffers flushable.
func (w *worker) maybeSnapshot() {
	e := w.snapReqEpoch
	if e <= w.snapDoneEpoch || w.stopped {
		return
	}
	w.flushAll()
	w.eachPeer(func(j int) {
		w.enqueue(j, transport.Message{Kind: transport.SnapMark, Round: e})
	})
	// Fold data until every peer's mark for this epoch arrives. Per-pair
	// FIFO means everything folded here was sent before the sender's
	// mark — pre-cut traffic that belongs in the snapshot.
	for !w.stopped && !w.dead.Load() && w.minSnapMarks() < e {
		m, ok := <-w.conn.Inbox()
		if !ok {
			w.stopped = true
			return
		}
		w.handle(m)
	}
	if w.stopped {
		return
	}
	_ = w.snapshot(e, true) // best-effort: a failed shard write must not kill the run
	w.enqueue(w.master, transport.Message{Kind: transport.SnapDone, Round: e})
	for !w.stopped && !w.dead.Load() && w.resumeEpoch < e {
		m, ok := <-w.conn.Inbox()
		if !ok {
			w.stopped = true
			return
		}
		w.handle(m)
	}
	w.snapDoneEpoch = e
}

func (w *worker) minSnapMarks() int {
	// Skipping crash-orphaned peers is what unwedges a survivor blocked
	// in an episode on a dead worker's mark: the Orphan verdict arrives
	// through handle() while this worker folds its inbox, the dead slot
	// drops out of the scan, and the cut completes over the survivors.
	least := maxSteps // no waitable peer: nothing to wait for
	for j, s := range w.snapMarks {
		if w.peerSkip(j) {
			continue
		}
		if s < least {
			least = s
		}
	}
	return least
}

// maybeStaleSnapshot writes a local, uncoordinated snapshot at every
// SnapshotEvery-th pass boundary — selective aggregates only, where
// Theorem 3 licenses restoring stale state. epoch is the worker's own
// pass/step count; workers drift apart, and LoadAll reassembles the
// newest shard per worker.
func (w *worker) maybeStaleSnapshot(epoch int) {
	if w.cfg.SnapshotDir == "" || w.cfg.SnapshotEvery <= 0 || !w.plan.Op.Selective() {
		return
	}
	if epoch <= w.staleEpoch || epoch%w.cfg.SnapshotEvery != 0 {
		return
	}
	w.staleEpoch = epoch
	_ = w.snapshot(epoch, false) // best-effort, like the BSP barrier path
}

// snapshotsDue reports whether the polling master should run a snapshot
// episode after check round `round`. Selective aggregates snapshot
// locally instead, so episodes apply only to combining aggregates.
func (m *master) snapshotsDue(round int) bool {
	return m.cfg.SnapshotDir != "" && m.cfg.SnapshotEvery > 0 &&
		!m.plan.Op.Selective() &&
		round > 0 && round%m.cfg.SnapshotEvery == 0
}

// episodeTimeout bounds how long the master waits for the workers'
// SnapDone reports before abandoning an episode. An abandoned epoch
// leaves an incomplete shard set on disk; LoadAll refuses it and falls
// back to the last complete epoch, so the timeout costs durability
// progress, never correctness.
const episodeTimeout = 250 * time.Millisecond

// runEpisode drives one snapshot episode. It always broadcasts Resume —
// even on timeout — because workers that did reach the episode are
// blocked waiting for it. Returns false if the network died.
func (m *master) runEpisode(epoch int) bool {
	m.bcast(transport.Message{Kind: transport.SnapRequest, Round: epoch})
	deadline := time.After(episodeTimeout)
	for got := 0; got < m.activeCount(); {
		var msg transport.Message
		var ok bool
		if len(m.pending) > 0 {
			// The stash path cannot time out; the episode has its own
			// deadline below.
			msg, ok, _ = m.recv()
		} else {
			select {
			case msg, ok = <-m.conn.Inbox():
			case <-deadline:
				m.bcast(transport.Message{Kind: transport.Resume, Round: epoch})
				return true
			}
		}
		if !ok {
			return false
		}
		if msg.Kind == transport.SnapDone && msg.Round == epoch {
			got++
		}
		// Anything else (late stats replies) is irrelevant mid-episode:
		// workers are quiescing, and the poll loop restarts after Resume.
	}
	m.bcast(transport.Message{Kind: transport.Resume, Round: epoch})
	return true
}
