package runtime

import (
	"sort"

	"powerlog/internal/agg"
	"powerlog/internal/metrics"
)

// Scheduler implementations (§5.4): drain order and low-priority
// holding as strategies, replacing the former inline branches in the
// compute loops.

// fifoSched processes the dirty set in drain (first-touch) order with
// no holding — the default schedule.
type fifoSched struct{}

func (fifoSched) arrange([]drained) {}
func (fifoSched) refreshes() bool   { return false }
func (fifoSched) hold(float64) bool { return false }
func (fifoSched) release() bool     { return false }
func (fifoSched) rearm()            {}
func (fifoSched) holding() bool     { return false }

// orderedSched is the delta-stepping-style best-first schedule for
// selective aggregates (Meyer & Sanders 2003): relaxing small tentative
// distances first avoids spreading bounds that are about to be improved
// anyway. It also refreshes entries mid-pass — a key processed late in
// the pass picks up the improvements its predecessors just propagated,
// which is where the saving comes from.
type orderedSched struct {
	asc bool // ascending for min aggregates, descending for max
}

func (s orderedSched) arrange(batch []drained) {
	sort.Slice(batch, func(i, j int) bool {
		if s.asc {
			return batch[i].val < batch[j].val
		}
		return batch[i].val > batch[j].val
	})
}
func (orderedSched) refreshes() bool   { return true }
func (orderedSched) hold(float64) bool { return false }
func (orderedSched) release() bool     { return false }
func (orderedSched) rearm()            {}
func (orderedSched) holding() bool     { return false }

// priorityHold layers §5.4's importance-based holding over an inner
// drain order: combining-aggregate deltas below the threshold wait in
// the local intermediate, accumulating until the worker would otherwise
// idle; release then lets one pass run unthrottled, and the next
// productive pass rearms the hold.
type priorityHold struct {
	inner     Scheduler
	threshold float64
	off       bool // released: let small deltas through
	held      bool // at least one delta is waiting locally

	// Per-decision observability (DESIGN.md §8): sched.hold counts
	// deltas parked below the threshold, sched.release counts the
	// hold→release cycles taken when the worker would otherwise idle.
	holds, releases *metrics.Counter
}

func (s *priorityHold) arrange(batch []drained) { s.inner.arrange(batch) }
func (s *priorityHold) refreshes() bool         { return s.inner.refreshes() }

func (s *priorityHold) hold(v float64) bool {
	if s.off || agg.Abs(v) >= s.threshold {
		return false
	}
	// The caller refolds the delta, which marks the row dirty again;
	// the held flag keeps the idle detector from treating that as
	// pending work forever.
	s.held = true
	s.holds.Inc()
	return true
}

func (s *priorityHold) release() bool {
	if !s.held {
		return false
	}
	s.off = true
	s.held = false
	s.releases.Inc()
	return true
}

func (s *priorityHold) rearm()        { s.off = false }
func (s *priorityHold) holding() bool { return s.held }
