package runtime

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/transport"
)

// ErrWorkerLost is surfaced (wrapped) by Run and RunMaster when a
// collect round times out: a worker died or was partitioned away
// mid-collect, so its PhaseDone/StatsReply will never arrive. Without
// the deadline the master would block forever (the PR-4 follow-up).
var ErrWorkerLost = errors.New("worker lost: missing report within the collect deadline")

// master coordinates termination. For BSP modes it collects PhaseDone
// reports and issues Continue/Stop verdicts; for async modes it polls
// stats on a timer and applies the paper's two-level criteria: the
// user-level ε on consecutive global results, distributed quiescence for
// fixpoint programs, and the system-level round cap.
type master struct {
	cfg  Config
	plan *compiler.Plan
	conn transport.Conn
	nw   int

	pending []transport.Message // messages received while sending
	timer   *time.Timer         // reused collect-deadline timer

	met masterMetrics // observe.go: rounds, collect waits, timeouts

	rounds    int
	converged bool
	err       error // first liveness failure (wraps ErrWorkerLost)

	// Session state (session.go). park makes a converged fixpoint park
	// the fleet (Park + ParkDone collect) instead of stopping it; epoch
	// is the session epoch being computed (1 = initial fixpoint); parked
	// reports whether the last run() ended in a successful park. gRound
	// counts master rounds cumulatively across epochs, so injected
	// CrashRound faults keep one global timeline; episodes numbers
	// snapshot episodes monotonically across epochs.
	park     bool
	epoch    int
	parked   bool
	gRound   int
	episodes int

	// Membership state (membership.go, DESIGN.md §11). live marks the
	// slots currently in the fleet over the capacity network (static
	// fleets: the first nw slots, forever); fence numbers membership
	// fences; member is the session's lifecycle callbacks (nil disables
	// live re-join — losses abort, the pre-membership behaviour); cmds
	// carries Session.AddWorker/RemoveWorker requests (nil unless
	// Config.Elastic).
	live   []bool
	fence  int
	member *memberCoordinator
	cmds   chan memberCmd
}

func newMaster(cfg Config, plan *compiler.Plan, conn transport.Conn) *master {
	m := &master{cfg: cfg, plan: plan, conn: conn, nw: cfg.Workers, met: newMasterMetrics(), epoch: 1}
	m.live = make([]bool, cfg.fleetCap())
	for j := 0; j < cfg.Workers; j++ {
		m.live[j] = true
	}
	return m
}

// collectTimeout is the liveness deadline for one message during a
// collect. CollectTimeout = 0 falls back to MaxWall: better a typed
// error at the wall-clock cap than a hang, without risking false
// positives on long compute passes (workers only pump their inboxes at
// blocking points, so a tight default could misfire).
func (m *master) collectTimeout() time.Duration {
	if m.cfg.CollectTimeout > 0 {
		return m.cfg.CollectTimeout
	}
	return m.cfg.MaxWall
}

// bcast sends msg to every worker without blocking on a back-pressured
// inbox: while a worker's channel is full the master keeps draining its
// own inbox (stashing replies for the collect loop), so bulk data can
// never deadlock or starve the termination protocol.
func (m *master) bcast(msg transport.Message) {
	for j, l := range m.live {
		if l {
			m.sendTo(j, msg)
		}
	}
}

// sendTo delivers one message to one worker with bcast's no-deadlock
// discipline. The retry is bounded by the collect deadline: a receiver
// that has not drained a single inbox slot in that long is wedged or
// dead (a crashed worker's inbox fills with peer data and would
// otherwise livelock the master here, before the probe→orphan path can
// ever declare it lost), so the message is dropped like a send error —
// every master→worker message is either re-solicited by a later
// protocol step or follows an endpoint reset that clears the jam.
func (m *master) sendTo(j int, msg transport.Message) {
	try, canTry := m.conn.(transport.TrySender)
	if !canTry {
		_ = m.conn.Send(j, msg)
		return
	}
	var bo backoff
	var deadline time.Time
	for {
		ok, err := try.TrySend(j, msg)
		if ok || err != nil {
			return
		}
		select {
		case in, chOk := <-m.conn.Inbox():
			if !chOk {
				return
			}
			m.pending = append(m.pending, in)
			// Inbox progress says the fleet is moving, not that worker j
			// is draining — the deadline stands.
			bo.reset()
		default:
			if deadline.IsZero() {
				deadline = time.Now().Add(m.collectTimeout())
			} else if time.Now().After(deadline) {
				return
			}
			bo.wait()
		}
	}
}

// recv returns the next incoming message, honouring the pending stash
// and giving up after the collect deadline. timedOut distinguishes a
// deadline expiry (worker lost) from a closed network (ok == false).
// The deadline covers one message, so it effectively resets on every
// report — a collect stalls only when some worker has gone silent for
// the whole timeout, not merely when the fleet reports slowly.
func (m *master) recv() (msg transport.Message, ok, timedOut bool) {
	if len(m.pending) > 0 {
		msg = m.pending[0]
		m.pending = m.pending[1:]
		return msg, true, false
	}
	d := m.collectTimeout()
	if m.timer == nil {
		m.timer = time.NewTimer(d)
	} else {
		m.timer.Reset(d)
	}
	select {
	case msg, ok = <-m.conn.Inbox():
		// Single-goroutine use: a failed Stop means the timer fired
		// concurrently, so its channel holds exactly one value to drain.
		if !m.timer.Stop() {
			<-m.timer.C
		}
		return msg, ok, false
	case <-m.timer.C:
		return transport.Message{}, true, true
	}
}

// lost records a liveness failure — got of nw reports arrived before the
// deadline — and broadcasts a best-effort Stop so surviving workers
// (including BSP peers stuck in awaitPeerRounds on the dead worker's
// marker) unwind instead of hanging.
func (m *master) lost(round, got int) {
	m.met.collectTimeouts.Inc()
	m.err = fmt.Errorf("runtime: collect round %d got %d/%d reports within %v: %w",
		round, got, m.activeCount(), m.collectTimeout(), ErrWorkerLost)
	m.bcast(transport.Message{Kind: transport.Stop})
}

func (m *master) run() {
	// The mode registry (policy.go) records which modes run the BSP
	// verdict protocol; everything else — the async family and SSP —
	// terminates via polling.
	defer m.drainMemberCmds()
	m.parked = false
	// Per-epoch verdict: a later epoch that stops at the iteration cap or
	// wall clock must not inherit an earlier epoch's converged flag.
	m.converged = false
	if modeBarriered[m.cfg.Mode] {
		m.runBSP()
	} else {
		m.runAsync()
	}
}

// parkFleet replaces the Stop broadcast at a converged fixpoint when the
// run is a session epoch: it issues Park and collects one ParkDone per
// worker, after which every worker has fenced and drained its data lanes
// and sits blocked on its inbox. The collect's happens-before edges make
// the fleet's tables safe for the session goroutine to read and mutate
// until it broadcasts EpochStart. A liveness failure here is the same
// ErrWorkerLost as any other collect.
func (m *master) parkFleet(deadline time.Time) {
	m.bcast(transport.Message{Kind: transport.Park, Round: m.epoch})
	for got := 0; got < m.activeCount(); {
		msg, ok, timedOut := m.recv()
		if !ok {
			return
		}
		if timedOut {
			if time.Now().After(deadline) {
				m.bcast(transport.Message{Kind: transport.Stop})
				return
			}
			m.lost(m.gRound, got)
			return
		}
		if msg.Kind == transport.ParkDone && msg.Round == m.epoch {
			got++
		}
	}
	m.parked = true
	m.met.epochs.Inc()
}

// crashAt implements the injector's run-level faults at the top of a
// master round: CrashRound aborts the whole run (broadcast Stop with
// converged=false — the "crash" half of a crash/restore drill), and
// MasterRestartRound asks the caller to forget its termination-detector
// state, as a restarted master process would.
func (m *master) crashAt(round int) (crash, restart bool) {
	inj := m.cfg.Fault
	if inj == nil {
		return false, false
	}
	if inj.CrashRound() == round {
		m.bcast(transport.Message{Kind: transport.Stop})
		return true, false
	}
	return false, inj.MasterRestartRound() == round
}

// runBSP collects one PhaseDone per worker per superstep and decides.
func (m *master) runBSP() {
	eps := m.plan.Termination.Epsilon
	deadline := time.Now().Add(m.cfg.MaxWall)
	armed := false
	for round := 1; ; round++ {
		m.rounds = round
		m.gRound++
		if crash, restart := m.crashAt(m.gRound); crash {
			return
		} else if restart {
			// The ε detector is self-stabilising: losing the armed flag
			// can only delay the stop decision, never corrupt it.
			armed = false
		}
		m.met.rounds.Inc()
		collectStart := time.Now()
		var sumDelta float64
		anyDirty := false
		for got := 0; got < m.activeCount(); {
			msg, ok, timedOut := m.recv()
			if !ok {
				return
			}
			if timedOut {
				if time.Now().After(deadline) {
					// The wall budget expired mid-collect: an honest
					// not-converged abort (the MaxWall fallback deadline
					// always lands here), not a lost worker.
					m.bcast(transport.Message{Kind: transport.Stop})
					return
				}
				m.lost(round, got)
				return
			}
			if msg.Kind != transport.PhaseDone {
				continue
			}
			got++
			sumDelta += msg.Stats.AccDelta
			anyDirty = anyDirty || msg.Stats.Dirty
		}
		m.met.collectWaitUS.Observe(uint64(time.Since(collectStart).Microseconds()))
		stop := false
		switch {
		case eps > 0:
			if sumDelta >= eps {
				armed = true
			} else if armed || round > 1 {
				stop, m.converged = true, true
			}
			// A true fixpoint also terminates ε programs.
			if !anyDirty && sumDelta == 0 {
				stop, m.converged = true, true
			}
		default:
			if !anyDirty {
				stop, m.converged = true, true
			}
		}
		if round >= m.plan.Termination.MaxIters || time.Now().After(deadline) {
			stop = true
		}
		if stop {
			if m.park && m.converged {
				m.parkFleet(deadline)
			} else {
				m.bcast(transport.Message{Kind: transport.Stop})
			}
			return
		}
		m.bcast(transport.Message{Kind: transport.Continue})
	}
}

// runAsync polls worker stats every CheckInterval and stops on the first
// satisfied criterion: (a) ε programs — the difference between two
// consecutive global aggregation results over the Accumulation column
// drops below ε (§5.4's termination check; consecutive checks only count
// when the workers made progress in between, so a scheduler stall cannot
// masquerade as convergence); (b) fixpoint — two consecutive stable
// snapshots (all idle, Σsent == Σrecv, no dirty rows); (c) the
// system-level round cap or wall-clock limit.
func (m *master) runAsync() {
	eps := m.plan.Termination.Epsilon
	deadline := time.Now().Add(m.cfg.MaxWall)
	prevStable := false
	prevSum := math.NaN()
	prevPasses := int64(-1)
	// ε-candidate state: when the ε test first fires, the stop is armed,
	// not taken — candSent remembers the global send watermark at that
	// instant, and the stop is confirmed only once Σrecv has passed it
	// (every delta outstanding at candidate time has been folded) with the
	// aggregate still inside ε. A slow or partitioned link freezes recv
	// below the watermark, so a candidate hiding in-flight deltas cannot
	// confirm; when the link heals, the moved aggregate cancels it.
	candArmed := false
	var candSum float64
	var candSent int64
	// resetDetectors forgets all termination-detector state. Every
	// membership fence zeroes the fleet's send/recv counters and may
	// rewind or migrate state, so anything remembered from before the
	// fence would compare a pre-fence world against a post-fence one.
	// Both criteria are self-stabilising — stability must be observed
	// twice and ε needs a fresh pair of aggregates — so a reset can only
	// delay the stop decision, never corrupt it.
	resetDetectors := func() {
		prevStable = false
		prevSum = math.NaN()
		prevPasses = -1
		candArmed = false
	}
	seen := make([]bool, len(m.live))
	for round := 0; ; round++ {
		m.rounds = round + 1
		m.gRound++
		if crash, restart := m.crashAt(m.gRound); crash {
			return
		} else if restart {
			// Forget the detector state a restarted master would lose.
			resetDetectors()
		}
		if changed, aborted := m.pollMemberCmds(); aborted {
			return
		} else if changed {
			resetDetectors()
		}
		if m.snapshotsDue(round) {
			// Episodes are numbered by a cumulative counter so epochs stay
			// monotonic across session fixpoints (round restarts at 0 each
			// epoch; reusing its quotient would overwrite newer cuts).
			m.episodes++
			if !m.runEpisode(m.episodes) {
				return
			}
		}
		time.Sleep(m.cfg.CheckInterval)
		m.met.rounds.Inc()
		m.bcast(transport.Message{Kind: transport.StatsRequest, Round: round})
		collectStart := time.Now()
		var sent, recv, passes int64
		var accSum float64
		allIdle, anyDirty := true, false
		for j := range seen {
			seen[j] = false
		}
		probed, recovered := false, false
		for got := 0; got < m.activeCount(); {
			msg, ok, timedOut := m.recv()
			if !ok {
				return
			}
			if timedOut {
				if time.Now().After(deadline) {
					// Wall abort, not a lost worker (see runBSP).
					m.bcast(transport.Message{Kind: transport.Stop})
					return
				}
				if !probed {
					// Second chance: a worker deep in a long compute pass
					// only pumps its inbox at blocking points, so one
					// missed deadline distinguishes nothing. Re-solicit
					// the silent workers directly; only a second silence
					// makes them lost.
					probed = true
					m.met.collectProbes.Inc()
					for j, l := range m.live {
						if l && !seen[j] {
							m.sendTo(j, transport.Message{Kind: transport.StatsRequest, Round: round})
						}
					}
					continue
				}
				if m.recoverLost(seen) {
					// The fleet was repaired by a membership fence; this
					// round's partial sums describe a world that no longer
					// exists, so abandon them and poll afresh.
					recovered = true
					break
				}
				m.lost(round, got)
				return
			}
			if msg.Kind != transport.StatsReply || msg.Round != round {
				continue
			}
			if msg.From >= 0 && msg.From < len(seen) {
				if seen[msg.From] {
					// The probe re-solicited a reply that was merely slow;
					// count each worker once.
					continue
				}
				seen[msg.From] = true
			}
			got++
			sent += msg.Stats.Sent
			recv += msg.Stats.Recv
			passes += msg.Stats.Passes
			accSum += msg.Stats.AccSum
			allIdle = allIdle && msg.Stats.Idle
			anyDirty = anyDirty || msg.Stats.Dirty
		}
		if recovered {
			resetDetectors()
			continue
		}
		m.met.collectWaitUS.Observe(uint64(time.Since(collectStart).Microseconds()))
		stable := allIdle && sent == recv && !anyDirty
		stop := false
		if stable && prevStable {
			stop, m.converged = true, true
		}
		prevStable = stable
		if eps > 0 && passes-prevPasses >= int64(m.activeCount()) {
			if prevPasses >= 0 && !math.IsNaN(prevSum) && accSum != 0 &&
				!candArmed && math.Abs(accSum-prevSum) < eps {
				candArmed, candSum, candSent = true, accSum, sent
			}
			prevSum, prevPasses = accSum, passes
		} else if prevPasses < 0 {
			prevPasses = passes
			prevSum = accSum
		}
		if candArmed && recv >= candSent {
			if math.Abs(accSum-candSum) < eps {
				stop, m.converged = true, true
			} else {
				// The drained in-flight deltas moved the aggregate by more
				// than ε — the candidate was premature. Keep running.
				candArmed = false
			}
		}
		// The system-level iteration cap counts this epoch's termination-
		// check rounds (TermSpec.MaxIters), the async family's analogue
		// of a superstep. Worker compute passes are no measure of
		// progress here: a pass drains whatever the last few inbox
		// batches dirtied, so how many a fixpoint takes scales with how
		// fast the propagate kernel runs against how slowly stats cross
		// the network, not with the work left to do.
		if m.rounds >= m.plan.Termination.MaxIters || time.Now().After(deadline) {
			stop = true
		}
		if stop {
			if m.park && m.converged {
				m.parkFleet(deadline)
			} else {
				m.bcast(transport.Message{Kind: transport.Stop})
			}
			return
		}
	}
}
