package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
	"powerlog/internal/transport"
)

// Typed session-state errors. Callers that drive a Session from
// concurrent goroutines (the serving front end, internal/server) branch
// on these with errors.Is: Busy maps to back-pressure (shed and retry),
// Closed to a permanent rejection.
var (
	// ErrSessionClosed is returned by Apply, AddWorker, RemoveWorker,
	// and membership changes once Close has been called (or is in
	// progress on another goroutine).
	ErrSessionClosed = errors.New("runtime: session is closed")
	// ErrSessionBusy is returned when an exclusive session operation (a
	// fixpoint, a membership fence) is already in flight on another
	// goroutine and blocking would be wrong: an Apply can legitimately
	// run for the whole wall budget, so a second caller gets an
	// immediate typed rejection instead of an unbounded wait.
	ErrSessionBusy = errors.New("runtime: session is busy (a fixpoint or membership fence is in flight)")
)

// Mutation is a batch of base-fact inserts and deletes against the
// session's join graph (re-exported from the compiler, which owns the
// delta computation).
type Mutation = compiler.Mutation

// Session is a long-lived engine instance (DESIGN.md §10): Open loads
// the EDB shards and computes the initial fixpoint, Apply folds a batch
// of base-fact insertions and deletions into the EDB and re-converges
// incrementally — without restarting workers or recomputing from
// scratch — and Close tears the fleet down. Between fixpoints the
// workers stay parked on their inboxes with their MonoTable shards
// warm; an Apply reseeds exactly the keys the mutation can affect (the
// compiler's ΔX¹ correction for combining aggregates, an invalidation
// cone plus boundary reseed for selective ones) and restarts the
// termination protocol for one more epoch.
//
// A Session is safe for concurrent use. The public API is serialized by
// an internal mutex: at most one exclusive operation — an Apply epoch, a
// parked-fleet membership fence, Close's teardown — runs at a time (the
// master's termination protocol runs on the calling goroutine), and a
// caller that would have to wait behind one gets ErrSessionBusy
// immediately instead of blocking for up to the wall budget. Result,
// Err, Epoch, and MutEpoch never block behind a running fixpoint: they
// return the last published epoch's state, which is what a serving
// front end wants for point lookups while a re-fixpoint is in flight.
// Close is the one blocking call — it waits for the in-flight operation
// to finish (bounded by Config.MaxWall) before tearing the fleet down,
// so a graceful drain cannot yank warm state from under an Apply.
//
// Error model: a mutation that fails validation (an edge outside the
// vertex universe) is rejected with the EDB untouched and the session
// still usable. A fixpoint that ends any other way than a clean park —
// an injected crash, a lost worker, the iteration cap, the wall clock —
// poisons the session: the error is sticky, every later Apply returns
// it, and the caller's recovery path is Close and re-Open (optionally
// from a RestoreDir checkpoint, replaying the mutation log past the
// snapshot's MutEpoch).
type Session struct {
	cfg     Config
	plan    *compiler.Plan
	net     *transport.ChannelNetwork
	workers []*worker
	m       *master
	wg      sync.WaitGroup
	dump    *metricsDumper

	// log records every applied mutation with its epoch; mutEpoch is the
	// log position the current table state incorporates (restored from
	// the checkpoint's MutEpoch when Open resumes from RestoreDir).
	// engEpoch counts fixpoints this session has computed (1 = initial).
	log      *edb.MutationLog
	mutEpoch int
	engEpoch int

	// mu guards the session's shared control state: busy, closing,
	// closed, err, res, fleetDown, and the epoch counters. Exclusive
	// operations (Apply, parked fences, teardown) claim the session via
	// begin()/end() — the busy flag — and then run with mu RELEASED, so
	// read-only accessors stay wait-free while a fixpoint computes; the
	// busy holder is the only writer of fleet state, and it republishes
	// results and errors under mu. cond signals busy/closed transitions
	// for Close's drain wait.
	mu   sync.Mutex
	cond *sync.Cond

	busy    bool // an exclusive operation is in flight (its holder runs unlocked)
	closing bool // Close has committed to teardown; new operations are rejected

	res       *Result
	err       error // sticky epoch failure; every later Apply returns it
	fleetDown bool  // worker goroutines have exited
	closed    bool

	// Cumulative worker counters at the last epoch boundary, so each
	// Result reports per-epoch message traffic.
	prevSent, prevRecv, prevFlush int64

	ckptEpoch int // monotone stamp for park-boundary checkpoints

	// Membership state (membership.go, DESIGN.md §11). workers is sized
	// to the fleet capacity; slots beyond the initial fleet (and retired
	// slots) are nil. fenceRelease holds the checkpoint read lease a
	// combining-aggregate crash recovery takes between choosing a
	// rollback epoch and the fleet finishing its reload; released at the
	// fence's Release. scaled records that the membership has changed at
	// least once, which invalidates checkpoints written under the old
	// ownership ring. AddWorker / RemoveWorker callers observe busy (under
	// mu) to decide between queueing their command to the running master
	// and driving the fence directly against the parked fleet.
	fenceRelease func()
	scaled       bool
}

// begin claims the session for one exclusive operation. It fails fast
// with the typed state errors instead of blocking: an in-flight epoch
// can run for the whole wall budget, and queueing callers behind it
// invisibly is exactly the bug the serving front end would turn into a
// thread pile-up.
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing || s.closed {
		return ErrSessionClosed
	}
	if s.busy {
		return ErrSessionBusy
	}
	if s.err != nil {
		return s.err
	}
	s.busy = true
	return nil
}

// end releases the exclusive claim and rejects membership commands that
// raced the operation's exit. The ordering matters: commands are only
// enqueued under mu while busy is set, so by the time end holds mu every
// such command is in the channel; clearing busy first and draining after
// guarantees none is left behind to hang its caller (the master's own
// deferred drain only covers commands it saw before m.run returned). A
// drain racing the next operation's freshly queued command can at worst
// reject it with the retryable ErrSessionBusy.
func (s *Session) end() {
	s.mu.Lock()
	s.busy = false
	s.mu.Unlock()
	s.cond.Broadcast()
	s.rejectQueuedCmds()
}

func (s *Session) rejectQueuedCmds() {
	if s.m == nil || s.m.cmds == nil {
		return
	}
	for {
		select {
		case cmd := <-s.m.cmds:
			cmd.reply <- memberCmdResult{id: -1, err: ErrSessionBusy}
		default:
			return
		}
	}
}

// setResult publishes an epoch's Result for the wait-free accessors.
// The Result itself is immutable after publication, so readers can use
// it without holding mu.
func (s *Session) setResult(res *Result) {
	s.mu.Lock()
	s.res = res
	s.mu.Unlock()
}

// setFleetDown records that the worker goroutines have exited.
func (s *Session) setFleetDown() {
	s.mu.Lock()
	s.fleetDown = true
	s.mu.Unlock()
}

// bumpMutEpoch / bumpEngEpoch advance the epoch counters under mu (the
// busy holder is the only writer, so its own later unlocked reads are
// race-free; concurrent accessors read under mu).
func (s *Session) bumpMutEpoch() {
	s.mu.Lock()
	s.mutEpoch++
	s.mu.Unlock()
}

func (s *Session) bumpEngEpoch() {
	s.mu.Lock()
	s.engEpoch++
	s.mu.Unlock()
}

// Open compiles nothing — the plan is already compiled — but stands up
// the worker fleet, seeds ΔX¹ (or restores a checkpoint), and runs the
// initial fixpoint. For MRA modes a converged fixpoint parks the fleet
// for later Applys; naive mode runs to completion (it cannot
// re-fixpoint incrementally) and only Result/Close are useful
// afterwards. Open returns an error for invalid configs, unrestorable
// checkpoints, and transport failures; a fixpoint that merely failed to
// converge (iteration cap, injected crash) still returns a Session so
// the caller can inspect the Result, but the session is poisoned for
// Apply.
func Open(plan *compiler.Plan, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if plan.Propagate == nil || plan.Op == nil {
		return nil, fmt.Errorf("runtime: plan is not compiled")
	}
	if !modeRegistered(cfg.Mode) {
		return nil, fmt.Errorf("runtime: mode %v has no registered policies", cfg.Mode)
	}
	if !cfg.Mode.MRA() && len(plan.BaseNaive) == 0 {
		return nil, fmt.Errorf("runtime: naive evaluation has no base tuples to derive from")
	}
	if cfg.Elastic && (!cfg.Mode.MRA() || modeBarriered[cfg.Mode]) {
		return nil, fmt.Errorf("runtime: Elastic membership needs a non-barriered MRA mode " +
			"(the BSP verdict protocol has no fence point mid-superstep)")
	}
	cfg = applyPriorityDefault(cfg, plan)

	// Load any restore state before standing up goroutines, so a
	// corrupt checkpoint fails cleanly.
	var restoreRows []ckpt.Row
	var restoreMeta ckpt.Meta
	restoring := false
	if cfg.Mode.MRA() && cfg.RestoreDir != "" {
		rows, meta, err := ckpt.LoadAll(cfg.RestoreDir)
		if err != nil {
			return nil, err
		}
		if !meta.Cut && !plan.Op.Selective() {
			return nil, fmt.Errorf("runtime: %s has only stale snapshots, which are safe to restore "+
				"only for selective aggregates (Theorem 3); combining aggregates need a consistent cut", cfg.RestoreDir)
		}
		restoreRows, restoreMeta, restoring = rows, meta, true
	}

	// The network (and the workers slice) is provisioned to the fleet's
	// capacity so scale-out only has to populate a pre-existing slot; on
	// static fleets fleetCap() == Workers and the master endpoint index
	// is unchanged.
	net := transport.NewChannelNetwork(cfg.fleetCap(), 4096)
	workers := make([]*worker, cfg.fleetCap())
	for i := 0; i < cfg.Workers; i++ {
		// Fault.Wrap is a no-op passthrough when no injector is set.
		workers[i] = newWorker(i, cfg, plan, cfg.Fault.Wrap(net.Conn(i)))
	}

	s := &Session{
		cfg:      cfg,
		plan:     plan,
		net:      net,
		workers:  workers,
		log:      &edb.MutationLog{},
		engEpoch: 1,
	}
	s.cond = sync.NewCond(&s.mu)

	// Seed state per mode: MRA folds ΔX¹ into the shards (or restores a
	// checkpoint); naive re-derives base tuples every round from each
	// worker's owned slice.
	if cfg.Mode.MRA() {
		switch {
		case restoring && restoreMeta.Cut:
			for _, w := range workers[:cfg.Workers] {
				w.restore(restoreRows)
			}
		case restoring:
			for _, w := range workers[:cfg.Workers] {
				w.seed(plan.InitMRA)
				w.restoreStale(restoreRows)
			}
		default:
			for _, w := range workers[:cfg.Workers] {
				w.seed(plan.InitMRA)
			}
		}
		if restoring {
			// Resume the mutation-log position the snapshot incorporates:
			// the caller replays its trailing log entries through Apply.
			s.mutEpoch = restoreMeta.MutEpoch
			for _, w := range workers[:cfg.Workers] {
				w.mutEpoch = restoreMeta.MutEpoch
			}
		}
	} else {
		for _, kv := range plan.BaseNaive {
			o := graph.Partition(kv.K, cfg.Workers)
			workers[o].ownBase = append(workers[o].ownBase, kv)
		}
	}

	s.m = newMaster(cfg, plan, net.Conn(transport.MasterID(cfg.fleetCap())))
	// Naive evaluation cannot park: its fixpoint is a full re-derivation,
	// so the initial run goes to completion and Apply stays rejected.
	s.m.park = cfg.Mode.MRA()
	// Membership: the non-barriered MRA modes get live re-join (a lost
	// worker is replaced through a fence instead of aborting the run);
	// elastic fleets additionally accept AddWorker/RemoveWorker commands.
	// The callbacks all run on the goroutine executing m.run — this one —
	// so they touch session state freely.
	if cfg.Mode.MRA() && !modeBarriered[cfg.Mode] {
		s.m.member = &memberCoordinator{
			spawn:    s.respawnWorker,
			admit:    s.admitWorker,
			retire:   s.retireWorker,
			released: s.fenceReleased,
		}
	}
	if cfg.Elastic {
		s.m.cmds = make(chan memberCmd, 8)
	}
	// The dump goroutine gets its own copy: membership changes swap
	// entries of s.workers while it reads (it keeps reporting the fleet
	// it was started with; replacements surface in the final Result).
	s.dump = startMetricsDump(cfg, slices.Clone(workers), s.m)

	start := time.Now()
	for _, w := range workers[:cfg.Workers] {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
	// The session is not yet published, but the busy protocol still runs
	// so the master's command queue gets its end-of-epoch drain.
	s.busy = true
	s.m.run()
	res, err := s.finishEpoch(start)
	s.end()
	if err != nil {
		// Transport death or a lost worker: nothing to resume — tear
		// down fully so the caller doesn't have to Close a corpse.
		s.teardown()
		return nil, err
	}
	s.setResult(res)
	return s, nil
}

// Apply folds a batch of base-fact changes into the EDB and converges
// to the mutated program's fixpoint from the parked state, returning
// that epoch's Result. The returned Result's message and flush counts
// are per-epoch (work this Apply caused), not cumulative. Concurrency:
// Apply claims the session exclusively; a second Apply (or a parked
// membership fence) racing it returns ErrSessionBusy rather than
// queueing, and an Apply racing Close returns ErrSessionClosed.
func (s *Session) Apply(mut Mutation) (*Result, error) {
	if !s.cfg.Mode.MRA() {
		return nil, fmt.Errorf("runtime: naive evaluation re-derives from scratch and cannot re-fixpoint incrementally; use an MRA mode")
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	// From here the calling goroutine is the exclusive busy holder: it
	// is the only writer of fleet state (Close waits the claim out), so
	// unlocked reads of fleetDown/mutEpoch/engEpoch below are race-free.
	if s.fleetDown {
		return nil, fmt.Errorf("runtime: session fleet is stopped (the initial fixpoint did not park)")
	}
	start := time.Now()

	// Compiler-side delta: mutate the EDB (graph, derived relations,
	// attribute columns, ΔX¹) and compute the reseed/invalidation work.
	// The fleet is parked, so the in-place CSR rebuild and the acc scans
	// below are race-free. A validation error leaves the EDB untouched
	// and the session usable.
	refix, err := s.plan.ApplyMutation(mut, s.rangeAcc)
	if err != nil {
		return nil, err
	}
	s.bumpMutEpoch()
	s.log.Append(s.mutEpoch, edb.GraphMutation{
		Pred:    s.plan.JoinPredicate(),
		Inserts: mut.Inserts,
		Deletes: mut.Deletes,
	})

	// Deletion invalidation: erase every key whose lo-component lies in
	// the over-approximate cone R, then rebuild each worker's exact Σacc
	// (Invalidate bypasses the monotone fold the running sum tracks).
	if refix.InvalidateLo != nil {
		inR := refix.InvalidateLo
		var doomed []int64
		for _, w := range s.workers {
			if w == nil {
				continue
			}
			doomed = doomed[:0]
			w.table.RangeRows(func(k int64, _, _ float64) bool {
				lo := k
				if s.plan.PairKeys {
					_, lo = compiler.DecodePair(k)
				}
				if lo >= 0 && lo < int64(len(inR)) && inR[lo] {
					doomed = append(doomed, k)
				}
				return true
			})
			for _, k := range doomed {
				w.table.Invalidate(k)
			}
			s.m.met.invalidateKeys.Add(uint64(len(doomed)))
			w.resyncAccSum()
		}
	}

	// Reseed: fold the correction ΔX¹ into the owners' shards (current
	// membership's routing — after a scale event the owner may not be the
	// static modulo slot). The folds mark the rows dirty, which is
	// exactly the next epoch's frontier.
	if route := s.liveRoute(); route != nil {
		for _, kv := range refix.Reseed {
			s.workers[route.owner(kv.K)].table.FoldDelta(kv.K, kv.V)
		}
	}
	s.m.met.reseedKeys.Add(uint64(len(refix.Reseed)))

	// Stamp the new mutation-log position into the workers (their
	// mid-fixpoint snapshots carry it) and write the park-boundary
	// checkpoint: a consistent view of "mutation applied, re-fixpoint
	// pending" that restores by simply running to convergence. Elastic
	// fleets skip the checkpoint: its per-slot shards are only restorable
	// under the ownership ring they were written with.
	for _, w := range s.workers {
		if w != nil {
			w.mutEpoch = s.mutEpoch
		}
	}
	if s.cfg.SnapshotDir != "" && !s.cfg.Elastic {
		s.writeParkCheckpoint()
	}

	// One more epoch: wake the fleet and run the termination protocol.
	s.bumpEngEpoch()
	s.m.epoch = s.engEpoch
	s.m.bcast(transport.Message{Kind: transport.EpochStart, Round: s.engEpoch})
	s.m.run()
	res, err := s.finishEpoch(start)
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if !s.m.parked {
		// Crash injection, iteration cap, or wall clock: the master
		// stopped the fleet, so the warm state is gone. Poison the
		// session; recovery is Close + Open(RestoreDir) + log replay.
		s.setResult(s.collect(time.Since(start)))
		err := fmt.Errorf("runtime: session epoch %d stopped without converging (crash, iteration cap, or wall-clock limit)", s.engEpoch)
		s.fail(err)
		return nil, err
	}
	s.setResult(res)
	return res, nil
}

// rangeAcc is the AccRanger the compiler's delta computation scans the
// distributed table with: every non-identity accumulation across all
// shards. Only sound while the fleet is parked.
func (s *Session) rangeAcc(f func(key int64, acc float64)) {
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		w.table.Range(func(k int64, v float64) bool {
			f(k, v)
			return true
		})
	}
}

// liveRoute returns a current member's route — every member holds an
// identical one after a fence, so any will do for session-side routing
// decisions (Apply reseeds). nil only if the fleet is empty.
func (s *Session) liveRoute() *shardRoute {
	for _, w := range s.workers {
		if w != nil && !w.retired {
			return w.route
		}
	}
	return nil
}

// finishEpoch classifies how m.run() ended. It returns an error only
// for fleet-level failures (dead transport, lost worker); a merely
// unconverged stop returns the collected Result with Converged=false
// (callers decide whether that poisons the session).
func (s *Session) finishEpoch(start time.Time) (*Result, error) {
	elapsed := time.Since(start)
	if !s.m.parked {
		// The master stopped the fleet (completion without park is the
		// naive path; otherwise crash/cap/wall) — or lost it. Wait for
		// the goroutines so the counters below are settled.
		s.wg.Wait()
		s.setFleetDown()
		for _, w := range s.workers {
			if w != nil {
				if err := w.err(); err != nil {
					return nil, err
				}
			}
		}
		if s.m.err != nil {
			return nil, s.m.err
		}
	}
	return s.collect(elapsed), nil
}

// collect snapshots the fleet's state into a Result. Safe either after
// the workers exited (fleetDown) or while they are parked (the ParkDone
// collect's happens-before edges cover every counter and table write).
func (s *Session) collect(elapsed time.Duration) *Result {
	res := &Result{
		Values:    map[int64]float64{},
		Rounds:    s.m.rounds,
		Elapsed:   elapsed,
		Converged: s.m.converged,
		Master:    s.m.met.reg.Snapshot(),
	}
	var sent, recv, flushes int64
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		sent += w.sent
		recv += w.recv
		flushes += w.flushes
		res.Workers = append(res.Workers, w.stats())
		w.table.Range(func(k int64, v float64) bool {
			res.Values[k] = v
			return true
		})
	}
	res.MessagesSent = sent - s.prevSent
	res.MessagesRecv = recv - s.prevRecv
	res.Flushes = flushes - s.prevFlush
	s.prevSent, s.prevRecv, s.prevFlush = sent, recv, flushes
	return res
}

// writeParkCheckpoint saves every shard at the park boundary, stamped
// with the mutation-log position just applied. The epoch stamp is kept
// above every snapshot the fleet has written so far (BSP barrier
// rounds, episode numbers, async pass counts), so LoadAll's newest-wins
// selection prefers it; the Cut flag matches the kind the mode's
// mid-fixpoint snapshots use, because LoadAll refuses directories that
// mix kinds. Best-effort, like every other snapshot path: durability
// must never fail the run.
func (s *Session) writeParkCheckpoint() {
	cut := modeBarriered[s.cfg.Mode] || !s.plan.Op.Selective()
	e := s.ckptEpoch + 1
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		if w.rounds >= e {
			e = w.rounds + 1
		}
		if int(w.passes) >= e {
			e = int(w.passes) + 1
		}
		if w.staleEpoch >= e {
			e = w.staleEpoch + 1
		}
	}
	if s.m.episodes >= e {
		e = s.m.episodes + 1
	}
	s.ckptEpoch = e
	for _, w := range s.workers {
		if w == nil {
			continue
		}
		var rows []ckpt.Row
		w.table.RangeRows(func(k int64, acc, inter float64) bool {
			rows = append(rows, ckpt.Row{Key: k, Acc: acc, Inter: inter})
			return true
		})
		meta := ckpt.Meta{Epoch: e, Worker: w.id, Workers: len(s.workers), Cut: cut, MutEpoch: s.mutEpoch}
		_ = ckpt.SaveShard(s.cfg.SnapshotDir, meta, rows)
		// Keep the worker's own stale-snapshot clock at or above this
		// stamp so its later local snapshots sort newer, not older.
		if w.staleEpoch < e {
			w.staleEpoch = e
		}
	}
}

// fail records the first sticky error and stops the fleet if it is
// still up. Called only by the busy holder; the field writes go through
// mu for the concurrent accessors' benefit.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	down := s.fleetDown
	s.mu.Unlock()
	if !down {
		s.m.bcast(transport.Message{Kind: transport.Stop})
		s.wg.Wait()
		s.setFleetDown()
	}
}

// ---------------------------------------------------------------------
// Membership lifecycle (membership.go, DESIGN.md §11). These callbacks
// run on the goroutine executing m.run — the session goroutine — so
// they access session state without locks.
// ---------------------------------------------------------------------

// spawnInto stands up a fresh worker in slot id on a reset transport
// endpoint, gated on the admission fence. The endpoint reset fences off
// the slot's previous incarnation (a stale conn can no longer send) and
// gives the replacement a clean inbox that never saw its own Orphan.
func (s *Session) spawnInto(id int) *worker {
	conn := s.net.ResetConn(id)
	w := newWorker(id, s.cfg, s.plan, s.cfg.Fault.Wrap(conn))
	w.joinGate = true
	w.reborn = true // a crashw= injection must not kill the replacement too
	w.mutEpoch = s.mutEpoch
	w.curEpoch = s.engEpoch
	w.epochGo = s.engEpoch
	w.staleEpoch = s.ckptEpoch
	if s.m.parked {
		// Spawned between fixpoints: park right after admission instead
		// of computing into a parked fleet.
		w.parkEpoch = s.engEpoch
	}
	if s.cfg.Elastic {
		// Adopt the current membership (a scale-out newcomer is absent
		// from it here; it adds itself at the fence, like every survivor).
		w.route.set(s.m.live)
	}
	s.workers[id] = w
	return w
}

func (s *Session) startSpawned(w *worker) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.run()
	}()
}

// respawnWorker replaces crashed worker id and picks the fence's
// rollback directive (see worker.repairState): selective aggregates keep
// state and replay (warm-starting the replacement from its newest
// own-shard snapshot when one matches the mutation epoch); combining
// aggregates rewind the fleet to the newest consistent cut, or to the
// ΔX¹ seed when no cut exists but no mutations have been applied either.
// ok=false falls back to the abort path: combining with no usable cut
// after mutations (the seed is no longer the true initial state), or any
// combining loss after a scale event (checkpoint shards are only
// restorable under the ownership ring they were written with), and a
// worker that went silent because it refused a hostile frame — its
// FrameError must reach the caller, not be papered over by a
// replacement fed from the same link.
func (s *Session) respawnWorker(id int) (int64, bool) {
	if old := s.workers[id]; old != nil && old.frameErr.Load() != nil {
		return 0, false
	}
	rollback := int64(0)
	var warm []ckpt.Row
	if !s.plan.Op.Selective() {
		if s.scaled {
			return 0, false
		}
		switch {
		case s.cfg.SnapshotDir == "":
			if s.mutEpoch != 0 {
				return 0, false
			}
			rollback = -1
		default:
			if s.fenceRelease == nil {
				// Pin the checkpoint directory across the fence so the
				// epoch chosen here cannot be pruned before the last
				// worker reloads it.
				if rel, err := ckpt.AcquireReadLease(s.cfg.SnapshotDir); err == nil {
					s.fenceRelease = rel
				}
			}
			_, meta, err := ckpt.LoadAll(s.cfg.SnapshotDir)
			switch {
			case err == nil && meta.Cut && meta.MutEpoch == s.mutEpoch:
				rollback = int64(meta.Epoch)
			case s.mutEpoch == 0:
				rollback = -1
			default:
				s.fenceReleased()
				return 0, false
			}
		}
	} else if s.cfg.SnapshotDir != "" {
		if rows, meta, err := ckpt.NewestShard(s.cfg.SnapshotDir, id); err == nil && meta.MutEpoch == s.mutEpoch {
			warm = rows
		}
	}
	w := s.spawnInto(id)
	if rollback == 0 {
		// Selective: seed the replacement's share of ΔX¹ and shortcut
		// re-derivation with the warm shard (folded as plain deltas —
		// Theorem 3 makes stale state safe). Survivors replay boundary
		// contributions at the fence; the rest re-derives locally.
		w.seed(s.plan.InitMRA)
		if warm != nil {
			w.restoreStale(warm)
		}
	}
	s.startSpawned(w)
	return rollback, true
}

// admitWorker stands up a brand-new worker for scale-out. It gets no
// seed: every row it will own under the new ring lives in a survivor's
// shard and arrives through the fence's Handoff migration (re-seeding
// would double-count combining aggregates).
func (s *Session) admitWorker(id int) bool {
	if s.fleetDown || s.workers[id] != nil {
		return false
	}
	s.scaled = true
	s.startSpawned(s.spawnInto(id))
	return true
}

// retireWorker drops a slot after scale-in: the worker retired itself at
// the fence (migrated its shard out, then stopped).
func (s *Session) retireWorker(id int) {
	s.scaled = true
	s.workers[id] = nil
}

// fenceReleased runs after every successful fence (and on recovery
// bail-out): drop the checkpoint read lease and rebase the per-epoch
// traffic baselines — the fence zeroed the fleet's counters.
func (s *Session) fenceReleased() {
	if s.fenceRelease != nil {
		s.fenceRelease()
		s.fenceRelease = nil
	}
	s.prevSent, s.prevRecv, s.prevFlush = 0, 0, 0
}

// AddWorker grows an elastic fleet by one worker and returns its slot
// id. Safe to call from any goroutine: while a fixpoint is running the
// command is queued and the master fences it in between poll rounds;
// with the fleet parked the caller claims the session and drives the
// fence directly (a concurrent Apply or second fence gets
// ErrSessionBusy). Requires Config.Elastic.
func (s *Session) AddWorker() (int, error) {
	return s.memberChange(memberCmd{add: true})
}

// RemoveWorker retires worker id from an elastic fleet, migrating its
// shard to the survivors. Concurrency contract as AddWorker.
func (s *Session) RemoveWorker(id int) error {
	_, err := s.memberChange(memberCmd{id: id})
	return err
}

func (s *Session) memberChange(cmd memberCmd) (int, error) {
	if !s.cfg.Elastic {
		return -1, fmt.Errorf("runtime: membership changes need Config.Elastic")
	}
	cmd.reply = make(chan memberCmdResult, 1)
	s.mu.Lock()
	if s.closing || s.closed {
		s.mu.Unlock()
		return -1, ErrSessionClosed
	}
	if err := s.err; err != nil {
		s.mu.Unlock()
		return -1, err
	}
	if s.busy {
		// A fixpoint (or fence) is in flight: queue the command and let
		// the master fence it in between poll rounds. Enqueueing under mu
		// while busy is what guarantees an answer — the busy holder's
		// end() drains the queue after the master's own deferred drain.
		select {
		case s.m.cmds <- cmd:
		default:
			s.mu.Unlock()
			return -1, fmt.Errorf("runtime: membership command queue is full")
		}
		s.mu.Unlock()
		select {
		case r := <-cmd.reply:
			return r.id, r.err
		case <-time.After(s.cfg.MaxWall + 5*time.Second):
			// end()'s drain rejects queued commands, so this only fires
			// if the master itself wedged past its own wall clock.
			return -1, fmt.Errorf("runtime: membership change timed out")
		}
	}
	if s.fleetDown {
		s.mu.Unlock()
		return -1, fmt.Errorf("runtime: session fleet is stopped")
	}
	// Parked fleet: claim the session and drive the fence synchronously
	// on this goroutine. Workers join it from their parked inbox wait.
	s.busy = true
	s.mu.Unlock()
	defer s.end()
	if !s.m.applyMemberCmd(cmd) {
		s.fail(s.m.err)
	}
	r := <-cmd.reply
	if cmd.add && r.err == nil && !s.fleetDown {
		// The newcomer still has to complete its park handshake against
		// the parked survivors; only after its ParkDone is the fleet
		// quiescent for the next Apply's table reads and writes.
		if !s.m.awaitParkDone(r.id) {
			s.fail(s.m.err)
			return r.id, s.Err()
		}
	}
	return r.id, r.err
}

// teardown releases everything; used by Open's error path and Close.
// The caller must hold the exclusive claim (Open's construction path or
// Close's closing flag), so no other operation is touching the fleet.
func (s *Session) teardown() {
	if s.fenceRelease != nil {
		s.fenceRelease()
		s.fenceRelease = nil
	}
	s.mu.Lock()
	down := s.fleetDown
	s.mu.Unlock()
	if !down {
		s.m.bcast(transport.Message{Kind: transport.Stop})
		s.wg.Wait()
		s.setFleetDown()
	}
	s.dump.close()
	s.net.Close()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close stops the parked fleet and releases the transport. Idempotent,
// and safe to call concurrently with Apply and membership changes: it
// commits to closing immediately — operations that arrive after Close
// has been called get ErrSessionClosed instead of queueing behind the
// teardown — and then waits for the one in-flight operation to finish
// (bounded by the wall budget) before tearing the fleet down. The
// commit-first order matters under contention: if Close merely waited
// for a busy-free window, callers re-claiming the session in a loop (a
// serving front end under load) could starve it indefinitely.
// Concurrent Closes wait for the first to complete. Close returns the
// first worker failure — a dead send path or a refused frame — if any;
// the session's sticky epoch error is reported by Apply/Err, not here.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.closing {
		// Another Close owns the teardown; wait for it to finish.
		for !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
		return nil
	}
	s.closing = true // from here every new begin()/memberChange is rejected
	for s.busy {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.teardown()
	for _, w := range s.workers {
		if w != nil {
			if err := w.err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result returns the most recent fixpoint's Result (the initial one
// after Open, the latest Apply's afterwards). It never blocks behind a
// running Apply: mid-epoch it returns the previous epoch's Result, which
// is immutable after publication and safe to read without coordination.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// Epoch returns the number of fixpoints this session has computed; the
// initial fixpoint is epoch 1.
func (s *Session) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engEpoch
}

// MutEpoch returns the mutation-log position the current state
// incorporates: 0 after a fresh Open, k after the k-th Apply, or the
// restored checkpoint's position after Open(RestoreDir) — the caller
// replays its own log entries past this point to catch up.
func (s *Session) MutEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mutEpoch
}

// Log returns the mutation log of this session's Applys (entries are
// stamped 1..MutEpoch; a restored session starts empty at the restored
// position). The log itself is appended to by Apply; read it only with
// the session quiescent (parked, poisoned, or closed).
func (s *Session) Log() *edb.MutationLog { return s.log }

// Err returns the session's sticky error, if an epoch failed.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
