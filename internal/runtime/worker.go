package runtime

import (
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/monotable"
	"powerlog/internal/transport"
)

// worker owns one MonoTable shard and runs the unified compute loop,
// parameterised by its mode's policy set (policy.go): a FlushPolicy for
// message buffering, a Scheduler for drain order and priority holding,
// and a BarrierPolicy for synchronisation. It has a dedicated
// communication goroutine (paper §5.3: "a dedicated thread for the
// communication among workers") fed through w.out.
type worker struct {
	id   int
	nw   int
	cfg  Config
	plan *compiler.Plan
	conn transport.Conn

	pol policySet // the mode's flush/scheduling/barrier strategies

	table monotable.Table // the shard (MRA modes: the only table)
	next  monotable.Table // naive mode: the table being built this round
	apply monotable.Table // where incoming Data folds land (next in naive mode)

	ownBase []compiler.KV            // naive mode: owned base tuples re-derived per round
	naive   *compiler.NaiveEvaluator // naive mode: per-worker relational join
	seen    *seenSet                 // naive mode: reused key-membership tracker

	out      chan outMsg
	outCtrl  chan outMsg // control lane: skips ahead of bulk data on the NIC
	commDone chan struct{}

	// Per-destination adaptive buffers (paper §5.3). Each buffer folds
	// updates per key with the program's aggregate before sending — the
	// sender-side combining that makes a buffered update "accumulate"
	// rather than queue (Figure 7's Intermediate, applied pre-wire).
	bufs []*outBuf
	// passBufs is the pass-long combiner, one buffer per destination:
	// remote emits fold here for the whole pass and reach bufs and the
	// flush policy only when the pass ends (mergePass), so same-key
	// updates from anywhere in the pass leave as one KV. It is empty
	// between passes.
	passBufs  []*outBuf
	lastFlush []time.Time
	win       window // traffic window ΔT driving FlushPolicy adaptation

	met workerMetrics // per-policy observability (observe.go, DESIGN.md §8)

	// Per-link Data sequencing for dup-tolerant termination: dataSeq[j]
	// is the last sequence number stamped (in Message.Round) on a batch
	// to destination j; dataSeen[s] dedups deliveries from sender s. A
	// redelivered batch's KVs still fold (duplicates are only injected
	// for selective programs, where re-folding is idempotent by Theorem
	// 3), but it is excluded from the recv watermark — otherwise Σrecv
	// could overtake Σsent and falsify the master's counting-quiescence
	// and ε-confirm tests. The window is exact under reordering, not just
	// FIFO redelivery: an out-of-order first delivery must still count.
	dataSeq  []int64
	dataSeen []dedupWindow

	sent, recv int64
	flushes    int64
	accDelta   float64 // Σ|acc change| since last stats reply
	accSum     float64 // running Σacc over the shard (identity rows count 0)
	accFolds   int64   // FoldAcc count since the last exact Σacc resync
	passes     int64   // async compute-loop iterations
	rounds     int

	// Reused drain-pass storage: a steady-state pass allocates nothing.
	drainKeys []int64
	drainBuf  []drained
	// scratch is the propagation-expression buffer (plan.PropagateInto).
	scratch []float64
	// Callbacks bound once to w.collectDirty, w.emit and w.emitMerged: a
	// method value passed as a func argument allocates a closure at every
	// use, and emit is passed once per propagated row.
	collectFn            func(int64)
	emitFn, emitMergedFn func(int64, float64)

	// control-state set by handle(). peerSteps is the EndPhase vector
	// clock: peerSteps[j] is the highest completed-superstep count worker
	// j has announced. Markers carry their sender's count and the
	// receiver keeps the max, so a duplicated or retransmitted marker is
	// idempotent and a dropped one is healed by any later (or resent)
	// marker from the same peer.
	stopped    bool
	peerSteps  []int
	verdict    transport.Kind // Continue or Stop, valid when verdictSet
	verdictSet bool

	// Snapshot-episode state (episode.go): the latest SnapRequest epoch,
	// the latest episode this worker completed, per-peer SnapMark epochs,
	// and the latest Resume epoch.
	snapReqEpoch  int
	snapDoneEpoch int
	snapMarks     []int
	resumeEpoch   int
	staleEpoch    int // last local stale-snapshot epoch (episode.go)

	// Session-epoch state (session.go). curEpoch is the fixpoint this
	// worker is computing (1 = the initial fixpoint); parkEpoch is the
	// highest Park the master has issued; parkMarks is the per-peer
	// ParkMark vector (the data-lane fence mirroring snapMarks); epochGo
	// is the highest EpochStart seen; mutEpoch stamps snapshots with the
	// mutation-log position they incorporate (the session advances it
	// while the worker is parked).
	curEpoch  int
	parkEpoch int
	parkMarks []int
	epochGo   int
	mutEpoch  int

	// sendErr records the first unrecoverable transport failure seen by
	// the comm goroutine; frameErr records a hostile Data frame the
	// compute goroutine refused to fold (a key outside this shard). Either
	// sets dead, which stops the compute loop instead of computing into a
	// dead network or a corrupted shard, and makes the comm loop discard
	// what is still queued. Run/RunWorker surface the error after the
	// worker exits (reading sendErr is safe then: commDone closes after
	// the final write); frameErr is atomic because the session's respawn
	// path reads it while deciding whether a silent slot may be replaced.
	sendErr  error
	frameErr atomic.Pointer[FrameError]
	dead     atomic.Bool

	stragglerWait time.Duration // SSP: total time blocked on stale peers

	// Membership state (membership.go, DESIGN.md §11). master is this
	// fleet's master endpoint (the capacity network's last slot — NOT
	// w.nw on elastic fleets). route maps keys to owners: static modulo
	// for fixed fleets, a consistent-hash ring under Config.Elastic.
	// down marks crash-orphaned slots (flushes suppressed, peer-minimum
	// scans skip them) and leaving marks slots retiring at the next
	// fence. The join* fields mirror the snapshot-episode state for
	// membership fences: the latest requested fence epoch with its
	// rollback directive and admitted slot, the per-peer cut-marker
	// vectors (joinMarks fences pre-fence data, joinMarks2 fences the
	// migration Handoffs — see runJoinFence), the last completed fence,
	// and the latest Release.
	master       int
	route        *shardRoute
	down         []bool
	leaving      []bool
	joinReqEpoch int
	joinRollback int64
	joinAdmit    int
	joinDone     int
	joinMarks    []int
	joinMarks2   []int
	releaseEpoch int
	joinGate     bool // spawned mid-run: gate the compute loop on admission
	crashed      bool // fault injection: this worker died silently
	reborn       bool // replacement spawned by the session (immune to crashw=)
	retired      bool // scale-in: this worker left at a fence
}

type outMsg struct {
	to int
	m  transport.Message
}

// backoff is an escalating wait for back-pressure loops: a few pure
// spins (the common case resolves within microseconds), then scheduler
// yields, then sleeps that grow to a 200µs ceiling — so a stalled
// destination costs neither latency in the common case nor a burned
// core in the worst one.
type backoff struct{ n int }

func (b *backoff) wait() {
	b.n++
	switch {
	case b.n <= 4:
		// Spin: the inbox often drains within a few hundred ns.
	case b.n <= 16:
		stdruntime.Gosched()
	default:
		d := time.Duration(b.n-16) * 10 * time.Microsecond
		if d > 200*time.Microsecond {
			d = 200 * time.Microsecond
		}
		time.Sleep(d)
	}
}

func (b *backoff) reset() { b.n = 0 }

func newWorker(id int, cfg Config, plan *compiler.Plan, conn transport.Conn) *worker {
	// Per-peer state is sized to the fleet's capacity, not its initial
	// size, so scale-out never needs to regrow link state mid-run. For
	// static fleets fleetCap() == Workers and nothing changes.
	fleet := cfg.fleetCap()
	w := &worker{
		id:   id,
		nw:   cfg.Workers,
		cfg:  cfg,
		plan: plan,
		conn: conn,

		out:      make(chan outMsg, 256),
		outCtrl:  make(chan outMsg, 64),
		commDone: make(chan struct{}),

		lastFlush: make([]time.Time, fleet),
		peerSteps: make([]int, fleet),
		snapMarks: make([]int, fleet),
		parkMarks: make([]int, fleet),
		curEpoch:  1,
		dataSeq:   make([]int64, fleet),
		dataSeen:  make([]dedupWindow, fleet),
		win: window{
			start:  time.Now(),
			counts: make([]int64, fleet),
		},

		master:     transport.MasterID(fleet),
		route:      newShardRoute(cfg),
		down:       make([]bool, fleet),
		leaving:    make([]bool, fleet),
		joinMarks:  make([]int, fleet),
		joinMarks2: make([]int, fleet),
		joinAdmit:  -1,
	}
	w.met = newWorkerMetrics(fleet)
	w.pol = policiesFor(cfg, plan, id, w.met.reg)
	if cfg.Fault != nil {
		// Straggler injection decorates the mode's barrier from outside
		// (inject.go): the policy seams absorb the fault layer with no
		// new switches in the hot path.
		w.pol.barrier = &stallBarrier{inner: w.pol.barrier, inj: cfg.Fault}
	}
	w.table = w.newTable()
	w.apply = w.table
	w.scratch = plan.NewScratch()
	w.bufs = newOutBufs(plan.Op, fleet, w.denseN())
	w.passBufs = newOutBufs(plan.Op, fleet, w.denseN())
	w.collectFn, w.emitFn, w.emitMergedFn = w.collectDirty, w.emit, w.emitMerged
	now := time.Now()
	for j := range w.lastFlush {
		w.lastFlush[j] = now
	}
	go w.commLoop()
	return w
}

func (w *worker) newTable() monotable.Table {
	if w.denseN() == 0 {
		return monotable.NewSparse(w.plan.Op)
	}
	return monotable.NewDense(w.plan.Op, w.plan.N, int64(w.nw), int64(w.id))
}

// denseN is the size of the fixed vertex key space [0, N) when the
// worker shards into a Dense table, and 0 otherwise. Dense tables stride
// keys by the static modulo partition; an elastic fleet's
// consistent-hash ownership has no such structure, and pair keys are
// not a dense range, so both shard into Sparse tables.
func (w *worker) denseN() int {
	if w.plan.PairKeys || w.cfg.Elastic {
		return 0
	}
	return w.plan.N
}

func (w *worker) owner(key int64) int { return w.route.owner(key) }

// sendAttempts bounds the comm goroutine's blocking-send retries. The
// transport has its own healing underneath (TCP redials with backoff and
// a circuit breaker; injected faults clear as the event counter
// advances), so a message that still fails after this many attempts is
// on a genuinely dead link.
const sendAttempts = 6

func (w *worker) commLoop() {
	defer close(w.commDone)
	emu := w.cfg.Network
	try, canTry := w.conn.(transport.TrySender)
	// deliver pushes one message through the blocking Send with bounded
	// escalating retry. A persistent failure kills the send path: the
	// error is recorded for Run/RunWorker to surface, and everything
	// queued afterwards is discarded (recycling Data batches) so the
	// compute goroutine can never deadlock against a dead network.
	// bestEffort marks shutdown stragglers — messages still queued after
	// the compute loop closed its lanes. The run's outcome no longer
	// depends on them, so a persistent failure there is discarded without
	// poisoning a run that already finished.
	deliver := func(om outMsg, bestEffort bool) {
		if w.dead.Load() {
			if om.m.Kind == transport.Data {
				transport.PutBatch(om.m.KVs)
			}
			return
		}
		var bo backoff
		for attempt := 1; ; attempt++ {
			err := w.conn.Send(om.to, om.m)
			if err == nil {
				return
			}
			// On error the transport did not consume the message
			// (transport.Conn contract), so retrying it is sound.
			if attempt >= sendAttempts {
				if !bestEffort {
					w.sendErr = err
					w.dead.Store(true)
				}
				if om.m.Kind == transport.Data {
					transport.PutBatch(om.m.KVs)
				}
				return
			}
			bo.wait()
		}
	}
	sendCtl := func(om outMsg) {
		if emu.Enabled() {
			time.Sleep(emu.cost(len(om.m.KVs)))
		}
		deliver(om, false)
	}
	send := func(om outMsg) {
		if emu.Enabled() {
			// The communication thread is the NIC: messages serialise
			// through it and each pays latency + volume/bandwidth.
			time.Sleep(emu.cost(len(om.m.KVs)))
		}
		if !canTry {
			deliver(om, false)
			return
		}
		// Avoid head-of-line blocking: while the destination is
		// back-pressured, keep the control lane moving. The wait
		// escalates (spin → yield → sleep) so a long-stalled destination
		// doesn't pin this goroutine to a core.
		var bo backoff
		for {
			ok, err := try.TrySend(om.to, om.m)
			if ok {
				return
			}
			if err != nil {
				// A hard TrySend error is not back-pressure; fall back to
				// the blocking path and its retry budget rather than
				// silently dropping the message.
				deliver(om, false)
				return
			}
			select {
			case ctl, chOk := <-w.outCtrl:
				if !chOk {
					// The compute loop has exited; om is a shutdown
					// straggler, delivered best-effort.
					w.outCtrl = nil
					deliver(om, true)
					return
				}
				sendCtl(ctl)
				bo.reset() // control progress means the net is moving
			default:
				bo.wait()
			}
		}
	}
	for {
		// Control traffic (stats replies, barrier markers) rides a
		// priority lane so bulk data cannot starve the termination check.
		select {
		case om, ok := <-w.outCtrl:
			if !ok {
				w.outCtrl = nil
				continue
			}
			send(om)
			continue
		default:
		}
		select {
		case om, ok := <-w.outCtrl:
			if !ok {
				w.outCtrl = nil
				continue
			}
			send(om)
		case om, ok := <-w.out:
			if !ok {
				// Drain any remaining control messages, then exit.
				for {
					select {
					case om, ok := <-w.outCtrl:
						if !ok {
							return
						}
						send(om)
					default:
						return
					}
				}
			}
			send(om)
		}
	}
}

// enqueue hands a message to the comm goroutine, draining the inbox while
// the queue is full so workers can never deadlock on mutual back-pressure.
// Master-bound reports take the control lane; EndPhase markers must NOT —
// they fence the data sent before them, so they ride the data lane to
// preserve per-destination ordering.
func (w *worker) enqueue(to int, m transport.Message) {
	lane := w.out
	if m.Kind == transport.StatsReply || m.Kind == transport.PhaseDone || m.Kind == transport.ParkDone {
		lane = w.outCtrl
	}
	for {
		select {
		case lane <- outMsg{to, m}:
			return
		case in, ok := <-w.conn.Inbox():
			if !ok {
				return
			}
			w.handle(in)
		}
	}
}

// dedupWindow is an exact delivered-once filter over one link's Data
// sequence numbers (stamped from 1 in flush). next is the lowest
// sequence not yet contiguously delivered; pending holds delivered
// sequences at or above next that arrived out of order. On the fault-free
// FIFO path every arrival is exactly next, so the window is a single
// compare-and-increment and pending stays nil — no allocations. Under
// injected duplication or adversarial reordering the map grows only to
// the link's momentary out-of-orderness.
type dedupWindow struct {
	next    int64
	pending map[int64]struct{}
}

// fresh reports whether seq is a first delivery, recording it.
func (d *dedupWindow) fresh(seq int64) bool {
	if d.next == 0 {
		d.next = 1 // sequences are stamped from 1
	}
	if seq < d.next {
		return false
	}
	if _, dup := d.pending[seq]; dup {
		return false
	}
	if seq == d.next {
		d.next++
		for len(d.pending) > 0 {
			if _, ok := d.pending[d.next]; !ok {
				break
			}
			delete(d.pending, d.next)
			d.next++
		}
		return true
	}
	if d.pending == nil {
		d.pending = make(map[int64]struct{})
	}
	d.pending[seq] = struct{}{}
	return true
}

// handle processes one incoming message. It is called from every place
// the worker blocks, so it must only mutate worker-local state.
func (w *worker) handle(m transport.Message) {
	switch m.Kind {
	case transport.Data:
		if !w.ownsBatch(m) {
			transport.PutBatch(m.KVs)
			return
		}
		// Round carries the sender's per-link sequence number (stamped in
		// flush); the dedup window decides whether this is the sequence's
		// first delivery.
		fresh := true
		if m.From >= 0 && m.From < len(w.dataSeen) {
			fresh = w.dataSeen[m.From].fresh(int64(m.Round))
		}
		n := int64(len(m.KVs))
		for _, kv := range m.KVs {
			w.apply.FoldDelta(kv.K, kv.V)
		}
		if fresh {
			w.recv += n
			w.win.in += n
			w.met.recvBatches.Inc()
		} else {
			// Duplicate: folded (idempotent for the selective programs
			// duplicates are injected on) but kept out of the recv
			// watermark so counting quiescence still balances.
			w.met.dupBatches.Inc()
		}
		// The batch is spent; recycle it (see the contract in transport).
		transport.PutBatch(m.KVs)
	case transport.EndPhase:
		// Round is the sender's completed-superstep count; keeping the
		// max makes markers idempotent (duplicates are no-ops) and
		// self-healing (any later marker covers a dropped one).
		if m.From >= 0 && m.From < len(w.peerSteps) && m.Round > w.peerSteps[m.From] {
			w.peerSteps[m.From] = m.Round
		}
	case transport.Continue:
		w.verdict, w.verdictSet = transport.Continue, true
	case transport.Stop:
		w.stopped = true
		w.verdict, w.verdictSet = transport.Stop, true
	case transport.StatsRequest:
		w.replyStats(m.Round)
	case transport.SnapRequest:
		if m.Round > w.snapReqEpoch {
			w.snapReqEpoch = m.Round
		}
	case transport.SnapMark:
		if m.From >= 0 && m.From < len(w.snapMarks) && m.Round > w.snapMarks[m.From] {
			w.snapMarks[m.From] = m.Round
		}
	case transport.Resume:
		if m.Round > w.resumeEpoch {
			w.resumeEpoch = m.Round
		}
	case transport.Park:
		if m.Round > w.parkEpoch {
			w.parkEpoch = m.Round
		}
		// For barriered modes Park doubles as the superstep verdict: the
		// worker sitting in awaitVerdict must unwind without setting
		// stopped, so the run loop reaches the park handshake.
		w.verdict, w.verdictSet = transport.Park, true
	case transport.ParkMark:
		if m.From >= 0 && m.From < len(w.parkMarks) && m.Round > w.parkMarks[m.From] {
			w.parkMarks[m.From] = m.Round
		}
	case transport.EpochStart:
		if m.Round > w.epochGo {
			w.epochGo = m.Round
		}
	case transport.Join:
		// Overloaded by direction (membership.go): from the master it is
		// the fence request — Round the fence epoch, Stats.Sent the
		// rollback directive, Stats.Recv the admitted slot + 1; from a
		// peer it is the cut marker on the data lane. Receivers keep the
		// max, so retransmissions are idempotent.
		if m.From == w.master {
			if m.Round > w.joinReqEpoch {
				w.joinReqEpoch = m.Round
				w.joinRollback = m.Stats.Sent
				w.joinAdmit = int(m.Stats.Recv) - 1
			}
		} else if m.From >= 0 && m.From < len(w.joinMarks) {
			// Stats.Sent distinguishes the fence's two marker rounds: 0 is
			// the pre-fence cut, 1 the post-migration cut (runJoinFence).
			if m.Stats.Sent != 0 {
				if m.Round > w.joinMarks2[m.From] {
					w.joinMarks2[m.From] = m.Round
				}
				// A second-round marker proves the sender finished the
				// first round, and per-pair FIFO means every pre-fence
				// datum it sent has already been folded here — so it
				// satisfies the first-round wait too. This heals a
				// first-round marker lost to a slot reset racing the
				// previous fence's Release (see resetLink).
				if m.Round > w.joinMarks[m.From] {
					w.joinMarks[m.From] = m.Round
				}
			} else if m.Round > w.joinMarks[m.From] {
				w.joinMarks[m.From] = m.Round
			}
		}
	case transport.Orphan:
		// Round names the slot. Stats.Sent != 0 is a graceful retirement
		// (scale-in: the slot keeps running until the fence migrates its
		// shard out); 0 is a crash verdict — suppress flushes toward the
		// slot and skip it in every peer-minimum scan, which unwedges any
		// gate or episode blocked on the dead worker. A worker never
		// marks itself down: if the master misjudged a slow worker, the
		// transport's generation fence kills it at its next send instead.
		if id := m.Round; id >= 0 && id < len(w.down) {
			if m.Stats.Sent != 0 {
				w.leaving[id] = true
			} else if id != w.id {
				w.down[id] = true
			}
		}
	case transport.Handoff:
		w.acceptHandoff(m)
	case transport.Release:
		if m.Round > w.releaseEpoch {
			w.releaseEpoch = m.Round
		}
	case transport.PhaseDone, transport.StatsReply, transport.SnapDone, transport.ParkDone:
		// Worker→master kinds; a worker receiving one (misrouted frame,
		// chaos injection) ignores it rather than corrupting local state.
	}
}

// FrameError reports a Data frame that carried a key outside the
// receiving worker's Dense shard: negative, at or beyond the vertex
// count N, or owned by another worker. Folding it would index outside
// the shard, so the worker refuses the whole batch and stops; Run,
// Session.Apply/Close and RunWorker return the error.
type FrameError struct {
	Worker int   // the receiving worker
	From   int   // the sender named on the frame
	Key    int64 // the first foreign key in the batch
	N      int   // the vertex key space [0, N)
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("runtime: worker %d got a data frame from %d carrying key %d outside its shard of [0,%d)",
		e.Worker, e.From, e.Key, e.N)
}

// ownsBatch checks a Data batch against the Dense shard it is about to
// fold into, once per batch before any of it folds. A foreign key marks
// the worker dead with a FrameError. Sparse shards (pair keys, elastic
// fleets) accept any key.
func (w *worker) ownsBatch(m transport.Message) bool {
	d, ok := w.apply.(*monotable.Dense)
	if !ok {
		return true
	}
	for _, kv := range m.KVs {
		if !d.Owns(kv.K) {
			w.frameErr.CompareAndSwap(nil, &FrameError{Worker: w.id, From: m.From, Key: kv.K, N: w.plan.N})
			w.dead.Store(true)
			return false
		}
	}
	return true
}

// err is the failure the worker stopped on, if any: a dead send path or
// a refused frame. Only valid once the worker has exited.
func (w *worker) err() error {
	if w.sendErr != nil {
		return fmt.Errorf("runtime: worker %d send failed: %w", w.id, w.sendErr)
	}
	if fe := w.frameErr.Load(); fe != nil {
		return fe
	}
	return nil
}

// accResyncFolds is how many FoldAcc signed deltas the running accSum
// absorbs before the next epoch boundary recomputes it exactly. Each
// `accSum += signed` rounds once, and across millions of mixed-sign
// folds the rounding error drifts in one direction (a small delta added
// next to a large accumulated value loses its low bits every time); the
// periodic exact resync bounds the drift the master's ε check can see.
const accResyncFolds = 1 << 20

// resyncAccSum recomputes Σacc exactly from the table (Neumaier
// compensated summation, so the recomputation itself doesn't reintroduce
// rounding skew) and replaces the running sum with it.
func (w *worker) resyncAccSum() {
	var sum, comp float64
	w.table.Range(func(_ int64, acc float64) bool {
		t := sum + acc
		if agg.Abs(sum) >= agg.Abs(acc) {
			comp += (sum - t) + acc
		} else {
			comp += (acc - t) + sum
		}
		sum = t
		return true
	})
	w.accSum = sum + comp
	w.accFolds = 0
}

func (w *worker) replyStats(round int) {
	if w.accFolds >= accResyncFolds {
		// A stats poll is the async family's epoch boundary: fold the
		// exact Σacc back in before the master reads it.
		w.resyncAccSum()
	}
	idle := !w.table.HasDirty() && !w.pol.sched.holding() && w.buffersEmpty()
	// The paper's termination thread evaluates the aggregation of the
	// Accumulation column; the master diffs consecutive global values.
	// accSum is maintained incrementally from FoldAcc's signed deltas,
	// so answering a poll is O(1) instead of an O(n) shard scan (the
	// amortised resync above keeps that honest against FP drift).
	st := transport.Stats{
		Sent:     w.sent,
		Recv:     w.recv,
		AccDelta: w.accDelta,
		AccSum:   w.accSum,
		Passes:   w.passes,
		Idle:     idle,
		Dirty:    w.table.HasDirty() || w.pol.sched.holding() || !w.buffersEmpty(),
	}
	w.accDelta = 0
	w.enqueue(w.master, transport.Message{
		Kind: transport.StatsReply, Round: round, Stats: st,
	})
}

func (w *worker) buffersEmpty() bool {
	for j, b := range w.bufs {
		if b.len() > 0 || w.passBufs[j].len() > 0 {
			return false
		}
	}
	return true
}

// seed folds this worker's share of ΔX¹ into its shard.
func (w *worker) seed(init []compiler.KV) {
	for _, kv := range init {
		if w.owner(kv.K) == w.id {
			w.table.FoldDelta(kv.K, kv.V)
		}
	}
}

// restore loads this worker's share of a consistent-cut checkpoint:
// accumulations are installed directly, pending intermediates re-folded
// so the run resumes exactly where the snapshot's cut left it.
func (w *worker) restore(rows []ckpt.Row) {
	id := w.plan.Op.Identity()
	for _, r := range rows {
		if w.owner(r.Key) != w.id {
			continue
		}
		if r.Acc != id {
			w.table.SetAcc(r.Key, r.Acc)
			w.accSum += r.Acc // keep the running Σacc in step with SetAcc
		}
		if r.Inter != id {
			w.table.FoldDelta(r.Key, r.Inter)
		}
	}
}

// restoreStale warm-starts from a stale (uncoordinated) snapshot by
// re-folding the saved rows as ordinary deltas over the normal ΔX¹ seed.
// Sound only for selective aggregates: Theorem 3's replay tolerance
// means extra or re-delivered deltas cannot move a min/max fixpoint, so
// the saved values only shortcut re-derivation, never corrupt it. The
// caller has already seeded ΔX¹ and verified Op.Selective().
func (w *worker) restoreStale(rows []ckpt.Row) {
	id := w.plan.Op.Identity()
	for _, r := range rows {
		if w.owner(r.Key) != w.id {
			continue
		}
		if r.Acc != id {
			w.table.FoldDelta(r.Key, r.Acc)
		}
		if r.Inter != id {
			w.table.FoldDelta(r.Key, r.Inter)
		}
	}
}

// snapshot writes this worker's shard as the given epoch. cut records
// whether the snapshot is part of a consistent cut (a BSP barrier or a
// marker episode) or a local stale snapshot (async/SSP selective modes).
func (w *worker) snapshot(epoch int, cut bool) error {
	var rows []ckpt.Row
	w.table.RangeRows(func(k int64, acc, inter float64) bool {
		rows = append(rows, ckpt.Row{Key: k, Acc: acc, Inter: inter})
		return true
	})
	meta := ckpt.Meta{Epoch: epoch, Worker: w.id, Workers: w.nw, Cut: cut, MutEpoch: w.mutEpoch}
	return ckpt.SaveShard(w.cfg.SnapshotDir, meta, rows)
}

// flush sends buffer j if it is non-empty. Each Data batch is stamped
// with the next per-link sequence number (in Round; the field is unused
// by Data otherwise) so the receiver can discard redeliveries from the
// termination watermark.
func (w *worker) flush(j int) {
	if w.down[j] {
		// The slot is crash-orphaned: hold the buffer. Selective replay
		// refills it for the replacement and it drains after the fence's
		// Release resets the link (extra deliveries are idempotent by
		// Theorem 3); rollback repairs discard it wholesale.
		return
	}
	kvs := w.bufs[j].take()
	if len(kvs) == 0 {
		return
	}
	w.sent += int64(len(kvs))
	w.win.out += int64(len(kvs))
	w.flushes++
	w.lastFlush[j] = time.Now()
	w.met.flushSize[j].Observe(uint64(len(kvs)))
	w.dataSeq[j]++
	w.enqueue(j, transport.Message{Kind: transport.Data, Round: int(w.dataSeq[j]), KVs: kvs})
}

func (w *worker) flushAll() {
	for j := range w.bufs {
		w.flush(j)
	}
}

// drainInbox applies all currently queued messages without blocking.
func (w *worker) drainInbox() bool {
	progressed := false
	for {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return progressed
			}
			w.handle(m)
			progressed = true
		default:
			return progressed
		}
	}
}

// run executes the worker until the master stops it: the single unified
// compute loop, bracketed by the mode's BarrierPolicy. Every mode —
// naive/MRA BSP, the async family, SSP — is this loop with different
// policies plugged in. In a session (session.go) the loop is wrapped in
// an epoch loop: when the master parks the fleet at a fixpoint instead
// of stopping it, the worker quiesces its data lanes, blocks until the
// session has applied a base-fact mutation, and re-enters the compute
// loop on the reseeded shard.
func (w *worker) run() {
	defer func() {
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
	}()
	if w.joinGate {
		// Spawned into a running fixpoint (crash replacement or
		// scale-out): hold the compute loop until the admission fence
		// Releases — at which point table, route, and link state are
		// consistent with the fleet.
		w.awaitAdmission()
		if w.stopped || w.dead.Load() {
			return
		}
	}
	w.pol.barrier.setup(w)
	for {
		w.runFixpoint()
		if w.stopped || w.dead.Load() || !w.parkPending() {
			return
		}
		if !w.parkAndAwait() {
			return
		}
	}
}

// runFixpoint is one fixpoint's worth of the unified compute loop. It
// returns when the worker is stopped, its send path died, or the master
// parked the fleet (session epoch boundary).
func (w *worker) runFixpoint() {
	for !w.stopped && !w.dead.Load() && !w.parkPending() {
		progressed := w.pol.barrier.beginPass(w)
		if w.stopped {
			return
		}
		if n := w.pol.pass(w); n > 0 {
			progressed = true
		}
		if !w.pol.barrier.endPass(w, progressed) {
			return
		}
	}
}

// parkPending reports whether the master has parked the current epoch.
func (w *worker) parkPending() bool { return w.parkEpoch >= w.curEpoch }

// broadcastParkMark fences this epoch's data on every peer link (data
// lane: per-pair ordering guarantees all data sent this epoch lands
// before the mark). Marks carry the epoch and receivers keep the max, so
// retransmissions are idempotent.
func (w *worker) broadcastParkMark(epoch int) {
	w.eachPeer(func(j int) {
		w.enqueue(j, transport.Message{Kind: transport.ParkMark, Round: epoch})
	})
}

func (w *worker) minParkMarks() int {
	least := maxSteps // no waitable peer: nothing to wait for
	for j, s := range w.parkMarks {
		if w.peerSkip(j) {
			continue
		}
		if s < least {
			least = s
		}
	}
	return least
}

// parkAndAwait runs the epoch-boundary handshake: flush every buffer,
// fence the data lanes with ParkMarks, fold incoming data until every
// peer's mark for this epoch arrives (per-pair FIFO means everything
// folded was sent before the peer's fence — the in-flight deltas an
// ε-termination may leave behind), report ParkDone, and block until the
// session starts the next epoch or stops the fleet. Once ParkDone is
// sent no peer sends Data again this epoch (their own fences are
// already up), so the session goroutine — which observes the ParkDone
// through the master's inbox, a happens-before edge — may read and
// mutate this worker's table until it broadcasts EpochStart.
func (w *worker) parkAndAwait() bool {
	e := w.curEpoch
	w.flushAll()
	w.broadcastParkMark(e)
	for !w.stopped && !w.dead.Load() && w.minParkMarks() < e {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return false
			}
			w.handle(m)
		case <-time.After(markerResend):
			// A lost mark would wedge a peer's handshake; re-fencing is
			// free (receivers keep the max).
			w.met.markerResends.Inc()
			w.broadcastParkMark(e)
		}
	}
	if w.stopped || w.dead.Load() {
		return false
	}
	w.enqueue(w.master, transport.Message{Kind: transport.ParkDone, Round: e})
	for !w.stopped && !w.dead.Load() && w.epochGo <= e {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return false
			}
			w.handle(m)
			// The parked inbox wait is also a membership safe point: a
			// scale fence driven between fixpoints (Session.AddWorker /
			// RemoveWorker on a parked fleet) is joined right here.
			w.maybeJoinFence()
			if w.stopped {
				return false // retired at the fence (scale-in)
			}
		case <-time.After(markerResend):
			// Keep healing peer handshakes while parked: a peer whose view
			// of our mark was lost is still blocked pre-ParkDone.
			w.broadcastParkMark(e)
		}
	}
	if w.stopped || w.dead.Load() {
		return false
	}
	w.curEpoch = e + 1
	w.verdictSet = false
	return true
}

// scanPass is the shared MRA compute body (paper Figure 7): drain a
// snapshot of dirty keys in the Scheduler's order, fold each delta into
// its accumulation, and propagate improvements. Remote contributions
// collect in the pass-long combiner until mergePass. It returns how many
// rows produced work.
func (w *worker) scanPass() int {
	n := 0
	refresh := w.pol.sched.refreshes()
	for _, d := range w.drainSnapshot() {
		if refresh {
			w.refresh(&d)
		}
		// §5.4 priority: small combining-aggregate deltas wait locally.
		// Refolding marks the row dirty again; the scheduler tracks the
		// held state so the idle detector stays honest.
		if w.pol.sched.hold(d.val) {
			w.table.FoldDelta(d.key, d.val)
			continue
		}
		improved, change, signed := w.table.FoldAcc(d.key, d.val)
		w.accFolds++
		w.accDelta += change
		w.accSum += signed
		if !w.shouldPropagate(improved, d.val) {
			continue
		}
		n++
		w.plan.PropagateInto(w.scratch, d.key, d.val, w.emitFn)
	}
	w.mergePass()
	return n
}

// mergePass ends a pass: it hands each destination's combined updates to
// the worker-level buffers and the flush policy, which still cuts them
// into β-sized batches.
func (w *worker) mergePass() {
	for _, b := range w.passBufs {
		if b.len() > 0 {
			b.drainInto(w.emitMergedFn)
		}
	}
}

// drained is one key's delta taken from the dirty set this pass.
type drained struct {
	key int64
	val float64
}

// drainSnapshot drains the current dirty set into a slice ordered by
// the Scheduler. The backing storage is reused across passes, so a
// steady-state pass allocates nothing.
func (w *worker) drainSnapshot() []drained {
	w.drainKeys = w.drainKeys[:0]
	w.table.ScanDirty(w.collectFn)
	out := w.drainBuf[:0]
	for _, k := range w.drainKeys {
		if v, ok := w.table.Drain(k); ok {
			out = append(out, drained{k, v})
		}
	}
	w.drainBuf = out
	w.pol.sched.arrange(out)
	return out
}

func (w *worker) collectDirty(k int64) { w.drainKeys = append(w.drainKeys, k) }

// refresh folds any delta that arrived since the snapshot into d — under
// the ordered schedule, a key processed late in the pass picks up the
// improvements its predecessors just propagated, which is where the
// delta-stepping saving comes from.
func (w *worker) refresh(d *drained) {
	if v, ok := w.table.Drain(d.key); ok {
		d.val = w.plan.Op.Fold(d.val, v)
		w.met.refreshHits.Inc()
	}
}

// shouldPropagate implements the per-aggregate forwarding rule: selective
// aggregates forward only improvements (anything else is dominated);
// combining aggregates forward every non-zero delta.
func (w *worker) shouldPropagate(improved bool, tmp float64) bool {
	if w.plan.Op.Selective() {
		return improved
	}
	return tmp != 0
}

// emit routes one contribution: local keys fold directly (they join the
// next pass via the dirty set), remote keys fold into the pass-long
// combiner. Each emit counts toward the β traffic window here, as it
// happens; the combined update mergePass hands on is not counted again.
func (w *worker) emit(dst int64, v float64) {
	o := w.owner(dst)
	if o == w.id {
		w.apply.FoldDelta(dst, v)
		return
	}
	w.passBufs[o].add(dst, v)
	w.win.counts[o]++
}

// emitMerged adds one remote update to its destination's buffer, which
// is flushed when the mode's FlushPolicy — or the BatchMax hard cap —
// says so.
func (w *worker) emitMerged(dst int64, v float64) {
	o := w.owner(dst)
	w.bufs[o].add(dst, v)
	if w.pol.flush.onEmit(o, w.bufs[o].len(), v) {
		w.flush(o)
		return
	}
	if w.bufs[o].len() >= w.cfg.BatchMax {
		w.flush(o)
	}
}

// timedFlush applies the τ interval — any buffer older than τ is sent —
// then hands the FlushPolicy its adaptation tick (the β(i,j) update
// rule of §5.3, the AAP delay switch of §6.5).
func (w *worker) timedFlush() {
	now := time.Now()
	for j := range w.bufs {
		if j == w.id {
			continue
		}
		if w.bufs[j].len() > 0 && now.Sub(w.lastFlush[j]) >= w.cfg.Tau {
			w.flush(j)
		}
	}
	w.pol.flush.onTick(now, &w.win)
}

// idleWait blocks briefly for new input so an idle worker does not spin.
func (w *worker) idleWait() {
	select {
	case m, ok := <-w.conn.Inbox():
		if !ok {
			w.stopped = true
			return
		}
		w.handle(m)
	case <-time.After(200 * time.Microsecond):
	}
}

// outBuf is a per-destination buffer that folds same-key updates with
// the program's aggregate, in arrival order of first touch. The dense
// key/value arrays hold the batch; an index maps a key to its entry.
// On a Dense key space (vertex keys fixed in [0, plan.N) at Open) the
// index is a direct position array, pos[key] — one []int32 of length N
// shared by every destination buffer of a set, which is sound
// because each key has exactly one owner and so lives in at most one of
// them. Pair-key and elastic fleets use an open-addressed flat
// combiner instead: a power-of-two slot table of indexes, linear
// probing, no tombstones (keys are never removed individually — a drain
// resets the whole table). Either index is reset in place by a drain
// (the position array only at the touched keys), the arrays are reused
// across flushes, and the drain target comes from the transport batch
// pool, so the steady-state fill→drain cycle allocates nothing.
type outBuf struct {
	op   *agg.Op
	keys []int64   // first-touch order
	vals []float64 // parallel to keys

	// Exactly one index is set: pos (key-indexed) or slots/mask (hashed).
	pos   []int32 // pos[key]: index+1 into keys, 0 = absent; shared
	slots []int32 // hash table: index+1 into keys, 0 = empty
	mask  uint64
}

// outBufInitSlots is the initial slot-table size; it grows to track the
// largest batch the destination ever needed and then stays put.
const outBufInitSlots = 256

func newOutBuf(op *agg.Op) *outBuf {
	return &outBuf{
		op:    op,
		slots: make([]int32, outBufInitSlots),
		mask:  outBufInitSlots - 1,
	}
}

// newOutBufs builds one combiner per destination (the worker's flush
// buffers, or scanPass's pass-long combiner). On a Dense key space they
// share a single key-indexed position array: 4 bytes per vertex per
// set, not per destination.
func newOutBufs(op *agg.Op, dests int, denseN int) []*outBuf {
	bufs := make([]*outBuf, dests)
	var pos []int32
	if denseN > 0 {
		pos = make([]int32, denseN)
	}
	for j := range bufs {
		if pos != nil {
			bufs[j] = &outBuf{op: op, pos: pos}
		} else {
			bufs[j] = newOutBuf(op)
		}
	}
	return bufs
}

// hashKey mixes the key bits (Fibonacci multiplier + xor-fold) so dense
// vertex ids and src<<32|dst pair keys both spread across the table.
func hashKey(k int64) uint64 {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return x ^ (x >> 32)
}

// add folds v into the buffered update for key. On the key-indexed path
// key must lie in [0, N): every caller emits propagation targets, which
// are vertices of the compiled graph.
func (b *outBuf) add(key int64, v float64) {
	if b.pos != nil {
		if idx := b.pos[key]; idx != 0 {
			b.vals[idx-1] = b.op.Fold(b.vals[idx-1], v)
			return
		}
		b.keys = append(b.keys, key)
		b.vals = append(b.vals, v)
		b.pos[key] = int32(len(b.keys))
		return
	}
	h := hashKey(key) & b.mask
	for {
		idx := b.slots[h]
		if idx == 0 {
			b.keys = append(b.keys, key)
			b.vals = append(b.vals, v)
			b.slots[h] = int32(len(b.keys))
			// Grow at 3/4 load so probe chains stay short.
			if uint64(len(b.keys)) >= b.mask/4*3 {
				b.grow()
			}
			return
		}
		if b.keys[idx-1] == key {
			b.vals[idx-1] = b.op.Fold(b.vals[idx-1], v)
			return
		}
		h = (h + 1) & b.mask
	}
}

// grow doubles the slot table and reindexes the dense entries (cheap:
// the keys are already compact, no entry moves).
func (b *outBuf) grow() {
	b.slots = make([]int32, 2*len(b.slots))
	b.mask = uint64(len(b.slots) - 1)
	for i, k := range b.keys {
		h := hashKey(k) & b.mask
		for b.slots[h] != 0 {
			h = (h + 1) & b.mask
		}
		b.slots[h] = int32(i + 1)
	}
}

func (b *outBuf) len() int { return len(b.keys) }

// reset empties the buffer in place: the key-indexed path clears only
// the positions this batch touched, the hashed path its whole table.
func (b *outBuf) reset() {
	if b.pos != nil {
		for _, k := range b.keys {
			b.pos[k] = 0
		}
	} else {
		clear(b.slots)
	}
	b.keys = b.keys[:0]
	b.vals = b.vals[:0]
}

// take drains the buffer into a pooled KV batch (first-touch order).
// Ownership of the batch passes to the caller, who hands it to Send
// under the transport recycle contract.
func (b *outBuf) take() []transport.KV {
	if len(b.keys) == 0 {
		return nil
	}
	kvs := transport.GetBatch(len(b.keys))
	for i, k := range b.keys {
		kvs = append(kvs, transport.KV{K: k, V: b.vals[i]})
	}
	b.reset()
	return kvs
}

// drainInto hands every buffered (key, value) pair to f in first-touch
// order and resets the buffer in place. Unlike take it allocates no
// pooled batch — mergePass re-emits each pair of the pass-long combiner
// through the worker-level buffers instead of sending directly.
func (b *outBuf) drainInto(f func(key int64, v float64)) {
	for i, k := range b.keys {
		f(k, b.vals[i])
	}
	b.reset()
}
