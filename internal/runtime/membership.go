package runtime

import (
	"fmt"
	"time"

	"powerlog/internal/ckpt"
	"powerlog/internal/graph"
	"powerlog/internal/transport"
)

// Elastic cluster membership (DESIGN.md §11): live worker re-join and
// shard rebalancing without restarting the fixpoint.
//
// The protocol has one primitive, the membership fence — a bounded
// Chandy–Lamport episode on the data lanes that establishes a globally
// quiescent cut, applies a membership or state change inside it, and
// resets the termination-protocol counters so the master's counting
// quiescence restarts from an exact zero. Three events drive a fence:
//
//   - crash re-join: the master's liveness probe declares a worker lost
//     (Orphan), the session respawns its slot on a fresh transport
//     endpoint, and the fence repairs state — survivors replay their
//     accumulations toward the replacement's keys (selective aggregates,
//     sound by Theorem 3's replay tolerance) or the whole fleet rolls
//     back to the newest consistent-cut checkpoint (combining
//     aggregates, which tolerate neither loss nor replay);
//   - scale-out (Session.AddWorker): a new worker is admitted, every
//     worker adds it to the consistent-hash ring at its fence point, and
//     rows that re-hash to the newcomer migrate as keyed Handoff
//     streams;
//   - scale-in (Session.RemoveWorker): a graceful Orphan marks the slot
//     leaving; at the fence it migrates its whole shard out, acks, and
//     retires after Release.
//
// Fence messages overload the Join kind by direction: master → worker
// it is the fence request (Round = fence epoch, Stats.Sent = rollback
// epoch or -1 for a seed reset, Stats.Recv = admitted id + 1), worker →
// worker it is the cut marker on the data lane, worker → master the
// ack. Every fence participant — survivors, the replacement, the
// newcomer, the leaver — sends markers to and requires markers from all
// other participants, so the cut needs no knowledge of who is a
// replacement; per-pair FIFO guarantees all pre-fence data is folded
// before the cut completes, and the transport fences a reset endpoint's
// stale connection off the network, so no pre-fence straggler can leak
// past the cut.

// vnodesPerMember is how many ring points each member contributes.
// 64 keeps the expected load imbalance under a few percent for the
// small fleets the in-process runtime targets while the ring stays tiny
// (cap × 64 points).
const vnodesPerMember = 64

// ringPoint is one vnode on the consistent-hash ring.
type ringPoint struct {
	hash uint64
	id   int32
}

// shardRoute maps keys to owning workers. Static fleets (members == nil)
// use the original modulo partitioning — bit-identical routing to the
// pre-membership engine. Elastic fleets route over a consistent-hash
// ring rebuilt from the current membership, so adding or removing a
// member moves only the key ranges owned by that member's vnodes.
type shardRoute struct {
	mod     int    // static: modulo over the fixed fleet size
	members []bool // elastic: current membership by slot (nil = static)
	ring    []ringPoint
}

func newShardRoute(cfg Config) *shardRoute {
	r := &shardRoute{mod: cfg.Workers}
	if cfg.Elastic {
		r.members = make([]bool, cfg.fleetCap())
		for j := 0; j < cfg.Workers; j++ {
			r.members[j] = true
		}
		r.rebuild()
	}
	return r
}

// pointHash places vnode replica rep of member id on the ring. Pure
// function of (id, rep), so every worker — including one admitted
// mid-run — derives the identical ring from the same membership.
func pointHash(id, rep int) uint64 {
	x := uint64(id+1)*0x9E3779B97F4A7C15 ^ uint64(rep+1)*0xBF58476D1CE4E5B9
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *shardRoute) rebuild() {
	r.ring = r.ring[:0]
	for id, in := range r.members {
		if !in {
			continue
		}
		for rep := 0; rep < vnodesPerMember; rep++ {
			r.ring = append(r.ring, ringPoint{hash: pointHash(id, rep), id: int32(id)})
		}
	}
	// Insertion sort territory would do, but keep it simple and exact:
	// sort by hash, tie-break by id so the ring is deterministic even in
	// the (astronomically unlikely) event of a hash collision.
	points := r.ring
	for i := 1; i < len(points); i++ {
		p := points[i]
		j := i - 1
		for j >= 0 && (points[j].hash > p.hash || (points[j].hash == p.hash && points[j].id > p.id)) {
			points[j+1] = points[j]
			j--
		}
		points[j+1] = p
	}
}

// owner returns the worker that owns key under the current membership.
func (r *shardRoute) owner(key int64) int {
	if r.members == nil {
		return graph.Partition(key, r.mod)
	}
	h := hashKey(key)
	// First ring point with hash >= h, wrapping to the start.
	lo, hi := 0, len(r.ring)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.ring[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.ring) {
		lo = 0
	}
	return int(r.ring[lo].id)
}

// participant reports whether slot j takes part in a fence under the
// current membership (the admitted newcomer is added by the caller).
func (r *shardRoute) participant(j int) bool {
	if r.members == nil {
		return j < r.mod
	}
	return r.members[j]
}

// set replaces the membership (elastic only) and rebuilds the ring.
func (r *shardRoute) set(members []bool) {
	if r.members == nil {
		return
	}
	copy(r.members, members)
	r.rebuild()
}

func (r *shardRoute) add(id int) {
	if r.members == nil || r.members[id] {
		return
	}
	r.members[id] = true
	r.rebuild()
}

func (r *shardRoute) remove(id int) {
	if r.members == nil || !r.members[id] {
		return
	}
	r.members[id] = false
	r.rebuild()
}

// ---------------------------------------------------------------------
// Worker side: the fence state machine.
// ---------------------------------------------------------------------

// maxSteps is the "nothing to wait for" sentinel the peer-minimum scans
// return when membership skips every peer.
const maxSteps = int(^uint(0) >> 1)

// peerSkip reports whether slot j is excluded from peer-minimum scans:
// self, crash-orphaned peers (their replacement restarts every clock at
// the fence), and — on elastic fleets — slots outside the membership.
func (w *worker) peerSkip(j int) bool {
	if j == w.id || w.down[j] {
		return true
	}
	if w.route.members != nil {
		return !w.route.members[j]
	}
	return false
}

// eachPeer calls f for every current member except this worker (static
// fleets: every other slot). Down peers are included — broadcasts to a
// lost slot reach its replacement, or die harmlessly with the reset
// inbox.
func (w *worker) eachPeer(f func(j int)) {
	if w.route.members == nil {
		for j := 0; j < w.nw; j++ {
			if j != w.id {
				f(j)
			}
		}
		return
	}
	for j, in := range w.route.members {
		if in && j != w.id {
			f(j)
		}
	}
}

// eachFenceParticipant iterates the fence's marker set: every member
// plus the admitted newcomer (if any), minus self. Crash-orphaned slots
// stay in the set — their freshly spawned replacement sends and expects
// markers like any survivor.
func (w *worker) eachFenceParticipant(admit int, f func(j int)) {
	for j := range w.joinMarks {
		if j == w.id {
			continue
		}
		if j == admit || w.route.participant(j) {
			f(j)
		}
	}
}

// fenceCohort freezes the fence's marker set at entry: the pre-change
// membership plus the admitted newcomer. Both marker rounds use this
// frozen set — applyMembership changes the route between them, and a
// leaver dropped from the live membership still has Handoffs in flight
// that its phase-2 marker must fence.
func (w *worker) fenceCohort(admit int) []bool {
	set := make([]bool, len(w.joinMarks))
	w.eachFenceParticipant(admit, func(j int) { set[j] = true })
	return set
}

// broadcastJoinMark sends one fence cut marker to every cohort member.
// phase 1 fences pre-fence data, phase 2 (Stats.Sent = 1) fences the
// migration Handoffs sent between the two rounds.
func (w *worker) broadcastJoinMark(epoch, phase int, cohort []bool) {
	var stats transport.Stats
	if phase == 2 {
		stats.Sent = 1
	}
	for j, in := range cohort {
		if in {
			w.enqueue(j, transport.Message{Kind: transport.Join, Round: epoch, Stats: stats})
		}
	}
}

func (w *worker) minJoinMarks(cohort []bool, marks []int) int {
	least := maxSteps
	for j, in := range cohort {
		if in && marks[j] < least {
			least = marks[j]
		}
	}
	return least
}

// maybeJoinFence joins a pending membership fence. Called only at pass
// boundaries and gate waits — the safe points where buffers are
// flushable and no pass is half-scanned (the same safe points snapshot
// episodes use).
func (w *worker) maybeJoinFence() {
	e := w.joinReqEpoch
	if e <= w.joinDone || w.stopped {
		return
	}
	w.runJoinFence(e)
}

// runJoinFence executes one fence as a participant:
//
//  1. flush all buffers (suppressed toward crash-orphaned slots) and
//     fence every link with first-round Join markers;
//  2. fold incoming data until every participant's first marker arrives
//     — per-pair FIFO makes the resulting cut consistent;
//  3. inside the cut: apply the membership change, migrate re-hashed
//     rows (Handoff), and repair state per the master's rollback
//     directive;
//  4. fence every link again with second-round markers and fold until
//     every participant's second marker arrives — each sender's marker
//     follows its Handoffs on the same FIFO link, so when the round
//     completes every migrated row destined here has been folded;
//  5. zero the termination counters and ack the master. Because every
//     participant acks only after step 4, the master's Release
//     certifies global migration quiescence: a parked session may read
//     and mutate tables the moment its fence call returns;
//  6. fold until Release, then clear orphan flags, reset per-link
//     protocol state for replaced/joined/left slots, and resume (or
//     retire).
func (w *worker) runJoinFence(e int) {
	admit := w.joinAdmit
	rollback := w.joinRollback
	cohort := w.fenceCohort(admit)
	w.flushAll()
	w.broadcastJoinMark(e, 1, cohort)
	for !w.stopped && !w.dead.Load() && w.minJoinMarks(cohort, w.joinMarks) < e {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return
			}
			w.handle(m)
		case <-time.After(markerResend):
			w.met.markerResends.Inc()
			w.broadcastJoinMark(e, 1, cohort)
		}
	}
	if w.stopped || w.dead.Load() {
		return
	}
	w.applyMembership(admit)
	w.repairState(rollback)
	w.broadcastJoinMark(e, 2, cohort)
	for !w.stopped && !w.dead.Load() && w.minJoinMarks(cohort, w.joinMarks2) < e {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return
			}
			w.handle(m)
		case <-time.After(markerResend):
			w.met.markerResends.Inc()
			w.broadcastJoinMark(e, 2, cohort)
		}
	}
	if w.stopped || w.dead.Load() {
		return
	}
	// The cut is doubly quiescent: every pre-fence delta and every
	// migrated row on a live link has been folded, nothing is in flight,
	// and the transport has fenced off any dead sender's stale
	// connection. Zeroing here on every participant gives the master's
	// Σsent == Σrecv test an exact fresh baseline.
	w.sent, w.recv, w.flushes = 0, 0, 0
	w.enqueue(w.master, transport.Message{Kind: transport.Join, Round: e})
	for !w.stopped && !w.dead.Load() && w.releaseEpoch < e {
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return
			}
			w.handle(m)
		case <-time.After(markerResend):
			// A peer still quiescing may be waiting on a marker the
			// injector dropped; re-fencing is idempotent (receivers keep
			// the max).
			w.broadcastJoinMark(e, 2, cohort)
		}
	}
	if w.stopped || w.dead.Load() {
		return
	}
	w.finishFence(e, admit)
}

// applyMembership commits a scale event to the local route and migrates
// the rows it re-homes. No-op for static fleets (crash re-join replaces
// a slot in place) and for crash fences on elastic fleets (membership
// unchanged).
func (w *worker) applyMembership(admit int) {
	if w.route.members == nil {
		return
	}
	changed := false
	if admit >= 0 && !w.route.members[admit] {
		w.route.add(admit)
		changed = true
	}
	for j, leaving := range w.leaving {
		if leaving && w.route.members[j] {
			w.route.remove(j)
			changed = true
		}
	}
	if changed {
		w.migrateRows()
	}
}

// migrateRows hands every row this worker no longer owns to its new
// owner: Accumulation values as Handoff(Round 0) batches installed via
// SetAcc, pending Intermediate deltas as Handoff(Round 1) batches folded
// via FoldDelta (which re-dirties them, so the new owner resumes their
// propagation). The consistent-hash ring guarantees each key moves from
// exactly one sender to exactly one receiver, and the fence guarantees
// the receiver folds the batches before its post-Release traffic — so
// migration neither loses nor double-counts state for either aggregate
// class.
func (w *worker) migrateRows() {
	ident := w.plan.Op.Identity()
	type movedRow struct {
		k          int64
		acc, inter float64
	}
	var moved []movedRow
	w.table.RangeRows(func(k int64, acc, inter float64) bool {
		if w.owner(k) != w.id {
			moved = append(moved, movedRow{k, acc, inter})
		}
		return true
	})
	if len(moved) == 0 {
		return
	}
	accOut := make([][]transport.KV, len(w.bufs))
	interOut := make([][]transport.KV, len(w.bufs))
	for _, r := range moved {
		o := w.owner(r.k)
		if r.acc != ident {
			accOut[o] = append(accOut[o], transport.KV{K: r.k, V: r.acc})
		}
		if r.inter != ident {
			interOut[o] = append(interOut[o], transport.KV{K: r.k, V: r.inter})
		}
		w.table.Invalidate(r.k)
	}
	for o := range accOut {
		w.sendHandoff(o, 0, accOut[o])
		w.sendHandoff(o, 1, interOut[o])
	}
	// Invalidate bypasses the monotone fold the running Σacc tracks.
	w.resyncAccSum()
}

func (w *worker) sendHandoff(dst, round int, kvs []transport.KV) {
	for len(kvs) > 0 {
		n := len(kvs)
		if n > w.cfg.BatchMax {
			n = w.cfg.BatchMax
		}
		batch := append(transport.GetBatch(n), kvs[:n]...)
		w.enqueue(dst, transport.Message{Kind: transport.Handoff, Round: round, KVs: batch})
		kvs = kvs[n:]
	}
}

// acceptHandoff folds one migration batch: Round 0 installs Accumulation
// values, Round 1 re-folds pending Intermediate deltas.
func (w *worker) acceptHandoff(m transport.Message) {
	if m.Round == 0 {
		for _, kv := range m.KVs {
			w.table.SetAcc(kv.K, kv.V)
			w.accSum += kv.V
		}
	} else {
		for _, kv := range m.KVs {
			w.table.FoldDelta(kv.K, kv.V)
		}
	}
	transport.PutBatch(m.KVs)
}

// repairState applies the master's rollback directive inside the cut.
//
//	rollback > 0: reload this shard from consistent-cut epoch `rollback`
//	              (combining aggregates after a crash — the whole fleet
//	              rewinds to the same cut);
//	rollback < 0: reset to the ΔX¹ seed (combining aggregates with no
//	              usable cut — only issued when the seed is still the
//	              true initial state, i.e. no mutations applied);
//	rollback = 0: keep state; survivors of a crash replay their
//	              accumulations toward the lost shard's keys (selective
//	              aggregates — Theorem 3 makes the replay idempotent).
func (w *worker) repairState(rollback int64) {
	switch {
	case rollback > 0:
		w.reloadCut(int(rollback))
	case rollback < 0:
		w.resetToSeed()
	default:
		if w.plan.Op.Selective() && w.anyDown() {
			w.replayForDown()
		}
	}
}

func (w *worker) anyDown() bool {
	for _, d := range w.down {
		if d {
			return true
		}
	}
	return false
}

// dropBuffers discards every buffered outbound update (rollback paths:
// the reloaded or reseeded state re-derives them).
func (w *worker) dropBuffers() {
	for _, b := range w.bufs {
		b.drainInto(func(int64, float64) {})
	}
}

func (w *worker) resetTable() {
	w.dropBuffers()
	w.table = w.newTable()
	w.apply = w.table
	w.accSum, w.accDelta, w.accFolds = 0, 0, 0
}

// reloadCut rewinds this shard to the given consistent-cut epoch. The
// session holds a checkpoint read lease across the fence, so the epoch
// the master chose cannot be pruned between its decision and this read;
// a missing shard therefore only happens under external damage, in
// which case the seed fallback at least keeps selective programs
// correct (monotone re-derivation) rather than wedging the fence.
func (w *worker) reloadCut(epoch int) {
	w.resetTable()
	rows, _, err := ckpt.LoadShard(w.cfg.SnapshotDir, epoch, w.id)
	if err != nil {
		w.seed(w.plan.InitMRA)
		return
	}
	w.restore(rows)
}

func (w *worker) resetToSeed() {
	w.resetTable()
	w.seed(w.plan.InitMRA)
}

// replayForDown re-propagates every accumulated value whose
// contributions reach keys owned by a crash-orphaned slot, buffering
// them for the replacement (flushes toward down slots stay suppressed
// until Release). Together with the replacement's own warm-start or
// seed, this re-derives the lost shard: boundary contributions arrive
// by replay, interior chains re-derive locally from them. Selective
// aggregates only — replayed deltas are idempotent under min/max
// (Theorem 3), so values the replacement already has simply re-fold.
func (w *worker) replayForDown() {
	w.table.Range(func(k int64, acc float64) bool {
		w.plan.PropagateInto(w.scratch, k, acc, func(dst int64, v float64) {
			if o := w.owner(dst); o != w.id && w.down[o] {
				w.bufs[o].add(dst, v)
			}
		})
		return true
	})
}

// finishFence commits the fence at Release: orphan flags clear, per-link
// protocol state (Data sequencing, dedup windows, marker clocks) resets
// for every replaced, admitted, or departed slot — both ends of such a
// link reset symmetrically, while survivor↔survivor links keep their
// continuity — and a leaving worker retires.
func (w *worker) finishFence(e, admit int) {
	for j := range w.down {
		if w.down[j] {
			w.down[j] = false
			w.resetLink(j, e)
		}
	}
	for j, leaving := range w.leaving {
		if !leaving {
			continue
		}
		w.leaving[j] = false
		w.resetLink(j, e)
		if j == w.id {
			w.retired = true
			w.stopped = true
		}
	}
	if admit >= 0 && admit != w.id {
		w.resetLink(admit, e)
	}
	w.joinDone = e
	w.joinGate = false
}

// resetLink clears link j's protocol state after fence e replaced,
// admitted, or retired that slot. The marker clocks are epoch-stamped
// and must only be cleared UP TO the fence being committed: the master
// moves on to its next queued fence the moment it sends this one's
// Release, so the next fence's newcomer — possibly spawned into this
// same slot — can broadcast its first-round markers before our Release
// arrives. Unconditionally zeroing the clocks here would erase such a
// marker, and the newcomer never re-sends round-1 markers once it
// advances to round 2: every other participant would fence while this
// worker resends round-1 markers forever, wedging the fence (and the
// Apply driving it, and any Close waiting behind that).
func (w *worker) resetLink(j, e int) {
	w.dataSeq[j] = 0
	w.dataSeen[j] = dedupWindow{}
	w.peerSteps[j] = 0
	w.snapMarks[j] = 0
	w.parkMarks[j] = 0
	if w.joinMarks[j] <= e {
		w.joinMarks[j] = 0
	}
	if w.joinMarks2[j] <= e {
		w.joinMarks2[j] = 0
	}
}

// awaitAdmission is the gated prologue of a worker spawned into a
// running fixpoint (crash replacement or scale-out newcomer): it sits on
// its inbox until the master's fence request arrives, participates in
// that fence like any survivor, and returns once Released — at which
// point its table, route, and link state are consistent with the fleet
// and the normal compute loop may start.
func (w *worker) awaitAdmission() {
	for !w.stopped && !w.dead.Load() && w.joinDone == 0 {
		if w.joinReqEpoch > w.joinDone {
			w.runJoinFence(w.joinReqEpoch)
			continue
		}
		select {
		case m, ok := <-w.conn.Inbox():
			if !ok {
				w.stopped = true
				return
			}
			w.handle(m)
		case <-time.After(markerResend):
		}
	}
}

// ---------------------------------------------------------------------
// Master side: liveness recovery and scale coordination.
// ---------------------------------------------------------------------

// memberCoordinator is the session's half of the membership layer: the
// master drives the wire protocol, the session owns worker lifecycles
// (goroutines, transport endpoints, checkpoint reads). All callbacks run
// on the session goroutine — the same one executing master.run — so
// they may touch session state freely.
type memberCoordinator struct {
	// spawn replaces lost worker id on a fresh endpoint and reports the
	// fence's rollback directive (see worker.repairState). ok=false
	// means the loss is unrecoverable (e.g. a combining aggregate with
	// no cut covering the applied mutations) and the master falls back
	// to the abort path.
	spawn func(id int) (rollback int64, ok bool)
	// admit stands up a brand-new worker in slot id for scale-out.
	admit func(id int) bool
	// retire drops a slot after scale-in completes.
	retire func(id int)
	// released fires after every successful fence (lease release,
	// counter-baseline reset).
	released func()
}

// memberCmd is one Session.AddWorker / RemoveWorker request, processed
// by the master between poll rounds.
type memberCmd struct {
	add   bool
	id    int
	reply chan memberCmdResult
}

type memberCmdResult struct {
	id  int
	err error
}

func (m *master) activeCount() int {
	n := 0
	for _, l := range m.live {
		if l {
			n++
		}
	}
	return n
}

// fenceTimeout bounds one fence: quiesce + (possibly) a checkpoint
// reload per worker + migration. Far looser than a collect — disk is
// involved — but still bounded so a worker dying mid-fence surfaces as
// an error, not a hang.
func (m *master) fenceTimeout() time.Duration {
	d := 20 * m.collectTimeout()
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	if m.cfg.MaxWall > 0 && d > m.cfg.MaxWall {
		d = m.cfg.MaxWall
	}
	return d
}

// runFence drives one membership fence: broadcast the request, collect
// one ack per participant, broadcast Release. admit >= 0 additionally
// includes (and afterwards activates) a not-yet-live slot. Returns
// false on an unrecoverable failure (m.err set, fleet stopped).
func (m *master) runFence(rollback int64, admit int) bool {
	m.fence++
	e := m.fence
	req := transport.Message{Kind: transport.Join, Round: e,
		Stats: transport.Stats{Sent: rollback, Recv: int64(admit) + 1}}
	m.bcast(req)
	if admit >= 0 {
		m.sendTo(admit, req)
	}
	need := m.activeCount()
	if admit >= 0 {
		need++
	}
	deadline := time.Now().Add(m.fenceTimeout())
	for got := 0; got < need; {
		msg, ok, timedOut := m.recv()
		if !ok {
			return false
		}
		if timedOut {
			if time.Now().After(deadline) {
				m.met.collectTimeouts.Inc()
				m.err = fmt.Errorf("runtime: membership fence %d got %d/%d acks within %v: %w",
					e, got, need, m.fenceTimeout(), ErrWorkerLost)
				m.bcast(transport.Message{Kind: transport.Stop})
				return false
			}
			continue
		}
		if msg.Kind == transport.Join && msg.Round == e {
			got++
		}
		// Anything else (late stats replies, duplicate acks) is
		// irrelevant mid-fence; the poll loop restarts after Release.
	}
	rel := transport.Message{Kind: transport.Release, Round: e}
	m.bcast(rel)
	if admit >= 0 {
		m.sendTo(admit, rel)
		m.live[admit] = true
	}
	if m.member.released != nil {
		m.member.released()
	}
	return true
}

// awaitParkDone collects the park handshake of a worker admitted into an
// already-parked fleet. After the fence's Release the newcomer parks like
// any worker at an epoch boundary: it fences the data lanes with
// ParkMarks (the parked survivors' resend loops answer in kind, their
// routes including it after the fence) and reports ParkDone. Only then is
// the fleet quiescent again, so a parked-fleet AddWorker must not return
// — and the session's next Apply must not read or mutate tables — before
// that ParkDone arrives.
func (m *master) awaitParkDone(id int) bool {
	deadline := time.Now().Add(m.fenceTimeout())
	for {
		msg, ok, timedOut := m.recv()
		if !ok {
			return false
		}
		if timedOut {
			if time.Now().After(deadline) {
				m.met.collectTimeouts.Inc()
				m.err = fmt.Errorf("runtime: admitted worker %d did not park within %v: %w",
					id, m.fenceTimeout(), ErrWorkerLost)
				m.bcast(transport.Message{Kind: transport.Stop})
				return false
			}
			continue
		}
		if msg.Kind == transport.ParkDone && msg.From == id && msg.Round == m.epoch {
			return true
		}
	}
}

// recoverLost attempts live re-join for the workers that stayed silent
// through a stats collect and its second-chance probe. It returns true
// when the fleet has been repaired and the poll loop should continue
// (with its detector state reset); false sends the caller to the
// abort path.
func (m *master) recoverLost(seen []bool) bool {
	if m.member == nil {
		return false
	}
	var lost []int
	for j, l := range m.live {
		if l && !seen[j] {
			lost = append(lost, j)
		}
	}
	if len(lost) == 0 || len(lost) >= m.activeCount() {
		// Nothing identifiably dead, or no survivors to re-join against.
		return false
	}
	start := time.Now()
	// Orphan first, then reset+respawn: the copy of the Orphan queued to
	// the doomed slot's old inbox dies with it at ResetConn, so a
	// replacement never sees itself declared down; survivors suppress
	// flushes to the slot and skip it in their peer-minimum scans, which
	// unwedges any gate or episode blocked on the dead worker.
	for _, id := range lost {
		m.bcast(transport.Message{Kind: transport.Orphan, Round: id})
		m.met.memberOrphans.Inc()
	}
	rollback := int64(0)
	for _, id := range lost {
		rb, ok := m.member.spawn(id)
		if !ok {
			return false
		}
		if rb != 0 {
			rollback = rb
		}
	}
	if !m.runFence(rollback, -1) {
		return false
	}
	m.met.memberJoins.Add(uint64(len(lost)))
	m.met.memberHandoffUS.Observe(uint64(time.Since(start).Microseconds()))
	return true
}

// pollMemberCmds applies queued AddWorker/RemoveWorker requests. It
// returns true when a fence ran (the caller resets its termination
// detector) and sets aborted when a fence failed unrecoverably.
func (m *master) pollMemberCmds() (changed, aborted bool) {
	if m.cmds == nil {
		return false, false
	}
	for {
		select {
		case cmd := <-m.cmds:
			ok := m.applyMemberCmd(cmd)
			changed = true
			if !ok {
				return changed, true
			}
		default:
			return changed, false
		}
	}
}

func (m *master) applyMemberCmd(cmd memberCmd) bool {
	if cmd.add {
		id := -1
		for j, l := range m.live {
			if !l {
				id = j
				break
			}
		}
		if id < 0 {
			cmd.reply <- memberCmdResult{id: -1,
				err: fmt.Errorf("runtime: fleet is at its MaxWorkers capacity (%d)", len(m.live))}
			return true
		}
		if !m.member.admit(id) {
			cmd.reply <- memberCmdResult{id: -1, err: fmt.Errorf("runtime: could not stand up worker %d", id)}
			return true
		}
		start := time.Now()
		if !m.runFence(0, id) {
			cmd.reply <- memberCmdResult{id: -1, err: m.err}
			return false
		}
		m.met.memberJoins.Inc()
		m.met.memberHandoffUS.Observe(uint64(time.Since(start).Microseconds()))
		cmd.reply <- memberCmdResult{id: id}
		return true
	}
	id := cmd.id
	if id < 0 || id >= len(m.live) || !m.live[id] {
		cmd.reply <- memberCmdResult{id: id, err: fmt.Errorf("runtime: worker %d is not a member", id)}
		return true
	}
	if m.activeCount() <= 1 {
		cmd.reply <- memberCmdResult{id: id, err: fmt.Errorf("runtime: cannot remove the last worker")}
		return true
	}
	start := time.Now()
	// A graceful Orphan (Stats.Sent = 1): the slot participates in the
	// fence, migrates its whole shard out, and retires after Release.
	m.bcast(transport.Message{Kind: transport.Orphan, Round: id, Stats: transport.Stats{Sent: 1}})
	m.met.memberOrphans.Inc()
	if !m.runFence(0, -1) {
		cmd.reply <- memberCmdResult{id: id, err: m.err}
		return false
	}
	m.live[id] = false
	m.member.retire(id)
	m.met.memberHandoffUS.Observe(uint64(time.Since(start).Microseconds()))
	cmd.reply <- memberCmdResult{id: id}
	return true
}

// drainMemberCmds rejects whatever is still queued when the fixpoint
// ends, so an AddWorker caller racing the master's exit gets an error
// instead of a hang.
func (m *master) drainMemberCmds() {
	if m.cmds == nil {
		return
	}
	for {
		select {
		case cmd := <-m.cmds:
			cmd.reply <- memberCmdResult{id: -1,
				err: fmt.Errorf("runtime: fixpoint ended before the membership change could run")}
		default:
			return
		}
	}
}
