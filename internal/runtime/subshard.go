package runtime

import (
	"sync"
	"time"
)

// Intra-worker parallelism (DESIGN.md §9): the scan/fold/emit pass of
// scanPass, fanned out over P = Config.CoresPerWorker goroutines. The
// worker's table is split into subshards — contiguous slot ranges for
// Dense, stripe blocks for Sparse (monotable.ScanDirtyRange) — and each
// pass deals every core a contiguous block of subshards; a core that
// finishes its block steals from a sibling's, so one skewed range does
// not serialise the pass.
//
// Soundness is the paper's P1 property plus Theorem 3: MRA folds are
// commutative and associative, so draining and folding disjoint key
// ranges in any interleaving — including racing local re-emits into
// ranges another core has yet to scan — reaches the same fixpoint the
// serial pass does. At P=1 the pool is never built and scanPass runs
// the exact pre-subshard serial body.
//
// The hot path stays allocation-free: each core owns reused scan/drain
// slices, its own outBuf per destination, and pre-bound closures; the
// owner merges per-core buffers and counters serially after the join,
// re-emitting through the worker-level flush policy so batching, τ, and
// urgent-delta semantics are unchanged. Per-core Σacc/stat deltas fold
// into the worker totals only at that merge — no shared hot counters.

// subshardFactor oversplits the table relative to the core count so the
// stealing deque has granularity: with 4 subshards per core a thief
// takes ~1/4 of a straggler's remaining block instead of all of it.
const subshardFactor = 4

// subDeque is one core's work-stealing deque of subshard ids for the
// current pass. Because each core's initial deal is one contiguous
// block of ids, the deque is just the live window [head, tail): the
// owner takes from the front (ascending ranges — sequential slot
// order), thieves take from the back (the work farthest from the
// owner's scan position). A tiny mutex arbitrates; it is uncontended
// except when a thief actually arrives, so it costs one uncontended
// lock per subshard — noise next to a 512-slot scan.
type subDeque struct {
	mu         sync.Mutex
	head, tail int
}

func (d *subDeque) reset(lo, hi int) {
	d.mu.Lock()
	d.head, d.tail = lo, hi
	d.mu.Unlock()
}

func (d *subDeque) popFront() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	sub := d.head
	d.head++
	d.mu.Unlock()
	return sub, true
}

func (d *subDeque) popBack() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	d.tail--
	sub := d.tail
	d.mu.Unlock()
	return sub, true
}

// coreState is one scan core's private working set. Everything here is
// touched only by the core that owns it during a pass, then read and
// reset by the worker's owner goroutine at the merge — no atomics
// needed on the counters themselves.
type coreState struct {
	w    *worker
	pool *scanPool
	idx  int

	// Reused pass storage (the per-core twins of worker.drainKeys /
	// drainBuf): a steady-state subshard scan allocates nothing.
	keys     []int64
	drainBuf []drained

	// Per-destination combiners, merged by the owner after the join.
	bufs      []*outBuf
	winCounts []int64 // per-destination emit counts for the β window

	// Pass results, folded into the worker totals at the merge.
	n        int     // rows that propagated
	drained  int     // rows drained (feeds scanPool.lastDrained)
	folds    int64   // FoldAcc count (feeds worker.accFolds)
	accDelta float64 // Σ|acc change|
	accSum   float64 // Σ signed acc deltas

	// scratch is this core's propagation-expression buffer — the
	// reentrant PropagateInto form keeps the fan-out allocation-free.
	scratch []float64

	// Pre-bound closures so the scan and propagate loops pass existing
	// func values instead of allocating new ones per subshard.
	scanFn func(int64)
	emitFn func(int64, float64)
}

// emit is the per-core twin of worker.emit: local keys fold straight
// into the shared table (atomic, so cores race safely); remote keys go
// to this core's private combiner and are re-emitted through the
// worker's flush policy at the merge.
func (c *coreState) emit(dst int64, v float64) {
	w := c.w
	o := w.owner(dst)
	if o == w.id {
		w.apply.FoldDelta(dst, v)
		return
	}
	c.bufs[o].add(dst, v)
	c.winCounts[o]++
}

// scanSub runs the full scan/drain/fold/emit body over one subshard.
func (c *coreState) scanSub(sub int) {
	w := c.w
	start := time.Now()
	c.keys = c.keys[:0]
	w.table.ScanDirtyRange(sub, c.pool.nsub, c.scanFn)
	out := c.drainBuf[:0]
	for _, k := range c.keys {
		if v, ok := w.table.Drain(k); ok {
			out = append(out, drained{k, v})
		}
	}
	c.drainBuf = out
	// The Scheduler's order applies within the subshard (a per-core sort
	// for the ordered scan); cross-subshard order is whatever the deal
	// and the steals produce, which P1 licenses.
	w.pol.sched.arrange(out)
	refresh := w.pol.sched.refreshes()
	for _, d := range out {
		if refresh {
			w.refresh(&d)
		}
		if w.pol.sched.hold(d.val) {
			w.table.FoldDelta(d.key, d.val)
			continue
		}
		improved, change, signed := w.table.FoldAcc(d.key, d.val)
		c.folds++
		c.accDelta += change
		c.accSum += signed
		if !w.shouldPropagate(improved, d.val) {
			continue
		}
		c.n++
		w.plan.PropagateInto(c.scratch, d.key, d.val, c.emitFn)
	}
	c.drained += len(out)
	w.met.subPassUS.Observe(uint64(time.Since(start).Microseconds()))
}

// runCore drains this core's deque, then steals until the pass is dry.
func (c *coreState) runCore() {
	p := c.pool
	d := &p.deques[c.idx]
	for {
		sub, ok := d.popFront()
		if !ok {
			sub, ok = p.steal(c.idx)
			if !ok {
				return
			}
		}
		c.scanSub(sub)
	}
}

// scanPool is a worker's persistent set of scan cores. Core 0 is the
// worker's own compute goroutine; cores 1..P-1 are lazily-spawned
// goroutines that park on a shared sync.Cond between passes — a parked
// core costs nothing until the next broadcast, instead of spinning on
// an idle-poll loop the way worker.idleWait-style backoff would.
type scanPool struct {
	w       *worker
	p       int
	minKeys int

	// lastDrained is the previous pass's drain size (seeded from
	// DirtyApprox before the first pass) — the worthParallel signal.
	lastDrained int
	// nsub is the current pass's subshard count, written by the owner
	// before the wake broadcast (the cond's mutex orders it).
	nsub int

	cores  []*coreState
	deques []subDeque

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64 // pass counter; a wake with an unseen seq starts a pass
	stop    bool
	started bool
	wg      sync.WaitGroup
}

func newScanPool(w *worker, p, minKeys int) *scanPool {
	sp := &scanPool{w: w, p: p, minKeys: minKeys}
	sp.cond = sync.NewCond(&sp.mu)
	sp.cores = make([]*coreState, p)
	sp.deques = make([]subDeque, p)
	for i := range sp.cores {
		c := &coreState{
			w:         w,
			pool:      sp,
			idx:       i,
			bufs:      newOutBufs(w.plan.Op, w.nw, w.denseN()),
			winCounts: make([]int64, w.nw),
			scratch:   w.plan.NewScratch(),
		}
		c.scanFn = func(k int64) { c.keys = append(c.keys, k) }
		c.emitFn = c.emit
		sp.cores[i] = c
	}
	return sp
}

// worthParallel gates fan-out by frontier size: waking P cores for a
// handful of dirty keys costs more than it saves.
func (p *scanPool) worthParallel() bool { return p.lastDrained >= p.minKeys }

// steal takes a subshard from the back of another core's deque,
// scanning siblings in ring order from the thief.
func (p *scanPool) steal(self int) (int, bool) {
	for off := 1; off < p.p; off++ {
		if sub, ok := p.deques[(self+off)%p.p].popBack(); ok {
			p.w.met.steals.Inc()
			return sub, true
		}
	}
	return 0, false
}

// begin wakes the parked cores for one pass. The owner has already
// written nsub and dealt the deques; publishing seq under the cond's
// mutex is the happens-before edge that makes those writes visible.
func (p *scanPool) begin() {
	if !p.started {
		p.started = true
		for i := 1; i < p.p; i++ {
			go p.serve(p.cores[i])
		}
	}
	p.wg.Add(p.p - 1)
	p.mu.Lock()
	p.seq++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// serve is a parked core's life: wait for an unseen pass, run it, check
// back in, park again. Parking on the shared cond (not a sleep/poll
// loop) means an idle pool burns no cycles between passes.
func (p *scanPool) serve(c *coreState) {
	var last uint64
	p.mu.Lock()
	for {
		for !p.stop && p.seq == last {
			p.cond.Wait()
		}
		if p.stop {
			p.mu.Unlock()
			return
		}
		last = p.seq
		p.mu.Unlock()
		c.runCore()
		p.wg.Done()
		p.mu.Lock()
	}
}

// close parks the cores for good. Nil-safe; called from run()'s defer,
// after the last pass has joined, so no core is mid-pass.
func (p *scanPool) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stop = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// scanPassParallel is scanPass fanned out over the pool: deal subshard
// blocks, run core 0 inline while cores 1..P-1 work their deals, join,
// then merge per-core results on the owner. Returns the propagated-row
// count, same as the serial pass.
func (w *worker) scanPassParallel() int {
	p := w.scan
	nsub := w.table.Subshards(p.p * subshardFactor)
	if nsub < 2 {
		// Too small to split (a tiny Dense shard has one bitmap line);
		// the serial body also refreshes lastDrained for the next gate.
		return w.scanPassSerial()
	}
	p.nsub = nsub
	for i := 0; i < p.p; i++ {
		p.deques[i].reset(i*nsub/p.p, (i+1)*nsub/p.p)
	}
	p.begin()
	p.cores[0].runCore()
	p.wg.Wait()

	// Serial merge on the owner: fold per-core counters into the worker
	// totals and re-emit each core's buffered remote updates through the
	// worker-level combiner + flush policy. Merging destination-major
	// keeps same-destination updates from different cores folding into
	// one batch.
	n, total := 0, 0
	for _, c := range p.cores {
		n += c.n
		total += c.drained
		w.accDelta += c.accDelta
		w.accSum += c.accSum
		w.accFolds += c.folds
		c.n, c.drained, c.accDelta, c.accSum, c.folds = 0, 0, 0, 0, 0
	}
	for o := 0; o < w.nw; o++ {
		if o == w.id {
			continue
		}
		for _, c := range p.cores {
			if c.bufs[o].len() > 0 {
				c.bufs[o].drainInto(w.emitMerged)
			}
			w.win.counts[o] += c.winCounts[o]
			c.winCounts[o] = 0
		}
	}
	p.lastDrained = total
	w.met.parallelPasses.Inc()
	return n
}

// emitMerged re-emits one core-buffered update at the merge. It is
// worker.emit minus the window count (each original emit was already
// counted per-core, and the merged fold would undercount the β signal)
// and minus the local-key branch (core emits fold local keys directly).
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
