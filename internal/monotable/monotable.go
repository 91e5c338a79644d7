// Package monotable implements the MonoTable of paper §5.2 (Figure 7):
// the distributed mutable in-memory table holding the state of a
// recursive computation. Each row has an Accumulation entry (the result
// x, folded monotonically) and an Intermediate entry (the aggregated
// delta g(Δx)). Updates follow the paper's three-step protocol:
//
//  1. atomically exchange the Intermediate with the aggregate identity
//     into a local tmp (so a delta is never aggregated twice),
//  2. fold tmp into the Accumulation at the same row,
//  3. apply f to tmp and atomically aggregate the results into the
//     Intermediate entries of dependent rows (possibly on other workers).
//
// Steps 1–2 are Drain+FoldAcc; step 3 is FoldDelta (via message passing
// for remote rows). Auxiliaries (per-vertex attribute columns) live in
// the compiled plan, not in the table.
//
// Two shard layouts are provided: a dense array shard for vertex-keyed
// programs (key space [0,n) striped across workers) and a sparse map
// shard for pair-keyed programs such as APSP and SimRank.
package monotable

import (
	"sync"

	"powerlog/internal/agg"
)

// Table is one worker's shard of the MonoTable.
type Table interface {
	// Op returns the aggregate the table folds with.
	Op() *agg.Op

	// FoldDelta aggregates v into the Intermediate entry of key (protocol
	// step 3 at the receiving row). It reports whether the entry changed
	// and marks the row dirty when it did.
	FoldDelta(key int64, v float64) bool

	// Drain atomically exchanges key's Intermediate with the identity and
	// returns the previous value (protocol steps 1–2 fetch); ok is false
	// when the entry already held the identity.
	Drain(key int64) (v float64, ok bool)

	// Acc returns the Accumulation entry of key (identity if untouched).
	Acc(key int64) float64

	// FoldAcc folds v into key's Accumulation. It reports whether the
	// entry improved, the magnitude of the change (an identity→v jump
	// improves with magnitude |v|, so a shortest-path source at distance
	// 0 still counts as an improvement), and the signed delta the fold
	// contributed to the shard's Σacc over non-identity rows (a row born
	// from the identity contributes its full new value). The signed
	// delta lets callers maintain a running accumulation sum instead of
	// re-scanning the shard (§5.4's termination check made O(1)).
	FoldAcc(key int64, v float64) (improved bool, change, accDelta float64)

	// ScanDirty drains the dirty set, invoking f for each dirty key. Keys
	// made dirty again during the scan are observed by a later scan.
	ScanDirty(f func(key int64))

	// HasDirty reports whether any row is marked dirty.
	HasDirty() bool

	// Range iterates all rows with a non-identity Accumulation.
	Range(f func(key int64, acc float64) bool)

	// RangeRows iterates all rows where the Accumulation or the
	// Intermediate is non-identity — the state a checkpoint must capture.
	RangeRows(f func(key int64, acc, inter float64) bool)

	// SetAcc overwrites key's Accumulation (checkpoint restore only; it
	// bypasses the monotone fold).
	SetAcc(key int64, v float64)

	// Invalidate erases key's row — Accumulation AND Intermediate back to
	// the identity — so a delete-invalidation pass can force the key to
	// re-derive from surviving inputs. Like SetAcc it bypasses the
	// monotone fold and must only run while the engine is quiesced;
	// callers maintaining a running Σacc must resync it afterwards.
	Invalidate(key int64)

	// Len returns the number of rows with non-identity Accumulation.
	Len() int
}

// Dense is an array-backed shard covering the global keys
// {offset + i*stride : 0 <= i < size} — PowerLog's modulo partitioning
// of a dense vertex key space across `stride` workers.
type Dense struct {
	op             *agg.Op
	n              int64 // the global key space [0, n)
	stride, offset int64
	acc            []uint64
	inter          []uint64
	dirty          []uint32 // atomic bitmap over local slots
}

// NewDense creates a dense shard for worker `offset` of `stride` workers
// over the global key space [0, n).
func NewDense(op *agg.Op, n int, stride, offset int64) *Dense {
	if stride <= 0 || offset < 0 || offset >= stride {
		panic("monotable: bad stride/offset")
	}
	size := int((int64(n) - offset + stride - 1) / stride)
	if size < 0 {
		size = 0
	}
	d := &Dense{
		op:     op,
		n:      int64(n),
		stride: stride,
		offset: offset,
		acc:    make([]uint64, size),
		inter:  make([]uint64, size),
		dirty:  make([]uint32, (size+31)/32),
	}
	for i := range d.acc {
		agg.Store(&d.acc[i], op.Identity())
		agg.Store(&d.inter[i], op.Identity())
	}
	return d
}

func (d *Dense) slot(key int64) int { return int((key - d.offset) / d.stride) }

// Owns reports whether key belongs to this shard: a global key in
// [0, n) congruent to offset modulo stride. Every other key would index
// outside the shard's arrays (or alias another worker's row), so callers
// folding keys from outside the process check them first. Vertex keys
// are int32, so the residue is taken in 32 bits.
func (d *Dense) Owns(key int64) bool {
	return uint64(key) < uint64(d.n) && uint32(key)%uint32(d.stride) == uint32(d.offset)
}

// globalKey maps a local slot back to its global key.
func (d *Dense) globalKey(slot int) int64 { return d.offset + int64(slot)*d.stride }

// Op implements Table.
func (d *Dense) Op() *agg.Op { return d.op }

// FoldDelta implements Table.
func (d *Dense) FoldDelta(key int64, v float64) bool {
	s := d.slot(key)
	if !d.op.AtomicFold(&d.inter[s], v) {
		return false
	}
	markDirty(d.dirty, s)
	return true
}

// Drain implements Table.
func (d *Dense) Drain(key int64) (float64, bool) {
	s := d.slot(key)
	v := d.op.AtomicExchangeIdentity(&d.inter[s])
	if v == d.op.Identity() {
		return v, false
	}
	return v, true
}

// Acc implements Table.
func (d *Dense) Acc(key int64) float64 { return agg.Load(&d.acc[d.slot(key)]) }

// FoldAcc implements Table.
func (d *Dense) FoldAcc(key int64, v float64) (bool, float64, float64) {
	return foldAccCell(d.op, &d.acc[d.slot(key)], v)
}

// ScanDirty implements Table.
func (d *Dense) ScanDirty(f func(key int64)) {
	for w := range d.dirty {
		bits := swapWord(&d.dirty[w], 0)
		for bits != 0 {
			b := bits & (-bits)
			bit := trailingZeros32(bits)
			bits ^= b
			slot := w*32 + bit
			if slot < len(d.acc) {
				f(d.globalKey(slot))
			}
		}
	}
}

// HasDirty implements Table.
func (d *Dense) HasDirty() bool {
	for w := range d.dirty {
		if loadWord(&d.dirty[w]) != 0 {
			return true
		}
	}
	return false
}

// Range implements Table.
func (d *Dense) Range(f func(key int64, acc float64) bool) {
	id := d.op.Identity()
	for s := range d.acc {
		v := agg.Load(&d.acc[s])
		if v == id {
			continue
		}
		if !f(d.globalKey(s), v) {
			return
		}
	}
}

// RangeRows implements Table.
func (d *Dense) RangeRows(f func(key int64, acc, inter float64) bool) {
	id := d.op.Identity()
	for s := range d.acc {
		a := agg.Load(&d.acc[s])
		i := agg.Load(&d.inter[s])
		if a == id && i == id {
			continue
		}
		if !f(d.globalKey(s), a, i) {
			return
		}
	}
}

// SetAcc implements Table.
func (d *Dense) SetAcc(key int64, v float64) {
	agg.Store(&d.acc[d.slot(key)], v)
}

// Invalidate implements Table. The dirty bit (if set) is left alone: a
// later scan drains an identity Intermediate and skips the key.
func (d *Dense) Invalidate(key int64) {
	s := d.slot(key)
	agg.Store(&d.acc[s], d.op.Identity())
	agg.Store(&d.inter[s], d.op.Identity())
}

// Len implements Table.
func (d *Dense) Len() int {
	id := d.op.Identity()
	n := 0
	for s := range d.acc {
		if agg.Load(&d.acc[s]) != id {
			n++
		}
	}
	return n
}

// sparseStripes is the fixed stripe count of the sparse layout: a power
// of two so stripe selection is a mask.
const sparseStripes = 32

// Sparse is a map-backed shard for pair-keyed programs, hash-striped so
// the worker's folds and concurrent readers (session lookups call Acc)
// on different stripes never contend. Each stripe
// serialises its maps with a mutex; the per-row entries still use the
// atomic protocol so Drain and FoldDelta interleave correctly with
// readers once a row pointer is in hand.
type Sparse struct {
	op      *agg.Op
	stripes [sparseStripes]sparseStripe
}

type sparseStripe struct {
	mu      sync.Mutex
	rows    map[int64]*sparseRow
	dirty   map[int64]struct{}
	scratch []int64 // reused ScanDirty drain target (one scanner per stripe)

	// Pad stripes apart so one stripe's mutex traffic does not
	// false-share with its neighbour's.
	_ [64]byte
}

type sparseRow struct {
	acc, inter uint64
}

// NewSparse creates an empty sparse shard.
func NewSparse(op *agg.Op) *Sparse {
	s := &Sparse{op: op}
	for i := range s.stripes {
		s.stripes[i].rows = map[int64]*sparseRow{}
		s.stripes[i].dirty = map[int64]struct{}{}
	}
	return s
}

// stripeOf hashes a key to its stripe (Fibonacci mix, like the runtime's
// combiner hash, so src<<32|dst pair keys spread).
func (s *Sparse) stripeOf(key int64) *sparseStripe {
	x := uint64(key) * 0x9E3779B97F4A7C15
	return &s.stripes[(x^(x>>32))&(sparseStripes-1)]
}

// Op implements Table.
func (s *Sparse) Op() *agg.Op { return s.op }

// row returns (creating if needed) the row for key. Caller holds st.mu.
func (st *sparseStripe) row(key int64, op *agg.Op) *sparseRow {
	r, ok := st.rows[key]
	if !ok {
		r = &sparseRow{}
		agg.Store(&r.acc, op.Identity())
		agg.Store(&r.inter, op.Identity())
		st.rows[key] = r
	}
	return r
}

// FoldDelta implements Table.
func (s *Sparse) FoldDelta(key int64, v float64) bool {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	changed := s.op.AtomicFold(&r.inter, v)
	if changed {
		st.dirty[key] = struct{}{}
	}
	st.mu.Unlock()
	return changed
}

// Drain implements Table.
func (s *Sparse) Drain(key int64) (float64, bool) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	v := s.op.AtomicExchangeIdentity(&r.inter)
	if v == s.op.Identity() {
		return v, false
	}
	return v, true
}

// Acc implements Table.
func (s *Sparse) Acc(key int64) float64 {
	st := s.stripeOf(key)
	st.mu.Lock()
	r, ok := st.rows[key]
	st.mu.Unlock()
	if !ok {
		return s.op.Identity()
	}
	return agg.Load(&r.acc)
}

// FoldAcc implements Table.
func (s *Sparse) FoldAcc(key int64, v float64) (bool, float64, float64) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	return foldAccCell(s.op, &r.acc, v)
}

// scanDirtyStripe drains one stripe's dirty set into its reused scratch
// (deleting in place keeps the map's buckets, so a steady-state scan
// allocates nothing), then invokes f outside the lock.
func (s *Sparse) scanDirtyStripe(st *sparseStripe, f func(key int64)) {
	st.mu.Lock()
	keys := st.scratch[:0]
	for k := range st.dirty {
		keys = append(keys, k)
		delete(st.dirty, k)
	}
	st.scratch = keys
	st.mu.Unlock()
	for _, k := range keys {
		f(k)
	}
}

// ScanDirty implements Table.
func (s *Sparse) ScanDirty(f func(key int64)) {
	for i := range s.stripes {
		s.scanDirtyStripe(&s.stripes[i], f)
	}
}

// HasDirty implements Table.
func (s *Sparse) HasDirty() bool {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n := len(st.dirty)
		st.mu.Unlock()
		if n != 0 {
			return true
		}
	}
	return false
}

// Range implements Table.
func (s *Sparse) Range(f func(key int64, acc float64) bool) {
	type kv struct {
		k int64
		v float64
	}
	id := s.op.Identity()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		all := make([]kv, 0, len(st.rows))
		for k, r := range st.rows {
			if v := agg.Load(&r.acc); v != id {
				all = append(all, kv{k, v})
			}
		}
		st.mu.Unlock()
		for _, e := range all {
			if !f(e.k, e.v) {
				return
			}
		}
	}
}

// RangeRows implements Table.
func (s *Sparse) RangeRows(f func(key int64, acc, inter float64) bool) {
	type kv struct {
		k        int64
		acc, del float64
	}
	id := s.op.Identity()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		all := make([]kv, 0, len(st.rows))
		for k, r := range st.rows {
			a, d := agg.Load(&r.acc), agg.Load(&r.inter)
			if a == id && d == id {
				continue
			}
			all = append(all, kv{k, a, d})
		}
		st.mu.Unlock()
		for _, e := range all {
			if !f(e.k, e.acc, e.del) {
				return
			}
		}
	}
}

// SetAcc implements Table.
func (s *Sparse) SetAcc(key int64, v float64) {
	st := s.stripeOf(key)
	st.mu.Lock()
	r := st.row(key, s.op)
	st.mu.Unlock()
	agg.Store(&r.acc, v)
}

// Invalidate implements Table: the row and its dirty entry are removed
// outright, so the key re-derives (or stays absent) from scratch.
func (s *Sparse) Invalidate(key int64) {
	st := s.stripeOf(key)
	st.mu.Lock()
	delete(st.rows, key)
	delete(st.dirty, key)
	st.mu.Unlock()
}

// Len implements Table.
func (s *Sparse) Len() int {
	n := 0
	s.Range(func(int64, float64) bool { n++; return true })
	return n
}

// foldAccCell folds v into an accumulation cell, reporting improvement,
// |change|, and the signed Σacc contribution (identity counts as 0, so a
// row leaving the identity contributes its full value).
func foldAccCell(op *agg.Op, cell *uint64, v float64) (bool, float64, float64) {
	for {
		oldBits := loadU64(cell)
		old := fromBits(oldBits)
		next := op.Fold(old, v)
		if next == old {
			return false, 0, 0
		}
		if casU64(cell, oldBits, toBits(next)) {
			signed := next - old
			if old == op.Identity() {
				signed = next
			}
			return true, magnitude(op, old, next, v), signed
		}
	}
}

// magnitude computes the ε-termination contribution of an accumulation
// change: for selective aggregates the distance moved (when finite); for
// combining aggregates the folded delta itself.
func magnitude(op *agg.Op, old, next, v float64) float64 {
	if op.Selective() {
		d := old - next
		if d < 0 {
			d = -d
		}
		if d != d || d > 1e300 { // NaN or from-identity jump: count the value move
			return agg.Abs(v)
		}
		return d
	}
	return agg.Abs(v)
}
