// Package fixture seeds mixed atomic/plain accesses for the atomicmix
// analyzer's golden test.
package fixture

import (
	"sync/atomic"

	"powerlog/internal/agg"
	"powerlog/internal/metrics"
)

type counter struct {
	hits uint64
	acc  []uint64
	name string
}

func (c *counter) bump()         { atomic.AddUint64(&c.hits, 1) }
func (c *counter) fetch() uint64 { return atomic.LoadUint64(&c.hits) }

func (c *counter) mixedScalar() uint64 {
	return c.hits // want "plain access to hits"
}

func (c *counter) mixedWrite() {
	c.hits = 0 // want "plain access to hits"
}

func (c *counter) foldCell(op *agg.Op, i int, v float64) {
	op.AtomicFold(&c.acc[i], v)
}

func (c *counter) mixedElem(i int) uint64 {
	return c.acc[i] // want "plain access to element of acc"
}

// cleanRead must stay silent: the element is read through the atomic
// wrapper, exactly as the contract demands.
func (c *counter) cleanRead(i int) float64 {
	return agg.Load(&c.acc[i])
}

// cleanField must stay silent: name is never accessed atomically.
func (c *counter) cleanField() string { return c.name }

// handoff must stay silent: taking the cell's address and passing it to
// an arbitrary function transfers responsibility to the callee.
func handoff(c *counter, i int) {
	addOne(&c.acc[i])
}

func addOne(p *uint64) { atomic.AddUint64(p, 1) }

// metricsClean must stay silent: the internal/metrics wrappers route
// every access through atomic methods (atomic.Uint64 receivers), so the
// analyzer — which only inspects address-taking call arguments — has
// nothing to flag. This is the pattern the runtime's hot paths use.
type metricsClean struct {
	events metrics.Counter
	sizes  metrics.Histogram
	level  metrics.Gauge
}

func (m *metricsClean) record(n uint64) {
	m.events.Inc()
	m.sizes.Observe(n)
	m.level.Set(float64(n))
}

func (m *metricsClean) report() (uint64, float64) {
	return m.events.Load(), m.level.Load()
}

// subshard mirrors the shapes of a parallel scan pool (the engine's
// was removed, DESIGN.md §9): the table's acc/inter/dirty words are
// shared between scan cores and must go through the atomic wrappers,
// while each core's private pass counters are owner-merged after the
// join and are legitimately plain.
type subshard struct {
	acc   []uint64 // shared rows: atomic wrappers only
	dirty []uint32 // shared bitmap words: atomic only
}

func (s *subshard) foldRange(op *agg.Op, lo, hi int, v float64) {
	for i := lo; i < hi; i++ {
		op.AtomicFold(&s.acc[i], v)
	}
}

func (s *subshard) clearWord(i int) {
	atomic.StoreUint32(&s.dirty[i], 0)
}

func (s *subshard) peekWord(i int) uint32 {
	return s.dirty[i] // want "plain access to element of dirty"
}

func (s *subshard) peekRow(i int) uint64 {
	return s.acc[i] // want "plain access to element of acc"
}

// scanCore must stay silent: folds and steals are per-core private
// state, read by the owner only after the pool's WaitGroup join — the
// pattern coreState uses. Only the shared table words need atomics.
type scanCore struct {
	folds  int64
	steals uint64
}

func (c *scanCore) scanOne(s *subshard, op *agg.Op, i int, v float64) {
	op.AtomicFold(&s.acc[i], v)
	c.folds++
}

func merge(cores []*scanCore) (total int64) {
	for _, c := range cores {
		total += c.folds
		c.folds = 0
	}
	return total
}
