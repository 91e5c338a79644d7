// Package graphsys is a hand-coded vertex-centric graph processing engine
// standing in for the systems the paper compares against in §6.4:
// PowerGraph (sync/async, used for CC and SSSP), Maiter (delta-based
// asynchronous accumulation, used for PageRank, Adsorption, Katz), and
// Prom (prioritized block updates, used for Belief Propagation). Unlike
// the Datalog engine, programs here are written directly in Go against
// arrays — the "tens of lines of code per algorithm" programming model
// the paper's introduction contrasts with Datalog's two rules.
package graphsys

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/graph"
)

// Delta is an initial contribution to one vertex.
type Delta struct {
	V   int32
	Val float64
}

// Program is a delta-based vertex program: state folds with Op, and a
// drained delta scatters contributions along out-edges.
type Program struct {
	// Op is the state combiner (min for SSSP/CC, sum for the rest).
	Op *agg.Op
	// Init seeds the computation.
	Init []Delta
	// Scatter propagates a drained delta of v to its out-neighbors.
	Scatter func(g *graph.Graph, v int32, delta float64, emit func(dst int32, val float64))
	// Epsilon terminates limit programs when the round change drops below
	// it; 0 runs to fixpoint.
	Epsilon float64
	// MaxRounds caps the iteration count (default 10000).
	MaxRounds int
}

func (p *Program) maxRounds() int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return 10000
}

// state is the shared delta-accumulation state used by all three engines.
type state struct {
	op    *agg.Op
	value []uint64 // accumulated result bits
	delta []uint64 // pending delta bits
}

func newState(op *agg.Op, n int) *state {
	s := &state{op: op, value: make([]uint64, n), delta: make([]uint64, n)}
	for i := range s.value {
		agg.Store(&s.value[i], op.Identity())
		agg.Store(&s.delta[i], op.Identity())
	}
	return s
}

func (s *state) values() []float64 {
	out := make([]float64, len(s.value))
	for i := range out {
		out[i] = agg.Load(&s.value[i])
	}
	return out
}

// apply drains v's delta into its value; reports (delta, improved).
func (s *state) apply(v int32) (float64, bool) {
	d := s.op.AtomicExchangeIdentity(&s.delta[v])
	if d == s.op.Identity() {
		return d, false
	}
	improved := s.op.AtomicFold(&s.value[v], d)
	if s.op.Selective() {
		return d, improved
	}
	return d, d != 0
}

// RunSync executes the program with bulk-synchronous rounds over an
// active-vertex frontier (PowerGraph's sync engine).
func RunSync(g *graph.Graph, p *Program) []float64 {
	n := g.NumVertices()
	s := newState(p.Op, n)
	inFrontier := make([]bool, n)
	var frontier []int32
	push := func(v int32) {
		if !inFrontier[v] {
			inFrontier[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
		push(d.V)
	}
	for round := 0; len(frontier) > 0 && round < p.maxRounds(); round++ {
		cur := frontier
		frontier = nil
		for _, v := range cur {
			inFrontier[v] = false
		}
		roundChange := 0.0
		var next []int32
		nextSet := make([]bool, n)
		for _, v := range cur {
			d, improved := s.apply(v)
			if !improved {
				continue
			}
			roundChange += math.Abs(d)
			p.Scatter(g, v, d, func(dst int32, val float64) {
				if s.op.AtomicFold(&s.delta[dst], val) && !nextSet[dst] {
					nextSet[dst] = true
					next = append(next, dst)
				}
			})
		}
		frontier = next
		for _, v := range next {
			inFrontier[v] = true
		}
		if p.Epsilon > 0 && roundChange < p.Epsilon {
			break
		}
	}
	return s.values()
}

// RunAsync executes the program with a pool of workers sharing the state
// through atomics, PowerGraph's async engine / Maiter's execution model.
func RunAsync(g *graph.Graph, p *Program, workers int) []float64 {
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	s := newState(p.Op, n)
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
	}
	var windowChange uint64 // accumulated |change| bits, CAS-folded
	agg.Store(&windowChange, 0)
	var stop int32
	var idleCount int32
	var resumeEpoch int64
	// passes[w] counts worker w's completed passes, so the ε check can
	// wait for a pass from every worker — a total of `workers` passes can
	// come from a few workers while the rest are descheduled — and cannot
	// mistake a scheduler stall for convergence.
	passes := make([]int64, workers)

	rangeClean := func(w int) bool {
		id := s.op.Identity()
		for v := int32(w); v < int32(n); v += int32(workers) {
			if agg.Load(&s.delta[v]) != id {
				return false
			}
		}
		return true
	}
	allClean := func() bool {
		id := s.op.Identity()
		for v := 0; v < n; v++ {
			if agg.Load(&s.delta[v]) != id {
				return false
			}
		}
		return true
	}

	// Quiescence protocol: an idle worker parks, watching only its own
	// range; a resuming worker bumps the epoch. The quiescence detector
	// below declares global termination only when every worker is idle,
	// the whole delta array is clean, and no resume happened during the
	// scan — while all workers are idle nothing can scatter, so a clean
	// scan bracketed by (idleCount == workers, unchanged epoch) is final.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				progressed := false
				for v := int32(w); v < int32(n); v += int32(workers) {
					d, improved := s.apply(v)
					if !improved {
						continue
					}
					progressed = true
					addFloat(&windowChange, math.Abs(d))
					p.Scatter(g, v, d, func(dst int32, val float64) {
						s.op.AtomicFold(&s.delta[dst], val)
					})
				}
				atomic.AddInt64(&passes[w], 1)
				if progressed {
					continue
				}
				atomic.AddInt32(&idleCount, 1)
				for atomic.LoadInt32(&stop) == 0 {
					if !rangeClean(w) {
						atomic.AddInt64(&resumeEpoch, 1)
						atomic.AddInt32(&idleCount, -1)
						break
					}
					runtime.Gosched()
				}
			}
		}(w)
	}
	// Quiescence detector.
	detectorDone := make(chan struct{})
	go func() {
		defer close(detectorDone)
		for atomic.LoadInt32(&stop) == 0 {
			if atomic.LoadInt32(&idleCount) == int32(workers) {
				e := atomic.LoadInt64(&resumeEpoch)
				if allClean() &&
					atomic.LoadInt64(&resumeEpoch) == e &&
					atomic.LoadInt32(&idleCount) == int32(workers) {
					atomic.StoreInt32(&stop, 1)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	// ε coordinator: stop when the change accumulated per interval falls
	// below ε (limit programs never strictly quiesce on their own).
	if p.Epsilon > 0 {
		go func() {
			prev := -1.0
			prevPasses := make([]int64, workers)
			// everyPassed reports whether every worker completed at least
			// one full pass since the window opened.
			everyPassed := func() bool {
				for w := range prevPasses {
					if atomic.LoadInt64(&passes[w]) == prevPasses[w] {
						return false
					}
				}
				return true
			}
			openWindow := func() {
				for w := range prevPasses {
					prevPasses[w] = atomic.LoadInt64(&passes[w])
				}
			}
			for i := 0; i < p.maxRounds(); i++ {
				if atomic.LoadInt32(&stop) == 1 {
					return
				}
				cur := agg.Load(&windowChange)
				full := everyPassed()
				// Judge the change against ε only over a window in which
				// every worker completed at least one full pass.
				if prev >= 0 && full && cur-prev < p.Epsilon {
					atomic.StoreInt32(&stop, 1)
					return
				}
				if full || prev < 0 {
					prev = cur
					openWindow()
				}
				time.Sleep(500 * time.Microsecond)
			}
			atomic.StoreInt32(&stop, 1)
		}()
	}
	wg.Wait()
	atomic.StoreInt32(&stop, 1)
	<-detectorDone
	return s.values()
}

// addFloat CAS-accumulates a float64 into a bits cell.
func addFloat(cell *uint64, v float64) {
	for {
		old := atomic.LoadUint64(cell)
		next := math.Float64frombits(old) + v
		if atomic.CompareAndSwapUint64(cell, old, math.Float64bits(next)) {
			return
		}
	}
}

// RunPrioritized executes the program with a max-|delta| priority queue —
// the PrIter/Maiter/Prom scheduling insight that large deltas matter most
// for convergence. Sequential; the priority effect, not parallelism, is
// what the Figure-10 comparison exercises.
func RunPrioritized(g *graph.Graph, p *Program) []float64 {
	n := g.NumVertices()
	s := newState(p.Op, n)
	pq := &deltaHeap{}
	inQueue := make([]bool, n)
	push := func(v int32) {
		if !inQueue[v] {
			inQueue[v] = true
			heap.Push(pq, prioVertex{v, math.Abs(agg.Load(&s.delta[v]))})
		}
	}
	for _, d := range p.Init {
		s.op.AtomicFold(&s.delta[d.V], d.Val)
		push(d.V)
	}
	totalSinceCheck := 0.0
	steps := 0
	checkEvery := n + 1
	for pq.Len() > 0 {
		pv := heap.Pop(pq).(prioVertex)
		inQueue[pv.v] = false
		d, improved := s.apply(pv.v)
		if !improved {
			continue
		}
		totalSinceCheck += math.Abs(d)
		p.Scatter(g, pv.v, d, func(dst int32, val float64) {
			if s.op.AtomicFold(&s.delta[dst], val) {
				push(dst)
			}
		})
		steps++
		if steps%checkEvery == 0 {
			if p.Epsilon > 0 && totalSinceCheck < p.Epsilon {
				break
			}
			totalSinceCheck = 0
			if steps/checkEvery > p.maxRounds() {
				break
			}
		}
	}
	return s.values()
}

type prioVertex struct {
	v    int32
	prio float64
}

type deltaHeap []prioVertex

func (h deltaHeap) Len() int            { return len(h) }
func (h deltaHeap) Less(i, j int) bool  { return h[i].prio > h[j].prio }
func (h deltaHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deltaHeap) Push(x interface{}) { *h = append(*h, x.(prioVertex)) }
func (h *deltaHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
