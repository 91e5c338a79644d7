package compiler

import (
	"powerlog/internal/graph"
)

// Mutation is a batch of base-fact changes against the plan's join
// graph: edge inserts and deletes. A delete removes every parallel edge
// with the named (src,dst) endpoints; deleting an absent edge is a
// no-op. The vertex universe [0,N) is fixed at compile time.
type Mutation struct {
	Inserts []graph.Edge
	Deletes []graph.Edge
}

// Empty reports whether the mutation changes nothing.
func (m Mutation) Empty() bool { return len(m.Inserts) == 0 && len(m.Deletes) == 0 }

// AccRanger iterates every row of the session's distributed MonoTable
// with a non-identity Accumulation. ApplyMutation calls it while the
// engine is quiesced, possibly more than once.
type AccRanger func(f func(key int64, acc float64))

// Refixpoint tells the runtime how to converge to the mutated EDB's
// fixpoint from the parked state.
type Refixpoint struct {
	// Reseed is the new ΔX¹: deltas to fold into the owners' tables
	// (after invalidation). For combining aggregates these are signed
	// correction terms; for selective aggregates they are candidate
	// values folded monotonically.
	Reseed []KV
	// InvalidateLo, when non-nil, flags the vertices of the
	// over-approximate deletion cone R: every table key whose
	// lo-component (the propagated key) is flagged must be Invalidated
	// before reseeding, so it re-derives from surviving inputs only.
	InvalidateLo []bool
}

// ApplyMutation applies mut to the plan's EDB — the base graph, its
// transposed propagation twin, the compiler-materialised supporting
// relations and attribute columns, and ΔX¹ — and computes the reseed /
// invalidation work that re-converges the parked table state to the new
// fixpoint (DESIGN.md §10).
//
// Soundness sketch:
//
//   - Combining (linear F'): the fixpoint solves x = A·x + b. ApplyMutation
//     emits Δb = b_new − b_old (the ΔX¹ diff, which also covers per-edge
//     CRec constants and changed constant bodies, because buildInits is
//     re-run against the mutated EDB) and (A_new − A_old)·x_old: for every
//     touched source — a source of a changed edge, a vertex whose
//     source-attribute column changed, or an old in-neighbor of a vertex
//     whose destination-attribute column changed — its old contributions
//     (old graph, old columns) are negated and its new contributions (new
//     graph, new columns) added. Folding these into the parked state x_old
//     gives A_new·x_old + b_new + (x_old − A_old·x_old − b_old); the
//     parenthesised residual is 0 at an exact fixpoint and ≤ ε otherwise,
//     so the engine converges to the new fixpoint by linearity.
//
//   - Selective (min/max): inserts and improvements only ever fold better
//     values, which is sound by Theorem 3's replay tolerance (duplicated
//     or reordered deltas are absorbed by the idempotent monotone fold).
//     Deletions invalidate: R = the forward closure, over the OLD oriented
//     graph, of {destinations of deleted edges} ∪ {vertices whose
//     attribute inputs changed} ∪ {keys whose initial value was removed or
//     worsened}. Every table key with lo ∈ R is erased (the propagated key
//     only changes along graph edges, so R over-approximates every key
//     whose derivation could have consumed a deleted input), then
//     re-derived from the new ΔX¹ entries inside R plus a boundary scan:
//     each surviving key re-propagates its accumulation into R over the
//     new graph. Over-folding surviving values is again idempotent.
//
// The engine must be fully quiesced (all workers parked) for the whole
// call: the graph CSR is rebuilt in place behind pointers the compiled
// closures captured.
func (p *Plan) ApplyMutation(mut Mutation, rangeAcc AccRanger) (*Refixpoint, error) {
	shape := p.shape
	if shape == nil {
		return nil, errf("plan has no retained body shape; was it produced by Compile?")
	}
	n := int32(p.N)
	for _, set := range []struct {
		what  string
		edges []graph.Edge
	}{{"insert", mut.Inserts}, {"delete", mut.Deletes}} {
		for _, e := range set.edges {
			if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
				return nil, errf("%s edge (%d,%d) outside the vertex universe [0,%d) fixed at Open",
					set.what, e.Src, e.Dst, n)
			}
		}
	}

	// Orient the mutation the way the propagation graph is oriented.
	orient := func(edges []graph.Edge) []graph.Edge {
		if !shape.reversed {
			return edges
		}
		out := make([]graph.Edge, len(edges))
		for i, e := range edges {
			out[i] = graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W}
		}
		return out
	}
	oIns, oDel := orient(mut.Inserts), orient(mut.Deletes)

	// Pre-mutation snapshots: a shallow copy of the oriented graph keeps
	// the old CSR slices alive across the in-place rebuild, and the old
	// ΔX¹ is diffed after buildInits re-runs. The attribute columns stay
	// old until install() copies the fresh values into the live backing
	// arrays the compiled closures captured.
	oldG := *p.Graph
	og := &oldG
	oldInit := p.InitMRA
	selective := p.Op.Selective()
	lay := layoutSlots(p.Info.Rec, shape)
	var oldProp propagator
	if !selective {
		var err error
		if oldProp, err = buildPropagator(p.Info.Rec.FPrime, og, lay, p.PairKeys); err != nil {
			return nil, err
		}
	}

	// 1. Mutate the base graph (and the transposed twin when the body is
	// an in-neighbor formulation) in place, dropping the cached join view.
	if err := p.DB.MutateGraph(shape.join.Name, mut.Inserts, mut.Deletes); err != nil {
		return nil, err
	}
	if shape.reversed {
		if err := p.Graph.ApplyEdgeMutations(oIns, oDel); err != nil {
			return nil, err
		}
	}

	// 2. Re-derive the compiler-materialised supporting relations (they
	// may aggregate over the graph, e.g. PageRank's degree view).
	for _, h := range shape.otherHeads {
		p.DB.DropRelation(h)
	}
	for _, h := range shape.derivedHeads {
		p.DB.DropRelation(h)
	}
	if err := evalOtherRules(p.Info, p.DB); err != nil {
		return nil, err
	}
	if err := evalDerivedRules(p.Info, p.DB); err != nil {
		return nil, err
	}

	// 3. Reload attribute columns into fresh buffers; diff against the
	// still-installed old contents to find which vertices' inputs moved.
	srcChanged, dstChanged := map[int64]bool{}, map[int64]bool{}
	load := func(cols []attrCol, changed map[int64]bool) ([][]float64, error) {
		fresh := make([][]float64, len(cols))
		for i, a := range cols {
			nb, err := p.DB.VertexColumn(a.pred, p.N, 0)
			if err != nil {
				return nil, err
			}
			for v := range nb {
				if nb[v] != a.col[v] {
					changed[int64(v)] = true
				}
			}
			fresh[i] = nb
		}
		return fresh, nil
	}
	srcFresh, err := load(shape.srcAttrs, srcChanged)
	if err != nil {
		return nil, err
	}
	dstFresh, err := load(shape.dstAttrs, dstChanged)
	if err != nil {
		return nil, err
	}
	install := func() {
		for i, a := range shape.srcAttrs {
			copy(a.col, srcFresh[i])
		}
		for i, a := range shape.dstAttrs {
			copy(a.col, dstFresh[i])
		}
	}

	reseed := map[int64]float64{}
	loOf := func(key int64) int64 {
		if p.PairKeys {
			_, lo := DecodePair(key)
			return lo
		}
		return key
	}

	if !selective {
		// Touched sources: out-set changed, source attribute changed, or
		// (old) out-neighbor's destination attribute changed.
		touched := map[int64]bool{}
		for _, e := range oIns {
			touched[int64(e.Src)] = true
		}
		for _, e := range oDel {
			touched[int64(e.Src)] = true
		}
		for v := range srcChanged {
			touched[v] = true
		}
		if len(dstChanged) > 0 {
			for v := int32(0); v < int32(og.NumVertices()); v++ {
				tg, _ := og.Neighbors(v)
				for _, t := range tg {
					if dstChanged[int64(t)] {
						touched[int64(v)] = true
						break
					}
				}
			}
		}
		scratch := make([]float64, lay.nslots)
		if len(touched) > 0 {
			// −A_old·x_old restricted to touched rows: old graph, old cols.
			rangeAcc(func(key int64, acc float64) {
				if !touched[loOf(key)] {
					return
				}
				oldProp(scratch, key, acc, func(dst int64, v float64) {
					if v != 0 {
						reseed[dst] -= v
					}
				})
			})
		}
		install()
		if len(touched) > 0 {
			// +A_new·x_old: mutated graph, refreshed cols.
			rangeAcc(func(key int64, acc float64) {
				if !touched[loOf(key)] {
					return
				}
				p.PropagateInto(scratch, key, acc, func(dst int64, v float64) {
					if v != 0 {
						reseed[dst] += v
					}
				})
			})
		}
		if err := buildInits(p, shape); err != nil {
			return nil, err
		}
		// Δb: signed ΔX¹ diff (identity is 0 for combining aggregates).
		old := make(map[int64]float64, len(oldInit))
		for _, kv := range oldInit {
			old[kv.K] = kv.V
		}
		for _, kv := range p.InitMRA {
			if d := kv.V - old[kv.K]; d != 0 {
				reseed[kv.K] += d
			}
			delete(old, kv.K)
		}
		for k, v := range old {
			if v != 0 {
				reseed[k] -= v
			}
		}
		for k, v := range reseed {
			if v == 0 { // exact cancellation: nothing to fold
				delete(reseed, k)
			}
		}
		return &Refixpoint{Reseed: kvList(reseed)}, nil
	}

	// Selective path.
	install()
	if err := buildInits(p, shape); err != nil {
		return nil, err
	}

	// Invalidation roots (vertices, in the oriented propagation space).
	roots := map[int64]bool{}
	for _, e := range oDel {
		roots[int64(e.Dst)] = true
	}
	for v := range dstChanged {
		roots[v] = true
	}
	for v := range srcChanged {
		// Old contributions out of v may have weakened: re-derive its old
		// targets (its new targets are covered by the reseed scan below).
		tg, _ := og.Neighbors(int32(v))
		for _, t := range tg {
			roots[int64(t)] = true
		}
	}
	oldInitVal := make(map[int64]float64, len(oldInit))
	for _, kv := range oldInit {
		oldInitVal[kv.K] = kv.V
	}
	newInitVal := make(map[int64]bool, len(p.InitMRA))
	for _, kv := range p.InitMRA {
		newInitVal[kv.K] = true
		if ov, ok := oldInitVal[kv.K]; ok && ov != kv.V && p.Op.Fold(ov, kv.V) == ov {
			roots[loOf(kv.K)] = true // initial value worsened
		}
	}
	for _, kv := range oldInit {
		if !newInitVal[kv.K] {
			roots[loOf(kv.K)] = true // initial value removed
		}
	}

	// R: forward closure of the roots over the OLD graph — everything a
	// deleted or weakened input could have reached.
	var inR []bool
	if len(roots) > 0 {
		inR = make([]bool, p.N)
		queue := make([]int32, 0, len(roots))
		for v := range roots {
			if !inR[v] {
				inR[v] = true
				queue = append(queue, int32(v))
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			tg, _ := og.Neighbors(v)
			for _, t := range tg {
				if !inR[t] {
					inR[t] = true
					queue = append(queue, t)
				}
			}
		}
	}

	// Sources whose new out-edges carry fresh candidate values into keys
	// that are NOT invalidated: inserted-edge sources and attribute-changed
	// sources. Keys inside R are excluded — their accumulations are about
	// to be erased and must not be replayed.
	reseedSrc := map[int64]bool{}
	for _, e := range oIns {
		reseedSrc[int64(e.Src)] = true
	}
	for v := range srcChanged {
		reseedSrc[v] = true
	}
	if inR != nil {
		for v := range reseedSrc {
			if inR[v] {
				delete(reseedSrc, v)
			}
		}
	}

	foldReseed := func(k int64, v float64) {
		if cur, ok := reseed[k]; ok {
			reseed[k] = p.Op.Fold(cur, v)
		} else {
			reseed[k] = v
		}
	}
	// ΔX¹ entries: everything inside R re-derives from its inits; outside
	// R only strict improvements are (idempotently) replayed.
	for _, kv := range p.InitMRA {
		if inR != nil && inR[loOf(kv.K)] {
			foldReseed(kv.K, kv.V)
			continue
		}
		ov, ok := oldInitVal[kv.K]
		if !ok || p.Op.Fold(ov, kv.V) != ov {
			foldReseed(kv.K, kv.V)
		}
	}

	// Boundary scan: every surviving key re-propagates its accumulation
	// over the NEW graph into R (and reseed sources propagate everywhere).
	if len(reseedSrc) > 0 || inR != nil {
		scratch := make([]float64, lay.nslots)
		rangeAcc(func(key int64, acc float64) {
			lo := loOf(key)
			if inR != nil && inR[lo] {
				return // invalidated: its accumulation is stale
			}
			emitAll := reseedSrc[lo]
			if !emitAll && inR == nil {
				return
			}
			p.PropagateInto(scratch, key, acc, func(dst int64, v float64) {
				if emitAll || inR[loOf(dst)] {
					foldReseed(dst, v)
				}
			})
		})
	}
	return &Refixpoint{Reseed: kvList(reseed), InvalidateLo: inR}, nil
}
