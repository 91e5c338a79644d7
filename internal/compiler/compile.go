package compiler

import (
	"powerlog/internal/agg"
	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/edb"
	"powerlog/internal/expr"
	"powerlog/internal/graph"
)

// Options tunes compilation.
type Options struct {
	// MaxIters overrides the system-level iteration cap (default 10000).
	MaxIters int
}

// DefaultMaxIters is the system-level termination bound of §2.2.
const DefaultMaxIters = 10000

// Compile lowers an analysed program against a database. The database
// must contain the graph joined by the recursive body (registered under
// the join predicate's name) and any attribute relations the program
// references; a "node" relation is synthesised from the graph when
// missing.
func Compile(info *analyzer.Info, db *edb.DB, opts Options) (*Plan, error) {
	p := &Plan{
		Info: info,
		Op:   agg.ByKind(info.Agg),
		DB:   db,
	}
	p.PairKeys = len(info.KeyVars) == 2
	if len(info.KeyVars) > 2 {
		return nil, errf("more than two group-by keys (%v) not supported", info.KeyVars)
	}

	// Evaluate supporting rules bottom-up so their relations are in place
	// before the recursive body is compiled against them. The join graph
	// is resolved first because view rules may quantify over node(X),
	// which is synthesised from the graph's vertex set.
	if err := evalFacts(info, db); err != nil {
		return nil, err
	}
	shape, err := resolveJoin(info, db)
	if err != nil {
		return nil, err
	}
	p.Graph = shape.g
	p.N = shape.g.NumVertices()
	ensureNodeRelation(db, p.N)

	// Record which supporting relations the compiler materialises (vs.
	// relations the database already provided): those are the ones a
	// base-fact mutation must re-derive, because they may read the graph.
	materialised := func(heads []string) []string {
		var out []string
		for _, h := range heads {
			if !db.HasPred(h) {
				out = append(out, h)
			}
		}
		return out
	}
	var otherHeads, derivedHeads []string
	for _, r := range info.OtherRules {
		otherHeads = append(otherHeads, r.Head.Name)
	}
	for _, r := range info.DerivedRules {
		derivedHeads = append(derivedHeads, r.Head.Name)
	}
	shape.otherHeads = materialised(otherHeads)
	shape.derivedHeads = materialised(derivedHeads)

	if err := evalOtherRules(info, db); err != nil {
		return nil, err
	}
	if err := evalDerivedRules(info, db); err != nil {
		return nil, err
	}
	if err := resolveAttrs(info, db, shape); err != nil {
		return nil, err
	}
	p.shape = shape

	if err := compilePropagation(p, shape); err != nil {
		return nil, err
	}
	if err := buildInits(p, shape); err != nil {
		return nil, err
	}

	p.Termination = TermSpec{MaxIters: DefaultMaxIters}
	if opts.MaxIters > 0 {
		p.Termination.MaxIters = opts.MaxIters
	}
	if info.Termination != nil {
		p.Termination.Epsilon = info.Termination.Threshold
	}
	return p, nil
}

// bodyShape is the resolved propagation structure of the recursive body.
type bodyShape struct {
	g    *graph.Graph
	join *ast.Pred // the resolved join predicate occurrence

	// base is the graph as registered in the database; g == base unless
	// the body is an in-neighbor formulation, in which case g is a
	// transposed copy and reversed is true. A session mutation must be
	// applied to both.
	base     *graph.Graph
	reversed bool

	// otherHeads/derivedHeads name the supporting relations the compiler
	// materialised (view rules and aggregate views such as PageRank's
	// degree). They may read the graph, so a base-fact mutation drops and
	// re-derives them.
	otherHeads   []string
	derivedHeads []string

	// passIdx maps pair-key position 0 (hi) pass-through: for pair-keyed
	// plans, the index in RecKeyVars that flows through unchanged.
	// Single-key plans propagate their only key.
	srcVar string // the rec key var that joins the edge's source side
	dstVar string // the head key var bound by the edge's destination side

	weightVar string // edge-weight variable, "" if none

	srcAttrs []attrCol // columns read at the propagation source
	dstAttrs []attrCol // columns read at the destination
}

type attrCol struct {
	varName string
	pred    string // relation the column is loaded from (for re-loading after a mutation)
	col     []float64
}

// resolveJoin identifies the join (edge) predicate of the recursive body
// and orients the propagation graph.
func resolveJoin(info *analyzer.Info, db *edb.DB) (*bodyShape, error) {
	rec := info.Rec
	shape := &bodyShape{}

	// The propagated head key var: the head key not present in rec keys.
	recKeySet := map[string]bool{}
	for _, v := range rec.RecKeyVars {
		recKeySet[v] = true
	}
	var propagated string
	for _, v := range info.KeyVars {
		if !recKeySet[v] {
			if propagated != "" {
				return nil, errf("more than one propagated key (%s and %s)", propagated, v)
			}
			propagated = v
		}
	}
	if propagated == "" {
		return nil, errf("head keys %v all pass through; no propagation structure", info.KeyVars)
	}
	if len(info.KeyVars) == 2 && info.KeyVars[1] != propagated {
		return nil, errf("pair-keyed plans must propagate on the second key; head keys %v propagate %s", info.KeyVars, propagated)
	}
	shape.dstVar = propagated

	// Find the join predicate: mentions the propagated var and a rec key.
	var join *ast.Pred
	for _, p := range rec.Aux {
		hasProp, recVar := false, ""
		for _, t := range p.Args {
			if t.Kind != ast.TermVar {
				continue
			}
			if t.Var == propagated {
				hasProp = true
			}
			if recKeySet[t.Var] {
				recVar = t.Var
			}
		}
		if hasProp && recVar != "" {
			if join != nil {
				return nil, errf("ambiguous join: both %s and %s connect the keys", join.Name, p.Name)
			}
			join = p
			shape.srcVar = recVar
		}
	}
	if join == nil {
		return nil, errf("no predicate joins a recursive key to head key %s", propagated)
	}

	g, ok := db.Graph(join.Name)
	if !ok {
		return nil, errf("join predicate %q is not registered as a graph", join.Name)
	}
	// Orientation: arg positions of src and dst vars.
	srcPos, dstPos := -1, -1
	for i, t := range join.Args {
		if t.Kind != ast.TermVar {
			continue
		}
		switch t.Var {
		case shape.srcVar:
			srcPos = i
		case shape.dstVar:
			dstPos = i
		default:
			if i >= 2 && shape.weightVar == "" {
				shape.weightVar = t.Var
			}
		}
	}
	shape.base = g
	switch {
	case srcPos == 0 && dstPos == 1:
		shape.g = g
	case srcPos == 1 && dstPos == 0:
		shape.g = g.Reverse() // in-neighbor formulation: transpose once
		shape.reversed = true
	default:
		return nil, errf("join predicate %s must bind keys in its first two arguments", join.Name)
	}
	if len(join.Args) >= 3 && shape.weightVar == "" {
		if t := join.Args[2]; t.Kind == ast.TermVar {
			shape.weightVar = t.Var
		}
	}
	shape.join = join
	return shape, nil
}

// resolveAttrs loads attribute columns for the remaining aux predicates:
// binary-style preds keyed by the propagation source or destination.
func resolveAttrs(info *analyzer.Info, db *edb.DB, shape *bodyShape) error {
	n := shape.g.NumVertices()
	for _, p := range info.Rec.Aux {
		if p == shape.join {
			continue
		}
		if len(p.Args) < 2 {
			return errf("attribute predicate %s needs (key, value) arguments", p.Name)
		}
		keyT, valT := p.Args[0], p.Args[1]
		if keyT.Kind != ast.TermVar || valT.Kind != ast.TermVar {
			return errf("attribute predicate %s must bind plain variables", p.Name)
		}
		col, err := db.VertexColumn(p.Name, n, 0)
		if err != nil {
			return err
		}
		ac := attrCol{varName: valT.Var, pred: p.Name, col: col}
		switch keyT.Var {
		case shape.srcVar:
			shape.srcAttrs = append(shape.srcAttrs, ac)
		case shape.dstVar:
			shape.dstAttrs = append(shape.dstAttrs, ac)
		default:
			return errf("attribute predicate %s keyed by %s, which is neither the propagation source %s nor destination %s",
				p.Name, keyT.Var, shape.srcVar, shape.dstVar)
		}
	}
	return nil
}

// colSlot binds a scratch slot to a live attribute column.
type colSlot struct {
	slot int
	col  []float64
}

// propLayout is the scratch-slot layout of the compiled propagation
// expressions: slot 0 is the propagated value, then the edge weight,
// then the source- and destination-keyed attribute columns.
type propLayout struct {
	slots            map[string]int
	weightSlot       int
	srcCols, dstCols []colSlot
	nslots           int
}

// layoutSlots computes the slot layout for the recursive body. The
// returned colSlots reference the live column slices in shape, so a
// propagator built over them reads whatever the columns hold at call
// time.
func layoutSlots(rec *analyzer.RecInfo, shape *bodyShape) propLayout {
	lay := propLayout{slots: map[string]int{rec.ValueVar: 0}, weightSlot: -1}
	next := 1
	if shape.weightVar != "" {
		lay.weightSlot = next
		lay.slots[shape.weightVar] = next
		next++
	}
	for _, a := range shape.srcAttrs {
		lay.slots[a.varName] = next
		lay.srcCols = append(lay.srcCols, colSlot{next, a.col})
		next++
	}
	for _, a := range shape.dstAttrs {
		lay.slots[a.varName] = next
		lay.dstCols = append(lay.dstCols, colSlot{next, a.col})
		next++
	}
	lay.nslots = next
	return lay
}

// edgeInvariant reports whether e reads no per-edge slot — neither the
// edge weight nor a destination attribute — so its value depends only
// on the drained key. The test is on the variables e actually uses, not
// on which slots the layout binds: an edge weight the join names but
// F' ignores does not pin the evaluation to the edge.
func (lay propLayout) edgeInvariant(e *expr.Expr) bool {
	for _, v := range e.Vars() {
		s := lay.slots[v]
		if s == lay.weightSlot {
			return false
		}
		for _, c := range lay.dstCols {
			if s == c.slot {
				return false
			}
		}
	}
	return true
}

// hoistEdgeInvariant enables the edge-invariant propagation kernel. It
// is only ever cleared by tests, to obtain the generic per-edge
// evaluation the hoisted kernel must match bit for bit.
var hoistEdgeInvariant = true

// propagator is a compiled propagation closure: apply F' (or F) to a
// value arriving at key and emit the per-edge contributions.
type propagator = func(vals []float64, key int64, value float64, emit func(int64, float64))

// buildPropagator compiles e into a propagation closure over g's
// out-edges. The delta path (delta.go) builds extra propagators over a
// pre-mutation graph snapshot with the same layout.
//
// When e is edge-invariant (PageRank's 0.85*rx/d reads only the
// propagated value and a source column) it is evaluated once per call
// and its value emitted to every target. The arithmetic is the same
// expression on the same inputs, so the emitted values are bit-identical
// to evaluating it per edge.
func buildPropagator(e *expr.Expr, g *graph.Graph, lay propLayout, pair bool) (propagator, error) {
	f, err := e.Compile(lay.slots)
	if err != nil {
		return nil, err
	}
	if hoistEdgeInvariant && lay.edgeInvariant(e) {
		return hoistedPropagator(f, g, lay.srcCols, pair), nil
	}
	return perEdgePropagator(f, g, lay, pair), nil
}

// hoistedPropagator evaluates f once per drained key and emits the value
// to every out-neighbor.
func hoistedPropagator(f func([]float64) float64, g *graph.Graph, srcCols []colSlot, pair bool) propagator {
	return func(vals []float64, key int64, value float64, emit func(int64, float64)) {
		src := key
		var hi int64
		if pair {
			hi, src = DecodePair(key)
		}
		if src < 0 || src >= int64(g.NumVertices()) {
			return
		}
		targets, _ := g.Neighbors(int32(src))
		if len(targets) == 0 {
			return
		}
		vals[0] = value
		for _, c := range srcCols {
			vals[c.slot] = c.col[src]
		}
		v := f(vals)
		if pair {
			for _, t := range targets {
				emit(EncodePair(hi, int64(t)), v)
			}
			return
		}
		for _, t := range targets {
			emit(int64(t), v)
		}
	}
}

// perEdgePropagator is the generic kernel: it re-binds the per-edge
// slots and evaluates f once per out-edge.
func perEdgePropagator(f func([]float64) float64, g *graph.Graph, lay propLayout, pair bool) propagator {
	weightSlot, srcCols, dstCols := lay.weightSlot, lay.srcCols, lay.dstCols
	return func(vals []float64, key int64, value float64, emit func(int64, float64)) {
		src := key
		var hi int64
		if pair {
			hi, src = DecodePair(key)
		}
		if src < 0 || src >= int64(g.NumVertices()) {
			return
		}
		vals[0] = value
		for _, c := range srcCols {
			vals[c.slot] = c.col[src]
		}
		lo, hiEdge := g.EdgeRange(int32(src))
		for i := lo; i < hiEdge; i++ {
			dst := int64(g.Target(i))
			if weightSlot >= 0 {
				vals[weightSlot] = g.Weight(i)
			}
			for _, c := range dstCols {
				vals[c.slot] = c.col[dst]
			}
			out := dst
			if pair {
				out = EncodePair(hi, dst)
			}
			emit(out, f(vals))
		}
	}
}

// compilePropagation builds the Propagate and PropagateFull closures.
func compilePropagation(p *Plan, shape *bodyShape) error {
	rec := p.Info.Rec
	lay := layoutSlots(rec, shape)

	// Reject free variables that nothing binds.
	for _, v := range rec.F.Vars() {
		if _, ok := lay.slots[v]; !ok {
			return errf("variable %s in the recursive expression is not bound by any predicate", v)
		}
	}

	var err error
	if p.PropagateInto, err = buildPropagator(rec.FPrime, p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	if p.PropagateFullInto, err = buildPropagator(rec.F, p.Graph, lay, p.PairKeys); err != nil {
		return err
	}
	nslots := lay.nslots
	p.NewScratch = func() []float64 { return make([]float64, nslots) }
	// The convenience forms allocate scratch per call; the engine's scan
	// passes hold per-goroutine scratch and use the Into forms.
	p.Propagate = func(key int64, delta float64, emit func(int64, float64)) {
		p.PropagateInto(make([]float64, nslots), key, delta, emit)
	}
	p.PropagateFull = func(key int64, value float64, emit func(int64, float64)) {
		p.PropagateFullInto(make([]float64, nslots), key, value, emit)
	}
	return nil
}

// ensureNodeRelation synthesises node(v) for v in [0,n) when absent, so
// programs can quantify over all vertices.
func ensureNodeRelation(db *edb.DB, n int) {
	if db.HasPred("node") {
		return
	}
	r := edb.NewRelation("node", 1)
	for v := 0; v < n; v++ {
		r.Add(float64(v))
	}
	db.AddRelation(r)
}
