package compiler

import (
	"math"
	"math/rand"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

// hoistCase is one runnable Table-1 program with a deterministic
// database builder and whether its F' is expected to take the hoisted
// (edge-invariant) propagation kernel.
type hoistCase struct {
	name  string
	src   string
	hoist bool
	db    func() *edb.DB
}

func graphDB(pred string, g func() *graph.Graph) func() *edb.DB {
	return func() *edb.DB {
		db := edb.NewDB()
		db.SetGraph(pred, g())
		return db
	}
}

func vertexColumn(name string, col []float64) *edb.Relation {
	r := edb.NewRelation(name, 2)
	for v, x := range col {
		r.Add(float64(v), x)
	}
	return r
}

func normalized(n, m int, seed int64) *graph.Graph {
	g := gen.Uniform(n, m, 1, seed)
	gen.NormalizeWeightsByOut(g, 1)
	return g
}

var hoistCases = []hoistCase{
	{"SSSP", progs.SSSP, false, graphDB("edge", func() *graph.Graph { return gen.Uniform(120, 700, 50, 11) })},
	{"PageRank", progs.PageRank, true, graphDB("edge", func() *graph.Graph { return gen.RMAT(7, 600, 0, 17) })},
	{"CC", progs.CC, true, graphDB("edge", func() *graph.Graph { return gen.RMAT(7, 500, 0, 13) })},
	{"Adsorption", progs.Adsorption, false, func() *edb.DB {
		g := normalized(100, 600, 23)
		db := edb.NewDB()
		db.SetGraph("A", g)
		db.AddRelation(vertexColumn("pi", gen.VertexAttr(g.NumVertices(), 0.1, 0.5, 41)))
		db.AddRelation(vertexColumn("pc", gen.VertexAttr(g.NumVertices(), 0.2, 0.8, 42)))
		return db
	}},
	{"Katz", progs.Katz, true, graphDB("edge", func() *graph.Graph { return gen.Uniform(120, 600, 0, 19) })},
	{"BP", progs.BP, false, func() *edb.DB {
		g := normalized(100, 600, 29)
		db := edb.NewDB()
		db.SetGraph("E", g)
		db.AddRelation(vertexColumn("I", gen.VertexAttr(g.NumVertices(), 0.1, 1, 51)))
		db.AddRelation(vertexColumn("H", gen.VertexAttr(g.NumVertices(), 0.2, 0.9, 52)))
		return db
	}},
	{"PathsDAG", progs.PathsDAG, true, graphDB("dagedge", func() *graph.Graph { return gen.DAG(120, 2.5, 25, 0, 31) })},
	// Cost's F = c + w reads the edge weight, but the additive split
	// leaves F' = c: the delta path hoists, the full path does not.
	{"Cost", progs.Cost, true, graphDB("dagedge", func() *graph.Graph { return gen.DAG(120, 2, 15, 10, 37) })},
	{"Viterbi", progs.Viterbi, false, graphDB("trans", func() *graph.Graph { return gen.Trellis(8, 5, 43) })},
	{"SimRank", progs.SimRank, false, graphDB("pairedge", func() *graph.Graph { return normalized(100, 600, 59) })},
	{"LCA", progs.LCA, true, graphDB("parent", func() *graph.Graph { return gen.Uniform(120, 500, 0, 47) })},
	{"APSP", progs.APSP, false, graphDB("edge", func() *graph.Graph { return gen.Uniform(40, 200, 20, 53) })},
}

func parseAnalyze(src string) (*analyzer.Info, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(prog)
}

// compileWith compiles src against a fresh database with the hoisted
// kernel enabled or disabled.
func compileWith(t *testing.T, c hoistCase, hoist bool) *Plan {
	t.Helper()
	defer func(prev bool) { hoistEdgeInvariant = prev }(hoistEdgeInvariant)
	hoistEdgeInvariant = hoist
	info, err := parseAnalyze(c.src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(info, c.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// probeKeys is every source key the propagators are driven with: all
// vertices plus out-of-range keys (which must emit nothing on both
// kernels), and for pair-keyed plans those under a few hi components.
func probeKeys(p *Plan) []int64 {
	var keys []int64
	his := []int64{0}
	if p.PairKeys {
		his = []int64{0, 3, int64(p.N) - 1}
	}
	for _, hi := range his {
		for v := int64(-1); v <= int64(p.N); v++ {
			if p.PairKeys {
				if v < 0 {
					continue
				}
				keys = append(keys, EncodePair(hi, v))
			} else {
				keys = append(keys, v)
			}
		}
	}
	return keys
}

type emitted struct {
	k    int64
	bits uint64
}

// trace drives prop over every probe key and records the emitted
// (key, value-bits) sequence.
func trace(p *Plan, prop propagator) []emitted {
	var out []emitted
	scratch := p.NewScratch()
	emit := func(k int64, v float64) { out = append(out, emitted{k, math.Float64bits(v)}) }
	for i, k := range probeKeys(p) {
		prop(scratch, k, 0.25+0.0137*float64(i%97), emit)
	}
	return out
}

func sameTrace(t *testing.T, what string, got, want []emitted) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: hoisted kernel emitted %d contributions, generic %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emit %d differs: hoisted (%d, %#x), generic (%d, %#x)",
				what, i, got[i].k, got[i].bits, want[i].k, want[i].bits)
		}
	}
}

// testMutation draws a reproducible mix of edge deletes and inserts.
func testMutation(p *Plan, seed int64) Mutation {
	r := rand.New(rand.NewSource(seed))
	base, _ := p.DB.Graph(p.JoinPredicate())
	edges := base.Edges()
	var mut Mutation
	for i := 0; i < 4 && len(edges) > 0; i++ {
		e := edges[r.Intn(len(edges))]
		mut.Deletes = append(mut.Deletes, graph.Edge{Src: e.Src, Dst: e.Dst})
	}
	for i := 0; i < 6; i++ {
		src, dst := int32(r.Intn(p.N)), int32(r.Intn(p.N))
		if src > dst {
			src, dst = dst, src // keeps DAG programs acyclic
		}
		if src != dst {
			mut.Inserts = append(mut.Inserts, graph.Edge{Src: src, Dst: dst, W: 0.01 + 0.05*r.Float64()})
		}
	}
	return mut
}

// syntheticAcc is a deterministic AccRanger over every in-range probe
// key.
func syntheticAcc(p *Plan) AccRanger {
	keys := probeKeys(p)
	return func(f func(int64, float64)) {
		for i, k := range keys {
			lo := k
			if p.PairKeys {
				_, lo = DecodePair(k)
			}
			if lo >= 0 && lo < int64(p.N) {
				f(k, 1+0.01*float64(i%113))
			}
		}
	}
}

// TestHoistedPropagatorEquivalence pins the edge-invariant kernel to the
// generic per-edge evaluation, bit for bit, for every runnable Table-1
// program: PropagateInto, PropagateFullInto, the pre-mutation propagator
// ApplyMutation builds (through its reseed, which is nothing but that
// propagator's and the live one's emits summed in a fixed order), and
// both live propagators again over the mutated EDB.
func TestHoistedPropagatorEquivalence(t *testing.T) {
	for _, c := range hoistCases {
		t.Run(c.name, func(t *testing.T) {
			hp, gp := compileWith(t, c, true), compileWith(t, c, false)
			lay := layoutSlots(hp.Info.Rec, hp.shape)
			if got := lay.edgeInvariant(hp.Info.Rec.FPrime); got != c.hoist {
				t.Fatalf("F' = %s: edgeInvariant = %v, want %v", hp.Info.Rec.FPrime, got, c.hoist)
			}
			sameTrace(t, "PropagateInto", trace(hp, hp.PropagateInto), trace(gp, gp.PropagateInto))
			sameTrace(t, "PropagateFullInto", trace(hp, hp.PropagateFullInto), trace(gp, gp.PropagateFullInto))

			mut := testMutation(hp, 7)
			hr, err := hp.ApplyMutation(mut, syntheticAcc(hp))
			if err != nil {
				t.Fatal(err)
			}
			hoistEdgeInvariant = false
			gr, err := gp.ApplyMutation(mut, syntheticAcc(gp))
			hoistEdgeInvariant = true
			if err != nil {
				t.Fatal(err)
			}
			if len(hr.Reseed) != len(gr.Reseed) {
				t.Fatalf("ApplyMutation: hoisted reseed has %d entries, generic %d", len(hr.Reseed), len(gr.Reseed))
			}
			for i := range hr.Reseed {
				h, g := hr.Reseed[i], gr.Reseed[i]
				if h.K != g.K || math.Float64bits(h.V) != math.Float64bits(g.V) {
					t.Fatalf("ApplyMutation reseed %d: hoisted (%d, %v), generic (%d, %v)", i, h.K, h.V, g.K, g.V)
				}
			}
			if len(hr.InvalidateLo) != len(gr.InvalidateLo) {
				t.Fatal("ApplyMutation: invalidation cones differ in size")
			}
			for v := range hr.InvalidateLo {
				if hr.InvalidateLo[v] != gr.InvalidateLo[v] {
					t.Fatalf("ApplyMutation: vertex %d invalidated on one kernel only", v)
				}
			}
			sameTrace(t, "PropagateInto after ApplyMutation", trace(hp, hp.PropagateInto), trace(gp, gp.PropagateInto))
			sameTrace(t, "PropagateFullInto after ApplyMutation", trace(hp, hp.PropagateFullInto), trace(gp, gp.PropagateFullInto))
		})
	}
}
