package compiler

import (
	"testing"

	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
)

// kernelCases are the two propagation kernels: PageRank's F' (0.85*rx/d)
// reads only the propagated value and a source column, so it takes the
// hoisted path; SSSP's F' (dx + dxy) reads the edge weight and keeps the
// per-edge path.
var kernelCases = []struct {
	name, src string
	maxW      float64
}{
	{"PageRank", progs.PageRank, 0},
	{"SSSP", progs.SSSP, 50},
}

func kernelPlan(tb testing.TB, src string, maxW float64) *Plan {
	tb.Helper()
	db := edb.NewDB()
	db.SetGraph("edge", gen.RMAT(12, 40000, maxW, 5))
	info, err := parseAnalyze(src)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Compile(info, db, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// propagateAll drives PropagateInto over every vertex once.
func propagateAll(p *Plan, scratch []float64, emit func(int64, float64)) {
	for k := int64(0); k < int64(p.N); k++ {
		p.PropagateInto(scratch, k, 0.5, emit)
	}
}

// BenchmarkPropagateInto measures the propagate kernel of one scan pass
// over a whole R-MAT graph: a drained delta at every vertex, F' folded
// over every out-edge into a sink. It reports ns per edge, the figure
// the benchmark's compiler.propagate_ns_per_edge tracks end to end.
func BenchmarkPropagateInto(b *testing.B) {
	for _, c := range kernelCases {
		b.Run(c.name, func(b *testing.B) {
			p := kernelPlan(b, c.src, c.maxW)
			scratch := p.NewScratch()
			var sink float64
			emit := func(_ int64, v float64) { sink += v }
			edges := p.Graph.NumEdges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				propagateAll(p, scratch, emit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			_ = sink
		})
	}
}

// TestPropagateIntoAllocFree pins both kernels at zero allocations per
// pass, so plain `go test` catches a regression the benchmark would
// only report.
func TestPropagateIntoAllocFree(t *testing.T) {
	for _, c := range kernelCases {
		p := kernelPlan(t, c.src, c.maxW)
		scratch := p.NewScratch()
		var sink float64
		emit := func(_ int64, v float64) { sink += v }
		if allocs := testing.AllocsPerRun(5, func() { propagateAll(p, scratch, emit) }); allocs != 0 {
			t.Errorf("%s: PropagateInto pass allocates %v/run, want 0", c.name, allocs)
		}
	}
}
