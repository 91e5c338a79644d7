package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerlog/internal/analyzer"
	"powerlog/internal/ast"
	"powerlog/internal/checker"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/graph"
	"powerlog/internal/parser"
)

// serveSetupReps is how many times serve-churn starts its server; like
// the fixpoint workloads' several graphs, it makes setup_s a median that
// one slow repetition does not move.
const serveSetupReps = 5

// bench is one run's state: options, tracer, counters and metric values.
type bench struct {
	opt      options
	tr       *tracer
	warmEnd  time.Time
	deadline time.Time

	// peakRSS is written by the sampler goroutine and read after
	// endMeasure has waited for it.
	peakRSS          float64
	rssStop, rssDone chan struct{}

	attempted, failed int
	layer             map[string]float64
	reqs              atomic.Int64 // HTTP request ids of the spans

	// setups are the set-up samples behind setup_s, plainLat the untraced
	// result latencies behind result_p50_ms, and tracedLat the traced
	// ones of a trace run, for trace.overhead_frac.
	setups, plainLat, tracedLat []float64
}

func newBench(opt options) *bench {
	return &bench{
		opt:   opt,
		tr:    &tracer{t0: time.Now()},
		layer: map[string]float64{},
	}
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", b.opt.workload, fmt.Sprintf(format, args...))
}

// warmup opens every measured phase: operations that start in it are
// run and checked but not timed. The first operations after set-up run
// on cold pools and caches and read up to 50% slower.
const warmup = 2 * time.Second

// measureFor starts the measured phase: it lasts --seconds from now,
// the warm-up included. The resident set is sampled until endMeasure.
func (b *bench) measureFor() {
	now := time.Now()
	b.warmEnd = now.Add(min(warmup, time.Duration(b.opt.seconds*float64(time.Second))/4))
	b.deadline = now.Add(time.Duration(b.opt.seconds * float64(time.Second)))
	b.rssStop, b.rssDone = make(chan struct{}), make(chan struct{})
	go b.sampleRSS()
}

// rssEvery is the resident-set sampling period of the measured phase.
// peak_rss_mb is the peak of these samples: the memory the system holds
// while it works, not the input generators' transient garbage before it.
const rssEvery = 20 * time.Millisecond

// endMeasure stops the resident-set sampler and waits for it to exit.
func (b *bench) endMeasure() {
	close(b.rssStop)
	<-b.rssDone
}

func (b *bench) sampleRSS() {
	defer close(b.rssDone)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		b.peakRSS = max(b.peakRSS, residentMB())
		select {
		case <-b.rssStop:
			return
		case <-tick.C:
		}
	}
}

// residentMB reads the process's resident set in MiB (0 if unreadable).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// warm reports whether an operation starting at t falls in the warm-up.
func (b *bench) warm(t time.Time) bool { return t.Before(b.warmEnd) }

// traced reports whether operation i of a trace run records spans. A
// trace run alternates traced and untraced operations so the tracing
// overhead is measured on the same inputs and at the same time.
func (b *bench) traced(i int) bool { return b.opt.trace && i%2 == 1 }

// finishTrace derives trace.overhead_frac.
func (b *bench) finishTrace() {
	if len(b.tracedLat) > 0 && len(b.plainLat) > 0 {
		b.layer["trace.overhead_frac"] = median(b.tracedLat)/median(b.plainLat) - 1
	}
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

// span is one call into a layer, timed from the benchmark's side.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Req    int64   `json:"req,omitempty"` // HTTP request id
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. Disabled begin calls
// return 0 and cost one branch.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// begin opens a span when on; end(id) closes it. Ids start at 1.
func (t *tracer) begin(on bool, parent int, layer, name string, req int64) int {
	if !on {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Req: req, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Layer] += self / 1e6
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, lo, lo
	for _, iv := range ivs {
		a, z := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if z <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, z
		} else if z > curHi {
			curHi = z
		}
	}
	return total + curHi - curLo
}

// ---------------------------------------------------------------------
// Set-up: graph, parse, analyze, check, compile.
// ---------------------------------------------------------------------

// setupTimes are one set-up's per-layer durations in seconds.
type setupTimes struct{ build, parse, analyze, check, compile float64 }

func (s setupTimes) total() float64 { return s.build + s.parse + s.analyze + s.check + s.compile }

// compilePlan runs the user pipeline for src over a graph made by build,
// timing each layer. The graph is registered as the relation "edge".
func compilePlan(tr *tracer, on bool, src string, build func() (*graph.Graph, error)) (*compiler.Plan, setupTimes, error) {
	var st setupTimes
	lap := func(layer, name string, dst *float64, f func() error) error {
		id := tr.begin(on, 0, layer, name, 0)
		t0 := time.Now()
		err := f()
		*dst = time.Since(t0).Seconds()
		tr.end(id)
		return err
	}
	var g *graph.Graph
	var prog *ast.Program
	var info *analyzer.Info
	var rep *checker.Report
	var plan *compiler.Plan
	if err := lap("gen", "Dataset build", &st.build, func() (err error) { g, err = build(); return err }); err != nil {
		return nil, st, err
	}
	if err := lap("parser", "Parse", &st.parse, func() (err error) { prog, err = parser.Parse(src); return err }); err != nil {
		return nil, st, err
	}
	if err := lap("analyzer", "Analyze", &st.analyze, func() (err error) { info, err = analyzer.Analyze(prog); return err }); err != nil {
		return nil, st, err
	}
	_ = lap("checker", "Check", &st.check, func() error { rep = checker.Check(info); return nil })
	if !rep.Satisfied {
		return nil, st, fmt.Errorf("program fails the MRA condition check: %v", rep)
	}
	err := lap("compiler", "Compile", &st.compile, func() (err error) {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan, err = compiler.Compile(info, db, compiler.Options{})
		return err
	})
	return plan, st, err
}

// recordSetup keeps each set-up's total for setup_s and reports the
// per-layer set-up medians.
func (b *bench) recordSetup(all []setupTimes) {
	for _, s := range all {
		b.setups = append(b.setups, s.total())
	}
	b.recordSetupLayers(all)
}

// recordSetupLayers reports the per-layer medians of set-up laps.
func (b *bench) recordSetupLayers(all []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(all))
		for i, s := range all {
			xs[i] = f(s)
		}
		return median(xs)
	}
	b.layer["gen.build_s"] = pick(func(s setupTimes) float64 { return s.build })
	b.layer["parser.parse_ms"] = pick(func(s setupTimes) float64 { return s.parse * 1e3 })
	b.layer["analyzer.analyze_ms"] = pick(func(s setupTimes) float64 { return s.analyze * 1e3 })
	b.layer["checker.check_ms"] = pick(func(s setupTimes) float64 { return s.check * 1e3 })
	b.layer["compiler.compile_s"] = pick(func(s setupTimes) float64 { return s.compile })
}

// ---------------------------------------------------------------------
// Go runtime deltas and small statistics.
// ---------------------------------------------------------------------

// memDelta is the allocation and GC work of one call.
type memDelta struct{ allocMB, allocs, gcs float64 }

// measureMem runs f between two runtime.ReadMemStats when on.
func measureMem(on bool, f func()) memDelta {
	if !on {
		f()
		return memDelta{}
	}
	var a, z goruntime.MemStats
	goruntime.ReadMemStats(&a)
	f()
	goruntime.ReadMemStats(&z)
	return memDelta{
		allocMB: float64(z.TotalAlloc-a.TotalAlloc) / (1 << 20),
		allocs:  float64(z.Mallocs - a.Mallocs),
		gcs:     float64(z.NumGC - a.NumGC),
	}
}

func (b *bench) recordMem(ds []memDelta) {
	if len(ds) == 0 {
		return
	}
	var mb, n, gc []float64
	for _, d := range ds {
		mb, n, gc = append(mb, d.allocMB), append(n, d.allocs), append(gc, d.gcs)
	}
	b.layer["goruntime.alloc_mb_per_fixpoint"] = median(mb)
	b.layer["goruntime.allocs_per_fixpoint"] = median(n)
	b.layer["goruntime.gc_cycles_per_fixpoint"] = median(gc)
}

// quantile is the linearly interpolated q-quantile of xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
