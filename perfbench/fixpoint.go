package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/runtime"
	"powerlog/internal/transport"
)

// Each fixpoint workload regenerates its Table-2 stand-in with the same
// generator and size as gen.Datasets. A run builds several graphs, each
// from its own seed derived from --seed, and cycles its fixpoints over
// them: how long a fixpoint takes depends on the drawn graph (the Wiki
// stand-in's superstep count varies by about 15% between seeds), and a
// run's median over several draws moves far less from seed to seed than
// one draw does. Each graph's set-up is one set-up sample.

// graphSeed derives the seed of graph j of a run.
func graphSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// fixpoint-dense: PageRank over the Arabic stand-in (R-MAT scale 15,
// 800k edges) in the default unified mode. The propagate kernel,
// MonoTable fold/scan, combiner and flush do nearly all the work.
func runFixpointDense(b *bench) error {
	build := func(seed int64) *graph.Graph { return gen.RMAT(15, 800000, 0, seed) }
	if b.opt.tiny {
		build = func(int64) *graph.Graph { return gen.TinyDatasets()[0].Build(false) }
	}
	return b.runFixpoint(progs.PageRank, runtime.MRASyncAsync, build, 3, false)
}

// fixpoint-deep: SSSP over the Wiki stand-in (high-diameter local
// chain, 15k vertices) under BSP barriers: many short supersteps, so
// per-round coordination takes a large share of the time. It is not in
// BENCHMARK.json: its ~80 wake-up chains per fixpoint amplify host CPU
// contention, and on a shared 2-vCPU VM its run-to-run spread over ten
// seeds reached 36–40% in two of six sets. Run it by hand for the
// coordination layers.
func runFixpointDeep(b *bench) error {
	build := func(seed int64) *graph.Graph { return gen.LocalChain(15000, 30, 300, 100, seed) }
	if b.opt.tiny {
		build = func(int64) *graph.Graph { return gen.TinyDatasets()[2].Build(true) }
	}
	return b.runFixpoint(progs.SSSP, runtime.MRASync, build, 8, false)
}

// fixpoint-tcp: PageRank over the LiveJ stand-in (R-MAT scale 14, 171k
// edges) in the unified mode, as 4 RunWorker + 1 RunMaster over
// loopback TCP endpoints: the only workload on the wire codec.
func runFixpointTCP(b *bench) error {
	build := func(seed int64) *graph.Graph { return gen.RMAT(14, 171000, 0, seed) }
	if b.opt.tiny {
		build = func(int64) *graph.Graph { return gen.TinyDatasets()[0].Build(false) }
	}
	return b.runFixpoint(progs.PageRank, runtime.MRASyncAsync, build, 3, true)
}

// minFixpoints guarantees a median even when one fixpoint outlasts the
// measured phase.
const minFixpoints = 3

// fixpointOut is what one cold fixpoint produced.
type fixpointOut struct {
	values  map[int64]float64
	res     *runtime.Result // nil over TCP
	rounds  int
	conv    bool
	wall    time.Duration
	mem     memDelta
	traffic tcpTraffic
}

// input is one compiled graph of a run and its oracle answer.
type input struct {
	plan  *compiler.Plan
	want  []float64
	exact bool
}

func (b *bench) runFixpoint(src string, mode runtime.Mode, build func(seed int64) *graph.Graph, graphs int, tcp bool) error {
	var inputs []input
	var setups []setupTimes
	for j := 0; j < graphs; j++ {
		seed := graphSeed(b.opt.seed, j)
		plan, st, err := compilePlan(b.tr, b.opt.trace, src, func() (*graph.Graph, error) { return build(seed), nil })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		want, exact := oracle(src, plan.Graph)
		inputs = append(inputs, input{plan, want, exact})
	}
	b.recordSetup(setups)
	// Start the measured phase on a collected heap, so set-up garbage
	// is not charged to the first fixpoints.
	goruntime.GC()
	cfg := runtime.Config{Mode: mode}

	var outs []fixpointOut
	b.measureFor()
	for i := 0; time.Now().Before(b.deadline) || (len(outs) < minFixpoints && b.failed == 0); i++ {
		on := b.traced(i)
		warm := b.warm(time.Now())
		in := inputs[i%len(inputs)]
		var out fixpointOut
		var err error
		if tcp {
			out, err = b.tcpFixpoint(in.plan, cfg, on)
		} else {
			out, err = b.channelFixpoint(in.plan, cfg, on)
		}
		b.attempted++
		switch {
		case err != nil:
			b.fail("fixpoint %d: %v", i, err)
			continue
		case !out.conv:
			b.fail("fixpoint %d did not converge in %d rounds", i, out.rounds)
			continue
		}
		if msg := compareValues(out.values, in.want, in.exact); msg != "" {
			b.fail("fixpoint %d: oracle mismatch: %s", i, msg)
			continue
		}
		if warm {
			continue
		}
		// Keep the counters, not the values: a run holds dozens of
		// results, and retained values would inflate peak_rss_mb with
		// the run's length.
		out.values = nil
		if out.res != nil {
			out.res.Values = nil
		}
		outs = append(outs, out)
		ms := out.wall.Seconds() * 1e3
		if on {
			b.tracedLat = append(b.tracedLat, ms)
		} else {
			b.plainLat = append(b.plainLat, ms)
		}
	}
	b.endMeasure()
	if b.opt.trace {
		plan := inputs[0].plan
		b.recordFixpointLayers(outs, plan)
		b.replayKernels(plan, outs)
	}
	return nil
}

func (b *bench) channelFixpoint(plan *compiler.Plan, cfg runtime.Config, on bool) (fixpointOut, error) {
	var out fixpointOut
	var err error
	id := b.tr.begin(on, 0, "runtime", "Run", 0)
	out.mem = measureMem(on, func() {
		t0 := time.Now()
		out.res, err = runtime.Run(plan, cfg)
		out.wall = time.Since(t0)
	})
	b.tr.end(id)
	if err != nil {
		return out, err
	}
	out.values, out.rounds, out.conv = out.res.Values, out.res.Rounds, out.res.Converged
	return out, nil
}

// tcpWorkers is the fleet size of fixpoint-tcp (the runtime default).
const tcpWorkers = 4

// tcpFixpoint runs one distributed fixpoint on fresh loopback endpoints.
// The endpoints are set up and torn down outside the timed region.
func (b *bench) tcpFixpoint(plan *compiler.Plan, cfg runtime.Config, on bool) (fixpointOut, error) {
	var out fixpointOut
	boot := make([]string, tcpWorkers+1)
	for i := range boot {
		boot[i] = "127.0.0.1:0"
	}
	eps := make([]*transport.TCPConn, 0, tcpWorkers+1)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	regs := make([]*metrics.Registry, tcpWorkers+1)
	for i := range boot {
		ep, err := transport.NewTCPEndpoint(i, tcpWorkers, boot)
		if err != nil {
			return out, err
		}
		regs[i] = metrics.NewRegistry()
		ep.SetMetrics(regs[i])
		eps = append(eps, ep)
	}
	addrs := make([]string, len(eps))
	for i, ep := range eps {
		addrs[i] = ep.Addr()
	}
	conns := make([]*countingConn, len(eps))
	for i, ep := range eps {
		ep.SetAddressBook(addrs)
		conns[i] = &countingConn{Conn: ep, tr: b.tr, on: on}
	}

	locals := make([]map[int64]float64, tcpWorkers)
	errs := make([]error, tcpWorkers+1)
	out.mem = measureMem(on, func() {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < tcpWorkers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := b.tr.begin(on, 0, "runtime", "RunWorker", 0)
				conns[i].parent = id
				locals[i], errs[i] = runtime.RunWorker(plan, cfg, conns[i])
				b.tr.end(id)
			}(i)
		}
		id := b.tr.begin(on, 0, "runtime", "RunMaster", 0)
		conns[tcpWorkers].parent = id
		out.rounds, out.conv, errs[tcpWorkers] = runtime.RunMaster(plan, cfg, conns[tcpWorkers])
		b.tr.end(id)
		wg.Wait()
		out.wall = time.Since(t0)
	})
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("endpoint %d: %w", i, err)
		}
	}
	out.values = map[int64]float64{}
	for _, local := range locals {
		for k, v := range local {
			out.values[k] = v
		}
	}
	for i, c := range conns {
		out.traffic.add(c.stats())
		snap := regs[i].Snapshot()
		for j := 0; j <= tcpWorkers; j++ {
			out.traffic.bytes += float64(snap.Counter(fmt.Sprintf("tcp.peer%d.bytes", j)))
		}
	}
	return out, nil
}

// countingConn wraps a transport endpoint from the benchmark's side: it
// counts Send calls, the time spent inside them, and the Data batches
// and KVs they carried, and records a span per Send on traced runs.
type countingConn struct {
	transport.Conn
	tr     *tracer
	on     bool
	parent int

	mu                  sync.Mutex
	calls, batches, kvs float64
	busy                time.Duration
}

func (c *countingConn) Send(to int, m transport.Message) error {
	kvs := len(m.KVs) // read before Send takes ownership of the batch
	id := c.tr.begin(c.on, c.parent, "transport", "Send", 0)
	t0 := time.Now()
	err := c.Conn.Send(to, m)
	d := time.Since(t0)
	c.tr.end(id)
	c.mu.Lock()
	c.calls++
	c.busy += d
	if err == nil && m.Kind == transport.Data {
		c.batches++
		c.kvs += float64(kvs)
	}
	c.mu.Unlock()
	return err
}

func (c *countingConn) stats() tcpTraffic {
	c.mu.Lock()
	defer c.mu.Unlock()
	return tcpTraffic{calls: c.calls, busyMS: c.busy.Seconds() * 1e3, batches: c.batches, kvs: c.kvs}
}

// tcpTraffic sums one fixpoint's transport activity over all endpoints.
type tcpTraffic struct{ calls, busyMS, batches, kvs, bytes float64 }

func (t *tcpTraffic) add(o tcpTraffic) {
	t.calls += o.calls
	t.busyMS += o.busyMS
	t.batches += o.batches
	t.kvs += o.kvs
	t.bytes += o.bytes
}

// recordFixpointLayers reports the per-fixpoint medians of the engine's
// own counters (Result, WorkerStats.Metrics, the master snapshot) and of
// the benchmark-side transport counters.
func (b *bench) recordFixpointLayers(outs []fixpointOut, plan *compiler.Plan) {
	col := map[string][]float64{}
	put := func(name string, v float64) { col[name] = append(col[name], v) }
	var mem []memDelta
	for _, o := range outs {
		if o.mem != (memDelta{}) {
			mem = append(mem, o.mem)
		}
		put("runtime.master_rounds", float64(o.rounds))
		put("runtime.master_round_ms", o.wall.Seconds()*1e3/math.Max(1, float64(o.rounds)))
		if o.res != nil {
			r := o.res
			put("runtime.kvs_sent", float64(r.MessagesSent))
			put("runtime.flushes", float64(r.Flushes))
			put("runtime.kvs_per_flush", float64(r.MessagesSent)/math.Max(1, float64(r.Flushes)))
			put("runtime.kvs_per_vertex", float64(r.MessagesSent)/float64(plan.Graph.NumVertices()))
			var dup, par, steal, straggleUS, beta, nbeta float64
			for _, w := range r.Workers {
				dup += float64(w.Metrics.Counter("recv.dup.batch"))
				par += float64(w.Metrics.Counter("scan.parallel.pass"))
				steal += float64(w.Metrics.Counter("scan.steal"))
				straggleUS += float64(w.Metrics.Histograms["barrier.straggler.wait_us"].Sum)
				if n := len(w.Beta); n > 0 {
					beta += w.Beta[n-1]
					nbeta++
				}
			}
			put("runtime.recv_dup_batches", dup)
			put("runtime.scan_parallel_passes", par)
			put("runtime.scan_steals", steal)
			put("runtime.barrier_straggler_wait_ms", straggleUS/1e3)
			put("runtime.beta_final", beta/math.Max(1, nbeta))
			put("runtime.master_collect_wait_ms", float64(r.Master.Histograms["master.collect.wait_us"].Sum)/1e3)
		} else {
			t := o.traffic
			put("transport.send_calls", t.calls)
			put("transport.send_busy_ms", t.busyMS)
			put("transport.bytes", t.bytes)
			put("transport.bytes_per_kv", t.bytes/math.Max(1, t.kvs))
			put("transport.batches", t.batches)
			put("runtime.kvs_sent", t.kvs)
			put("runtime.flushes", t.batches)
			put("runtime.kvs_per_flush", t.kvs/math.Max(1, t.batches))
			put("runtime.kvs_per_vertex", t.kvs/float64(plan.Graph.NumVertices()))
		}
	}
	for name, xs := range col {
		b.layer[name] = median(xs)
	}
	b.recordMem(mem)
}

// oracle computes the reference answer for src over g: Dijkstra from
// vertex 0 for SSSP (exact), the PageRank limit otherwise.
func oracle(src string, g *graph.Graph) (want []float64, exact bool) {
	if src == progs.SSSP {
		return ref.Dijkstra(g, 0), true
	}
	return ref.PageRank(g, 500, 1e-9), false
}

// pageRankTol bounds the per-key error of an ε-terminated PageRank run:
// the program stops once the outstanding delta mass Σ|Δ| < ε = 1e-4,
// and mass still in flight is amplified at most 1/(1-0.85) times before
// it settles, so no key can be off by more than ε/0.15 ≈ 6.7e-4.
const pageRankTol = 1e-4 / 0.15

// compareValues checks got against the oracle and describes the first
// mismatch ("" when none). Keys whose oracle value is +Inf
// (unreachable in SSSP) must be absent; every other key must be present
// and match exactly (SSSP) or within pageRankTol (PageRank).
func compareValues(got map[int64]float64, want []float64, exact bool) string {
	bad, first := 0, ""
	note := func(format string, args ...any) {
		if bad == 0 {
			first = fmt.Sprintf(format, args...)
		}
		bad++
	}
	for k, w := range want {
		v, ok := got[int64(k)]
		switch {
		case math.IsInf(w, 1):
			if ok {
				note("key %d should be absent, got %v", k, v)
			}
		case !ok:
			note("key %d missing, want %v", k, w)
		case exact && v != w:
			note("key %d = %v, want %v", k, v, w)
		case !exact && math.Abs(v-w) > pageRankTol:
			note("key %d = %v, want %v ± %v", k, v, w, pageRankTol)
		}
	}
	for k := range got {
		if k < 0 || k >= int64(len(want)) {
			note("unexpected key %d", k)
		}
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%d keys wrong, first: %s", bad, first)
}
