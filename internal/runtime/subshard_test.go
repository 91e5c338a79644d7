package runtime

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"powerlog/internal/agg"
	"powerlog/internal/compiler"
	"powerlog/internal/edb"
	"powerlog/internal/gen"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/transport"
)

// Tests for the intra-worker subshard scan pool (subshard.go,
// DESIGN.md §9): parallel passes must reach the serial fixpoint on the
// oracle suite, the work-stealing deque must hand out each subshard
// exactly once, the per-core hot path must stay allocation-free, and
// the accSum resync must erase float drift at epoch boundaries.

// runModeCores is runMode with the subshard pool forced on:
// CoresPerWorker=cores and CoresMinKeys=1 so even modest frontiers fan
// out (the production default of 1024 would keep small test fixtures
// serial and the pool untested).
func runModeCores(t *testing.T, plan *compiler.Plan, mode Mode, workers, cores int) *Result {
	t.Helper()
	res, err := Run(plan, Config{
		Workers:        workers,
		Mode:           mode,
		Tau:            200 * time.Microsecond,
		CheckInterval:  300 * time.Microsecond,
		MaxWall:        30 * time.Second,
		CoresPerWorker: cores,
		CoresMinKeys:   1,
	})
	if err != nil {
		t.Fatalf("%v cores=%d: %v", mode, cores, err)
	}
	if !res.Converged {
		t.Fatalf("%v cores=%d: did not converge (rounds=%d)", mode, cores, res.Rounds)
	}
	return res
}

// parallelPasses sums the scan.parallel.pass counter over workers —
// the proof that a run actually exercised the subshard pool.
func parallelPasses(res *Result) uint64 {
	var n uint64
	for _, ws := range res.Workers {
		n += ws.Metrics.Counter("scan.parallel.pass")
	}
	return n
}

// TestParallelSSSPAllMRAModes: the P=4 subshard scan must reach
// Dijkstra's fixpoint under every MRA mode. The graph is sized so each
// worker's Dense shard spans several dirty-bitmap lines (>512 slots),
// otherwise Subshards returns 1 and the pass falls back to serial.
func TestParallelSSSPAllMRAModes(t *testing.T) {
	g := gen.Uniform(8000, 40000, 50, 11)
	want := ref.Dijkstra(g, 0)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.SSSP, db)
		res := runModeCores(t, plan, mode, 4, 4)
		expectClose(t, mode, res.Values, want, math.Inf(1), 1e-9)
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestParallelPageRankAllMRAModes: same for a combining (sum)
// aggregate, where cores racing local re-emits into each other's
// unscanned ranges is the interesting interleaving (P1 soundness).
func TestParallelPageRankAllMRAModes(t *testing.T) {
	g := gen.RMAT(13, 40000, 0, 17)
	want := ref.PageRank(g, 500, 1e-9)
	for _, mode := range mraModes {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.PageRank, db)
		res := runModeCores(t, plan, mode, 4, 4)
		expectClose(t, mode, res.Values, want, math.NaN(), 5e-3)
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestParallelAPSPSparse drives the Sparse stripe-block subshards
// (pair-keyed plan) through the pool.
func TestParallelAPSPSparse(t *testing.T) {
	g := gen.Uniform(60, 400, 20, 53)
	want := ref.FloydWarshall(g)
	for _, mode := range []Mode{MRASync, MRAAsync, MRASyncAsync} {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.APSP, db)
		res := runModeCores(t, plan, mode, 4, 4)
		for i := range want {
			for j := range want[i] {
				w := want[i][j]
				key := compiler.EncodePair(int64(i), int64(j))
				gv, ok := res.Values[key]
				if math.IsInf(w, 1) {
					if ok {
						t.Fatalf("%v: pair (%d,%d) should be absent, got %v", mode, i, j, gv)
					}
					continue
				}
				if !ok || math.Abs(gv-w) > 1e-9 {
					t.Fatalf("%v: apsp[%d,%d] = %v (ok=%v), want %v", mode, i, j, gv, ok, w)
				}
			}
		}
		if parallelPasses(res) == 0 {
			t.Fatalf("%v: no parallel scan passes ran", mode)
		}
	}
}

// TestCoresGating: cores=1 (or a non-MRA mode) must not build the pool
// at all — scanPass is then byte-for-byte the pre-subshard serial body,
// which is what makes P=1 bit-identical by construction.
func TestCoresGating(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", gen.RMAT(8, 1200, 0, 17))
	plan := compilePlan(t, progs.PageRank, db)
	mk := func(cfg Config) *worker {
		net := transport.NewChannelNetwork(cfg.Workers, 64)
		w := newWorker(0, cfg.withDefaults(), plan, net.Conn(0))
		t.Cleanup(func() {
			w.scan.close()
			close(w.out)
			close(w.outCtrl)
			<-w.commDone
		})
		return w
	}
	if w := mk(Config{Workers: 1, Mode: MRAAsync, CoresPerWorker: 1}); w.scan != nil {
		t.Fatal("cores=1 built a scan pool")
	}
	if w := mk(Config{Workers: 1, Mode: NaiveSync, CoresPerWorker: 4}); w.scan != nil {
		t.Fatal("naive mode built a scan pool")
	}
	if w := mk(Config{Workers: 1, Mode: MRAAsync, CoresPerWorker: 4}); w.scan == nil {
		t.Fatal("cores=4 MRA mode did not build a scan pool")
	}
}

// TestSerialPassBitIdentical: scan passes on a worker that carries a
// scan pool but stays below the fan-out gate must be bitwise identical
// to a pool-less (cores=1) worker — the gate takes the exact serial
// body, not a degenerate one-core parallel pass. (At P>1 sum results
// are equal only to tolerance: atomic fold order across cores commutes
// but rounds differently.)
func TestSerialPassBitIdentical(t *testing.T) {
	g := gen.RMAT(10, 6000, 0, 31)
	run := func(cfg Config) map[int64][2]float64 {
		db := edb.NewDB()
		db.SetGraph("edge", g)
		plan := compilePlan(t, progs.PageRank, db)
		cfg.Tau = time.Hour
		cfg.CheckInterval = time.Hour
		cfg.MaxWall = time.Hour
		w := standaloneWorker(t, plan, cfg)
		w.seed(plan.InitMRA)
		for i := 0; i < 8; i++ {
			w.scanPass()
		}
		out := make(map[int64][2]float64)
		w.table.RangeRows(func(k int64, acc, inter float64) bool {
			out[k] = [2]float64{acc, inter}
			return true
		})
		return out
	}
	a := run(Config{Mode: MRAAsync, CoresPerWorker: 1})
	// Pool present, gate never satisfied: every pass must fall back to
	// the serial body.
	b := run(Config{Mode: MRAAsync, CoresPerWorker: 4, CoresMinKeys: 1 << 30})
	if len(a) != len(b) {
		t.Fatalf("runs produced %d vs %d rows", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			t.Fatalf("key %d: %v vs %v — gated pass is not bit-identical to serial", k, va, vb)
		}
	}
}

// TestSubDequeExactlyOnce: an owner popping the front races three
// thieves popping the back; every subshard id must be claimed exactly
// once.
func TestSubDequeExactlyOnce(t *testing.T) {
	const nsub = 1 << 12
	var d subDeque
	d.reset(0, nsub)
	claims := make([][]int, 4)
	var wg sync.WaitGroup
	for i := range claims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pop := d.popBack
			if i == 0 {
				pop = d.popFront
			}
			for {
				sub, ok := pop()
				if !ok {
					return
				}
				claims[i] = append(claims[i], sub)
			}
		}(i)
	}
	wg.Wait()
	var all []int
	for _, c := range claims {
		all = append(all, c...)
	}
	sort.Ints(all)
	if len(all) != nsub {
		t.Fatalf("claimed %d subshards, want %d", len(all), nsub)
	}
	for i, sub := range all {
		if sub != i {
			t.Fatalf("subshard %d claimed %s", i, map[bool]string{true: "twice", false: "never"}[sub < i])
		}
	}
}

// standaloneWorker builds a single worker with no peers and no running
// master (nw=1: every emit is local, nothing is ever flushed), so tests
// can drive scanPass by hand.
func standaloneWorker(t *testing.T, plan *compiler.Plan, cfg Config) *worker {
	t.Helper()
	cfg.Workers = 1
	net := transport.NewChannelNetwork(1, 4096)
	w := newWorker(0, cfg.withDefaults(), plan, net.Conn(0))
	t.Cleanup(func() {
		w.scan.close()
		close(w.out)
		close(w.outCtrl)
		<-w.commDone
	})
	return w
}

// TestParallelScanAllocFree pins the per-core hot path: a steady-state
// parallel pass — dirty the whole shard, fan out over 4 cores, drain,
// fold, propagate, merge — must not allocate. Per-core key/drain
// slices, outBufs, and the pre-bound closures are all reused; the two
// warm-up calls spawn the pool goroutines, and the buffers of every
// core — scan slices and the combiners' key/value arrays (their shared
// key-index is sized at construction) — are then grown to full-shard
// capacity by hand: AllocsPerRun
// pins GOMAXPROCS to 1 while it measures, and at one proc the owner
// core usually steals the whole deal before the parked cores wake, so
// warm-up alone leaves cores 1..P-1 cold — a measured run where one of
// them does win a steal would then charge its one-time slice growth to
// the steady state.
func TestParallelScanAllocFree(t *testing.T) {
	db := edb.NewDB()
	g := gen.RMAT(12, 30000, 0, 7) // 4096 vertices -> 8 Dense subshard lines
	db.SetGraph("edge", g)
	plan := compilePlan(t, progs.PageRank, db)
	w := standaloneWorker(t, plan, Config{
		Mode: MRAAsync, CoresPerWorker: 4, CoresMinKeys: 1,
		Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
	})
	if w.scan == nil {
		t.Fatal("no scan pool")
	}
	n := int64(plan.N)
	body := func() {
		for k := int64(0); k < n; k++ {
			w.table.FoldDelta(k, 0.125)
		}
		w.scanPass()
	}
	w.scan.lastDrained = int(n) // make the very first pass fan out
	body()
	body()
	if got := w.met.parallelPasses.Load(); got == 0 {
		t.Fatal("warm-up passes did not take the parallel path")
	}
	for _, c := range w.scan.cores {
		if cap(c.keys) < int(n) {
			c.keys = make([]int64, 0, n)
		}
		if cap(c.drainBuf) < int(n) {
			c.drainBuf = make([]drained, 0, n)
		}
		for _, b := range c.bufs {
			if cap(b.keys) < int(n) {
				b.keys = make([]int64, 0, n)
				b.vals = make([]float64, 0, n)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, body); allocs != 0 {
		t.Fatalf("parallel scan pass allocates %v/run, want 0", allocs)
	}
}

// TestAccSumResyncExact is the satellite regression for the float-drift
// bug: >1e6 mixed-sign folds next to a 1e15 accumulation round the
// running accSum in one direction (each small delta loses low bits at
// ulp 0.125), so the drift grows far past any termination ε. The
// stats-poll epoch boundary must recompute Σacc exactly.
func TestAccSumResyncExact(t *testing.T) {
	db := edb.NewDB()
	db.SetGraph("edge", gen.RMAT(8, 1200, 0, 17))
	plan := compilePlan(t, progs.PageRank, db) // sum aggregate, Dense
	w := standaloneWorker(t, plan, Config{
		Mode: MRAAsync, Tau: time.Hour, CheckInterval: time.Hour, MaxWall: time.Hour,
	})
	fold := func(k int64, v float64) {
		_, change, signed := w.table.FoldAcc(k, v)
		w.accDelta += change
		w.accSum += signed
		w.accFolds++
	}
	fold(0, 1e15)
	for i := 0; i < 600_000; i++ { // 1.2e6 folds > accResyncFolds
		fold(1, 0.7)
		fold(1, -0.3)
	}
	exact := w.table.Acc(0) + w.table.Acc(1)
	drift := agg.Abs(w.accSum - exact)
	if drift < 1 {
		t.Fatalf("fixture did not drift (%v) — the regression test is vacuous", drift)
	}
	if w.accFolds < accResyncFolds {
		t.Fatalf("accFolds = %d, below the resync threshold %d", w.accFolds, accResyncFolds)
	}
	w.replyStats(1) // async epoch boundary: must trigger the exact resync
	if got := agg.Abs(w.accSum - exact); got >= 1e-6 {
		t.Fatalf("accSum after resync off by %v (was drifting by %v)", got, drift)
	}
	if w.accFolds != 0 {
		t.Fatalf("accFolds not reset after resync: %d", w.accFolds)
	}
}

// TestChaosParallelScan replays representative chaos classes with the
// subshard pool forced on: injected stalls, drops, duplicates, and
// partitions must not break the parallel pass's fixpoint. Fixtures are
// sized up from the chaos suite's so Dense shards actually split.
func TestChaosParallelScan(t *testing.T) {
	tweak := func(c *Config) { c.CoresPerWorker = 4; c.CoresMinKeys = 1 }
	type fixture struct {
		name      string
		selective bool
		src       string
		setup     func(db *edb.DB)
		check     func(t *testing.T, mode Mode, got map[int64]float64)
	}
	var fixtures []fixture
	{
		g := gen.Uniform(8000, 40000, 50, 23)
		want := ref.Dijkstra(g, 0)
		fixtures = append(fixtures, fixture{
			name: "sssp", selective: true, src: progs.SSSP,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.Inf(1), 1e-9)
			},
		})
	}
	if !testing.Short() {
		g := gen.RMAT(13, 40000, 0, 29)
		want := ref.PageRank(g, 500, 1e-9)
		fixtures = append(fixtures, fixture{
			name: "pagerank", src: progs.PageRank,
			setup: func(db *edb.DB) { db.SetGraph("edge", g) },
			check: func(t *testing.T, mode Mode, got map[int64]float64) {
				expectClose(t, mode, got, want, math.NaN(), 5e-3)
			},
		})
	}
	for _, fx := range fixtures {
		for _, mode := range []Mode{MRASync, MRASyncAsync} {
			for _, class := range chaosClasses(fx.selective) {
				t.Run(fmt.Sprintf("%s/%v/%s", fx.name, mode, class.name), func(t *testing.T) {
					db := edb.NewDB()
					fx.setup(db)
					plan := compilePlan(t, fx.src, db)
					res, err := chaosRun(t, plan, mode, class.spec, tweak)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("did not converge under %q (rounds=%d)", class.spec, res.Rounds)
					}
					fx.check(t, mode, res.Values)
					if parallelPasses(res) == 0 {
						t.Fatalf("no parallel scan passes ran")
					}
				})
			}
		}
	}
}
