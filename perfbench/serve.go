package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/runtime"
	"powerlog/internal/server"
)

// serve-churn: plserved's server.Server with its default Config on a
// loopback listener, SSSP over the LiveJ stand-in parked in the unified
// mode, and two clients on one connection each:
//
//   - a closed-loop writer posting /v1/mutate batches from
//     gen.ChurnStream (mixed inserts and deletes, 0.1% of the edges);
//   - an open-loop reader issuing GET /v1/result point lookups at a
//     fixed rate, each timed from when it was due.
//
// The server resolves datasets by name, so the base graph is the LiveJ
// stand-in at its catalogue seed; --seed drives the churn stream and the
// lookup keys.
const (
	churnFrac = 0.001
	// writerGap keeps the writer at or below 40 mutates/s, inside the
	// server's default per-tenant rate (50/s): a faster engine must not
	// turn into 429s.
	writerGap  = 25 * time.Millisecond
	readerRate = 200 // lookups per second
	// sessionReplayBatches is how many batches the traced run replays
	// through a direct Session for the runtime.session_* metrics.
	sessionReplayBatches = 40
)

// fixpointRequest names the parked fixpoint the clients address.
func fixpointRequest(dataset string) map[string]any {
	return map[string]any{"tenant": "writer", "dataset": dataset, "algo": "SSSP", "mode": "unified"}
}

// liveServer is one started front end.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: server.New(server.Config{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // http.ErrServerClosed once stop runs
	}()
	return ls, nil
}

// stop closes the listener and every connection, drains the server, and
// waits for the serve goroutine to exit.
func (ls *liveServer) stop() error {
	err := ls.hs.Close()
	<-ls.done
	return errors.Join(err, ls.srv.Close())
}

// newClient is one client connection: at most one TCP connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func postJSON(c *http.Client, url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func runServeChurn(b *bench) error {
	ds, err := gen.DatasetByName("LiveJ")
	if err != nil {
		return err
	}
	if b.opt.tiny {
		ds = gen.TinyDatasets()[0]
	}
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	// Set-up: server start plus the first parked query, serveSetupReps times.
	var ls *liveServer
	for i := 0; i < serveSetupReps; i++ {
		if ls != nil {
			writer.CloseIdleConnections()
			if err := ls.stop(); err != nil {
				return fmt.Errorf("set-up: stop: %w", err)
			}
		}
		id := b.tr.begin(b.opt.trace, 0, "server", "start + first POST /v1/query", 0)
		t0 := time.Now()
		var err error
		if ls, err = startServer(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		q := fixpointRequest(ds.Name)
		q["limit"] = 1
		code, body, err := postJSON(writer, ls.base+"/v1/query", q)
		if err != nil || code != http.StatusOK {
			ls.stop()
			return fmt.Errorf("set-up: first query: status %d: %v %s", code, err, body)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.tr.end(id)
	}
	defer ls.stop()

	// Inputs: the churn stream and the lookup keys, from --seed. The
	// base graph is the server's: gen caches each dataset build.
	base := ds.Build(true)
	maxBatches := int(b.opt.seconds*float64(time.Second)/float64(writerGap)) + 2
	stream, _, err := gen.ChurnStream(base, "mixed", churnFrac, maxBatches, b.opt.seed)
	if err != nil {
		return err
	}
	keys := stableKeys(base, stream)
	if len(keys) == 0 {
		return errors.New("no key stays derivable across the churn stream")
	}
	// Start the measured phase on a collected heap, so set-up and input
	// generation garbage does not land in it.
	goruntime.GC()

	var w writerStats
	var r readerStats
	var wg sync.WaitGroup
	b.measureFor()
	start := time.Now()
	on := func() bool { return b.opt.trace && int(time.Since(start).Seconds())%2 == 1 }
	wg.Add(2)
	go func() { defer wg.Done(); w = b.runWriter(writer, ls.base, ds.Name, stream, on) }()
	go func() { defer wg.Done(); r = b.runReader(reader, ls.base, ds.Name, keys, on) }()
	wg.Wait()
	b.endMeasure()

	b.attempted += w.attempted + r.attempted
	for _, msg := range append(w.failures, r.failures...) {
		b.fail("%s", msg)
	}
	b.plainLat, b.tracedLat = w.plain, w.traced

	// Oracle: the final published values against Dijkstra over the edge
	// list the applied batches leave behind.
	b.attempted++
	_, final, err := gen.ChurnStream(base, "mixed", churnFrac, w.applied, b.opt.seed)
	if err != nil {
		return err
	}
	if msg := b.checkPublished(writer, ls.base, ds.Name, base.NumVertices(), final); msg != "" {
		b.fail("published values after %d batches: %s", w.applied, msg)
	}

	if !b.opt.trace {
		return nil
	}
	all := append(append([]float64(nil), w.plain...), w.traced...)
	lk := append(append([]float64(nil), r.plain...), r.traced...)
	b.layer["driver.mutate_p90_ms"] = quantile(all, 0.9)
	b.layer["driver.lookup_p50_us"] = quantile(lk, 0.5)
	b.layer["driver.lookup_p99_us"] = quantile(lk, 0.99)
	b.layer["driver.late_p99_us"] = quantile(r.late, 0.99)
	b.layer["server.mutate_overhead_ms"] = median(w.overhead)
	if err := b.scrapeServer(writer, ls.base); err != nil {
		return err
	}
	return b.replaySession(base, min(w.applied, sessionReplayBatches))
}

// stableKeys returns the vertices reachable from the SSSP source over
// base edges that no batch of the stream deletes. Every such key has a
// derived value in every published fixpoint, so a lookup on it that
// does not answer 200 is a failure.
func stableKeys(base *graph.Graph, stream []gen.ChurnBatch) []int64 {
	gone := map[[2]int32]bool{}
	for _, bt := range stream {
		for _, e := range bt.Deletes {
			gone[[2]int32{e.Src, e.Dst}] = true
		}
	}
	seen := make([]bool, base.NumVertices())
	seen[0] = true
	queue := []int32{0}
	keys := []int64{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		lo, hi := base.EdgeRange(v)
		for e := lo; e < hi; e++ {
			u := base.Target(e)
			if !seen[u] && !gone[[2]int32{v, u}] {
				seen[u] = true
				queue = append(queue, u)
				keys = append(keys, int64(u))
			}
		}
	}
	return keys
}

// writerStats is the writer's tally; only its goroutine writes it.
type writerStats struct {
	attempted, applied int
	failures           []string
	plain, traced      []float64 // POST-to-200 latency, ms
	overhead           []float64 // latency minus engine elapsed_us, ms
}

func (b *bench) runWriter(c *http.Client, base string, dataset string, stream []gen.ChurnBatch, on func() bool) writerStats {
	var st writerStats
	type edgeJSON struct {
		Src int32   `json:"src"`
		Dst int32   `json:"dst"`
		W   float64 `json:"w"`
	}
	conv := func(es []graph.Edge) []edgeJSON {
		out := make([]edgeJSON, len(es))
		for i, e := range es {
			out[i] = edgeJSON{e.Src, e.Dst, e.W}
		}
		return out
	}
	var last time.Time
	for i := 0; i < len(stream) && time.Now().Before(b.deadline); i++ {
		if wait := time.Until(last.Add(writerGap)); wait > 0 {
			time.Sleep(wait)
		}
		req := fixpointRequest(dataset)
		req["inserts"], req["deletes"] = conv(stream[i].Inserts), conv(stream[i].Deletes)
		traced := on()
		last = time.Now()
		warm := b.warm(last)
		id := b.tr.begin(traced, 0, "server", "POST /v1/mutate", b.reqs.Add(1))
		code, body, err := postJSON(c, base+"/v1/mutate", req)
		lat := time.Since(last)
		b.tr.end(id)
		st.attempted++
		// A batch the server may have applied counts as applied, so the
		// oracle's edge list follows the server's.
		st.applied = i + 1
		var resp struct {
			ElapsedUS int64 `json:"elapsed_us"`
			Converged bool  `json:"converged"`
		}
		switch {
		case err != nil:
			st.failures = append(st.failures, fmt.Sprintf("mutate %d: %v", i, err))
			continue
		case code != http.StatusOK:
			st.failures = append(st.failures, fmt.Sprintf("mutate %d: status %d: %s", i, code, body))
			continue
		}
		if err := json.Unmarshal(body, &resp); err != nil || !resp.Converged {
			st.failures = append(st.failures, fmt.Sprintf("mutate %d: not converged (%v): %s", i, err, body))
			continue
		}
		ms := lat.Seconds() * 1e3
		switch {
		case warm:
			continue
		case traced:
			st.traced = append(st.traced, ms)
		default:
			st.plain = append(st.plain, ms)
		}
		st.overhead = append(st.overhead, ms-float64(resp.ElapsedUS)/1e3)
	}
	return st
}

// readerStats is the reader's tally; only its goroutine writes it.
type readerStats struct {
	attempted     int
	failures      []string
	plain, traced []float64 // due-to-response latency, us
	late          []float64 // send time minus due time, us
}

func (b *bench) runReader(c *http.Client, base string, dataset string, keys []int64, on func() bool) readerStats {
	var st readerStats
	rng := rand.New(rand.NewSource(b.opt.seed))
	period := time.Second / readerRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(b.deadline) {
			break
		}
		time.Sleep(time.Until(due))
		key := keys[rng.Intn(len(keys))]
		traced := on()
		if !b.warm(due) {
			st.late = append(st.late, float64(time.Since(due).Nanoseconds())/1e3)
		}
		id := b.tr.begin(traced, 0, "server", "GET /v1/result", b.reqs.Add(1))
		url := fmt.Sprintf("%s/v1/result?dataset=%s&algo=SSSP&mode=unified&key=%d", base, dataset, key)
		code, body, err := get(c, url)
		lat := float64(time.Since(due).Nanoseconds()) / 1e3
		b.tr.end(id)
		st.attempted++
		switch {
		case err != nil:
			st.failures = append(st.failures, fmt.Sprintf("lookup %d: %v", key, err))
		case code != http.StatusOK:
			st.failures = append(st.failures, fmt.Sprintf("lookup %d: status %d: %s", key, code, body))
		case b.warm(due):
		case traced:
			st.traced = append(st.traced, lat)
		default:
			st.plain = append(st.plain, lat)
		}
	}
	return st
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkPublished fetches the parked fixpoint through the cached
// /v1/query path and compares it with Dijkstra over the final edges.
func (b *bench) checkPublished(c *http.Client, base string, dataset string, n int, final []graph.Edge) string {
	code, body, err := postJSON(c, base+"/v1/query", fixpointRequest(dataset))
	if err != nil || code != http.StatusOK {
		return fmt.Sprintf("fetch: status %d: %v", code, err)
	}
	got := map[int64]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line struct {
			Kind string   `json:"kind"`
			K    int64    `json:"k"`
			V    *float64 `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Sprintf("decode: %v", err)
		}
		if line.Kind == "" && line.V != nil {
			got[line.K] = *line.V
		}
	}
	g, err := graph.FromEdges(n, final, true)
	if err != nil {
		return err.Error()
	}
	return compareValues(got, ref.Dijkstra(g, 0), true)
}

// scrapeServer reads the server-side lookup latency and shed counters
// from the /metrics exposition.
func (b *bench) scrapeServer(c *http.Client, base string) error {
	code, body, err := get(c, base+"/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("scrape /metrics: status %d: %v", code, err)
	}
	var buckets [][2]float64 // le, cumulative count
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case f[0] == "powerlog_serve_shed_busy_total":
			b.layer["server.shed_busy"] = v
		case f[0] == "powerlog_serve_shed_rate_total":
			b.layer["server.shed_rate"] = v
		case strings.HasPrefix(f[0], `powerlog_serve_lookup_latency_us_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(f[0], `powerlog_serve_lookup_latency_us_bucket{le="`), `"}`)
			if x, err := strconv.ParseFloat(le, 64); err == nil {
				buckets = append(buckets, [2]float64{x, v})
			}
		}
	}
	if len(buckets) > 0 {
		total := buckets[len(buckets)-1][1]
		for _, bk := range buckets {
			if bk[1] >= total/2 {
				b.layer["server.lookup_server_p50_us"] = bk[0]
				break
			}
		}
	}
	return nil
}

// replaySession replays the stream's first count batches through a
// direct Session.Open/Apply at the runtime defaults, then times a cold
// Run on the edge list they leave behind: the number incremental
// refresh must beat.
func (b *bench) replaySession(base *graph.Graph, count int) error {
	batches, _, err := gen.ChurnStream(base, "mixed", churnFrac, count, b.opt.seed)
	if err != nil {
		return err
	}
	n := base.NumVertices()
	// The server runs the set-up pipeline internally; the replay's own
	// compile of the same program and graph stands in for its laps.
	plan, st, err := sessionPlan(b.tr, n, base.Edges())
	if err != nil {
		return err
	}
	b.recordSetupLayers([]setupTimes{st})
	cfg := runtime.Config{Mode: runtime.MRASyncAsync}
	id := b.tr.begin(true, 0, "runtime", "Open", 0)
	s, err := runtime.Open(plan, cfg)
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("session replay: open: %w", err)
	}
	prev := s.Result()
	var applyMS, rounds, inval, reseed, changed []float64
	var mem []memDelta
	applied := 0
	for i, bt := range batches {
		var res *runtime.Result
		var aerr error
		id := b.tr.begin(true, 0, "runtime", "Apply", int64(i+1))
		t0 := time.Now()
		mem = append(mem, measureMem(true, func() {
			res, aerr = s.Apply(runtime.Mutation{Inserts: bt.Inserts, Deletes: bt.Deletes})
		}))
		d := time.Since(t0)
		b.tr.end(id)
		b.attempted++
		if aerr != nil || !res.Converged {
			b.fail("session replay apply %d: converged=%v err=%v", i, res != nil && res.Converged, aerr)
			break
		}
		applyMS = append(applyMS, d.Seconds()*1e3)
		rounds = append(rounds, float64(res.Rounds))
		inval = append(inval, counterDelta(prev, res, "delete.invalidate.keys"))
		reseed = append(reseed, counterDelta(prev, res, "delta.reseed.keys"))
		changed = append(changed, float64(changedKeys(prev.Values, res.Values)))
		prev = res
		applied++
	}
	id = b.tr.begin(true, 0, "runtime", "Close", 0)
	cerr := s.Close()
	b.tr.end(id)
	if cerr != nil {
		return fmt.Errorf("session replay: close: %w", cerr)
	}
	b.attempted++
	_, edges, err := gen.ChurnStream(base, "mixed", churnFrac, applied, b.opt.seed)
	if err != nil {
		return err
	}
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		return err
	}
	if msg := compareValues(prev.Values, ref.Dijkstra(g, 0), true); msg != "" {
		b.fail("session replay final values: %s", msg)
	}

	b.layer["runtime.session_apply_ms"] = median(applyMS)
	b.layer["runtime.session_rounds_per_apply"] = mean(rounds)
	b.layer["runtime.session_invalidated_keys_per_apply"] = mean(inval)
	b.layer["runtime.session_reseeded_keys_per_apply"] = mean(reseed)
	b.layer["runtime.session_changed_keys_per_apply"] = mean(changed)
	if work := sum(inval) + sum(reseed); work > 0 {
		b.layer["runtime.session_cone_useful_ratio"] = sum(changed) / work
	}

	// Cold re-fixpoint on the final edge list.
	cold, _, err := sessionPlan(b.tr, n, edges)
	if err != nil {
		return err
	}
	var outs []fixpointOut
	var coldMS []float64
	for i := 0; i < minFixpoints; i++ {
		out, err := b.channelFixpoint(cold, cfg, true)
		b.attempted++
		if err != nil || !out.conv {
			b.fail("cold re-fixpoint %d: converged=%v err=%v", i, out.conv, err)
			continue
		}
		outs = append(outs, out)
		coldMS = append(coldMS, out.wall.Seconds()*1e3)
	}
	b.layer["runtime.session_cold_refixpoint_ms"] = median(coldMS)
	b.recordFixpointLayers(outs, cold)
	b.recordMem(mem) // the Apply deltas, not the cold runs', describe this workload
	b.replayKernels(cold, outs)
	return nil
}

// sessionPlan compiles SSSP over a private graph: Session.Apply mutates
// its plan's EDB in place.
func sessionPlan(tr *tracer, n int, edges []graph.Edge) (*compiler.Plan, setupTimes, error) {
	return compilePlan(tr, true, progs.SSSP, func() (*graph.Graph, error) { return graph.FromEdges(n, edges, true) })
}

func counterDelta(prev, cur *runtime.Result, name string) float64 {
	return float64(cur.Master.Counter(name)) - float64(prev.Master.Counter(name))
}

// changedKeys counts keys whose value differs between two results,
// including keys present in only one.
func changedKeys(a, b map[int64]float64) int {
	n := 0
	for k, v := range b {
		if old, ok := a[k]; !ok || old != v {
			n++
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			n++
		}
	}
	return n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
