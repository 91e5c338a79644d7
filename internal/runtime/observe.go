package runtime

import (
	"fmt"
	"os"
	"sync"
	"time"

	"powerlog/internal/metrics"
)

// This file holds the runtime's observability plumbing (DESIGN.md §8):
// the per-worker and master metric sets registered into
// internal/metrics registries, and the opt-in periodic text dump. The
// policies register their own counters through the registry handed to
// the policy factory (policy.go); everything here is the worker- and
// master-owned remainder.

// workerMetrics is one worker's pre-resolved metric handles. They are
// resolved once in newWorker so the hot paths (flush, handle, refresh)
// pay a single atomic op per event — no map lookups, no allocations.
type workerMetrics struct {
	reg *metrics.Registry

	// flushSize[j] is the per-destination flush-size histogram
	// ("flush.size.dst<j>", KVs per Data batch) — which destinations
	// dominate traffic and how well the β dial is batching.
	flushSize []*metrics.Histogram
	// refreshHits counts ordered-scan mid-pass refreshes that actually
	// folded a newer delta ("sched.refresh.hit") — the delta-stepping
	// saving made visible.
	refreshHits *metrics.Counter
	// recvBatches / dupBatches split inbound Data batches into
	// first deliveries and duplicates ("recv.batch" / "recv.dup.batch");
	// duplicates fold idempotently but stay out of the termination
	// watermark (see handle).
	recvBatches *metrics.Counter
	dupBatches  *metrics.Counter
	// markerResends counts EndPhase retransmissions from stalled barrier
	// or staleness-gate waits ("barrier.marker.resend").
	markerResends *metrics.Counter
	// stragglerUS is the per-block straggler-wait histogram in
	// microseconds ("barrier.straggler.wait_us"), one observation per
	// SSP gate block.
	stragglerUS *metrics.Histogram
}

func newWorkerMetrics(nw int) workerMetrics {
	reg := metrics.NewRegistry()
	m := workerMetrics{
		reg:           reg,
		flushSize:     make([]*metrics.Histogram, nw),
		refreshHits:   reg.Counter("sched.refresh.hit"),
		recvBatches:   reg.Counter("recv.batch"),
		dupBatches:    reg.Counter("recv.dup.batch"),
		markerResends: reg.Counter("barrier.marker.resend"),
		stragglerUS:   reg.Histogram("barrier.straggler.wait_us"),
	}
	// The intra-worker scan pool that counted parallel passes and deque
	// steals is gone (DESIGN.md §9); both counters stay registered and
	// read 0 because perfbench/fixpoint.go still reads them.
	reg.Counter("scan.parallel.pass")
	reg.Counter("scan.steal")
	for j := range m.flushSize {
		m.flushSize[j] = reg.Histogram(fmt.Sprintf("flush.size.dst%d", j))
	}
	return m
}

// masterMetrics is the termination controller's metric set.
type masterMetrics struct {
	reg *metrics.Registry

	// rounds counts master protocol rounds ("master.round": BSP
	// supersteps or async check rounds).
	rounds *metrics.Counter
	// collectWaitUS is the per-round collect latency in microseconds
	// ("master.collect.wait_us"): broadcast to last report.
	collectWaitUS *metrics.Histogram
	// collectTimeouts counts collects abandoned at the liveness deadline
	// ("master.collect.timeout") — each one is an ErrWorkerLost.
	collectTimeouts *metrics.Counter
	// collectProbes counts second-chance re-solicitations: a collect's
	// first deadline expiry re-polls the silent workers directly
	// ("master.collect.probe") before declaring anyone lost, so a worker
	// that is merely deep in a long compute pass is distinguished from a
	// dead one.
	collectProbes *metrics.Counter

	// Membership counters (membership.go, DESIGN.md §11). memberJoins
	// counts workers admitted through a fence — crash replacements and
	// scale-out newcomers ("master.member.join"); memberOrphans counts
	// orphan verdicts, crash and graceful ("master.member.orphan");
	// memberHandoffUS is the per-event recovery/rebalance latency in
	// microseconds ("master.member.handoff_us"), orphan-or-command to
	// Release.
	memberJoins     *metrics.Counter
	memberOrphans   *metrics.Counter
	memberHandoffUS *metrics.Histogram

	// Session lifecycle counters (session.go, DESIGN.md §10). epochs
	// counts fixpoints the session has converged ("engine.epoch");
	// reseedKeys counts ΔX¹ correction entries folded at Apply
	// ("delta.reseed.keys"); invalidateKeys counts table keys erased by
	// deletion invalidation ("delete.invalidate.keys") — together they
	// size the incremental work a mutation actually caused.
	epochs         *metrics.Counter
	reseedKeys     *metrics.Counter
	invalidateKeys *metrics.Counter
}

func newMasterMetrics() masterMetrics {
	reg := metrics.NewRegistry()
	return masterMetrics{
		reg:             reg,
		rounds:          reg.Counter("master.round"),
		collectWaitUS:   reg.Histogram("master.collect.wait_us"),
		collectTimeouts: reg.Counter("master.collect.timeout"),
		collectProbes:   reg.Counter("master.collect.probe"),
		memberJoins:     reg.Counter("master.member.join"),
		memberOrphans:   reg.Counter("master.member.orphan"),
		memberHandoffUS: reg.Histogram("master.member.handoff_us"),
		epochs:          reg.Counter("engine.epoch"),
		reseedKeys:      reg.Counter("delta.reseed.keys"),
		invalidateKeys:  reg.Counter("delete.invalidate.keys"),
	}
}

// metricsDumper is the opt-in periodic text dump for long runs
// (Config.MetricsEvery): a ticker goroutine snapshots every registry —
// safe while writers run — and renders them through metrics.WriteText.
type metricsDumper struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// startMetricsDump launches the dump goroutine, or returns nil when the
// feature is off.
func startMetricsDump(cfg Config, workers []*worker, m *master) *metricsDumper {
	if cfg.MetricsEvery <= 0 {
		return nil
	}
	sink := cfg.MetricsLog
	if sink == nil {
		sink = os.Stderr
	}
	d := &metricsDumper{stop: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(cfg.MetricsEvery)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case now := <-t.C:
				fmt.Fprintf(sink, "-- metrics @ %s --\n", now.Format("15:04:05.000"))
				for _, w := range workers {
					if w == nil { // unpopulated elastic capacity slot
						continue
					}
					metrics.WriteText(sink, fmt.Sprintf("w%d", w.id), w.met.reg.Snapshot())
				}
				metrics.WriteText(sink, "master", m.met.reg.Snapshot())
			}
		}
	}()
	return d
}

// close stops the dump goroutine and waits for it (nil-safe).
func (d *metricsDumper) close() {
	if d == nil {
		return
	}
	close(d.stop)
	d.wg.Wait()
}
