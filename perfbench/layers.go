package main

import (
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/monotable"
)

// Kernel replays time the engine's innermost layers in isolation, at the
// workload's own sizes, so a change to one of them shows as ns per unit
// of work independent of scheduling.

// replayBudget bounds each kernel replay's repetitions.
const replayBudget = 300 * time.Millisecond

// replayKernels reports compiler.propagate_ns_per_edge and the MonoTable
// fold/scan costs. The KV volume and round count are the medians of the
// measured fixpoints (over TCP, the KVs the endpoints carried).
func (b *bench) replayKernels(plan *compiler.Plan, outs []fixpointOut) {
	var kvs, rounds []float64
	for _, o := range outs {
		rounds = append(rounds, float64(o.rounds))
		if o.res != nil {
			kvs = append(kvs, float64(o.res.MessagesSent))
		} else {
			kvs = append(kvs, o.traffic.kvs)
		}
	}
	b.replayPropagate(plan)
	b.replayMonoTable(plan, int(median(kvs)), int(median(rounds)))
}

// replayPropagate runs Plan.PropagateInto once per vertex with a unit
// delta, as a scan pass would, and reports the median pass's ns per
// emitted edge.
func (b *bench) replayPropagate(plan *compiler.Plan) {
	scratch := plan.NewScratch()
	var sink float64
	emitted := 0
	emit := func(_ int64, v float64) { sink += v; emitted++ }
	var perEdge []float64
	start := time.Now()
	for len(perEdge) < 3 || time.Since(start) < replayBudget {
		id := b.tr.begin(true, 0, "compiler", "PropagateInto replay", 0)
		emitted = 0
		t0 := time.Now()
		for v := 0; v < plan.N; v++ {
			plan.PropagateInto(scratch, int64(v), 1, emit)
		}
		d := time.Since(t0)
		b.tr.end(id)
		if emitted > 0 {
			perEdge = append(perEdge, float64(d.Nanoseconds())/float64(emitted))
		}
	}
	b.layer["compiler.propagate_ns_per_edge"] = median(perEdge)
	_ = sink
}

// replayMonoTable folds kvs deltas into a Dense table over the plan's key
// space in `rounds` equal batches, each followed by a ScanDirty pass that
// drains every dirty key — the fold and scan a fixpoint's worker shards
// do between them. Keys come from a fixed xorshift stream.
func (b *bench) replayMonoTable(plan *compiler.Plan, kvs, rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	if kvs < rounds {
		kvs = rounds
	}
	n := uint64(plan.N)
	var foldNS, scanNS []float64
	start := time.Now()
	for len(foldNS) < 3 || time.Since(start) < replayBudget {
		t := monotable.NewDense(plan.Op, plan.N, 1, 0)
		x := uint64(0x9e3779b97f4a7c15)
		var fold, scan time.Duration
		scanned := 0
		var sink float64
		id := b.tr.begin(true, 0, "monotable", "FoldDelta/ScanDirty replay", 0)
		for r := 0; r < rounds; r++ {
			per := kvs / rounds
			t0 := time.Now()
			for i := 0; i < per; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				t.FoldDelta(int64(x%n), float64(x>>40)*1e-6)
			}
			t1 := time.Now()
			t.ScanDirty(func(k int64) {
				v, _ := t.Drain(k)
				sink += v
				scanned++
			})
			fold += t1.Sub(t0)
			scan += time.Since(t1)
		}
		b.tr.end(id)
		_ = sink
		foldNS = append(foldNS, float64(fold.Nanoseconds())/float64(kvs/rounds*rounds))
		if scanned > 0 {
			scanNS = append(scanNS, float64(scan.Nanoseconds())/float64(scanned))
		}
	}
	b.layer["monotable.fold_ns_per_kv"] = median(foldNS)
	b.layer["monotable.scan_ns_per_key"] = median(scanNS)
}
