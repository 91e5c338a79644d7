package metrics

// WellKnownNames is the module's metric-name manifest: the DESIGN.md §8
// inventory extracted into a form the metricname analyzer
// (internal/lint/metricname.go) can check. Every metric registered by
// non-test code must appear here, every entry must have a registration
// site, and every name read back out of a Snapshot must resolve to a
// registered metric — so a typo'd counter fails `make lint` instead of
// silently reading zero.
//
// Entries containing a %-verb are dynamic families whose concrete names
// are built with fmt.Sprintf at the registration site (one instrument
// per destination or peer); the analyzer matches reads against them
// structurally.
var WellKnownNames = []string{
	// Scheduler (§5.4 priority holding, ordered-scan refreshes).
	"sched.hold",
	"sched.release",
	"sched.refresh.hit",

	// Flush policy (§5.3 adaptive-β dial) and per-destination batching.
	"flush.size.dst%d",
	"flush.beta.band.in",
	"flush.beta.band.exit",
	"flush.beta.clamp.floor",
	"flush.beta.clamp.ceil",

	// Barrier / staleness gate.
	"barrier.straggler.wait_us",
	"barrier.marker.resend",

	// Inbound data path (dup-tolerant termination watermark).
	"recv.batch",
	"recv.dup.batch",

	// Removed intra-worker scan pool (DESIGN.md §9): still registered,
	// always 0, because perfbench/fixpoint.go reads them.
	"scan.steal",
	"scan.parallel.pass",

	// Master termination controller and session lifecycle (§10).
	"master.round",
	"master.collect.wait_us",
	"master.collect.timeout",
	"master.collect.probe",
	"engine.epoch",

	// Membership layer (§11): live re-join and shard rebalancing.
	"master.member.join",
	"master.member.orphan",
	"master.member.handoff_us",
	"delta.reseed.keys",
	"delete.invalidate.keys",

	// TCP transport (retry, circuit breaker, per-peer traffic).
	"tcp.send.retry",
	"tcp.breaker.open",
	"tcp.breaker.halfopen",
	"tcp.breaker.close",
	"tcp.peer%d.batch",
	"tcp.peer%d.bytes",

	// Serving front end (§12 plserved): request mix, shedding, and
	// request-path latency histograms (microseconds, log2 buckets).
	"serve.req",
	"serve.query.fresh",
	"serve.query.cached",
	"serve.lookup",
	"serve.mutate",
	"serve.shed.rate",
	"serve.shed.busy",
	"serve.error",
	"serve.session.pooled",
	"serve.query.latency_us",
	"serve.lookup.latency_us",
	"serve.mutate.latency_us",
}
