package runtime

import (
	"fmt"

	"powerlog/internal/ckpt"
	"powerlog/internal/compiler"
	"powerlog/internal/graph"
	"powerlog/internal/transport"
)

// Run executes a compiled plan on an in-process worker fleet and returns
// the final result. The same worker/master code drives every mode; only
// the flush policy and barrier behaviour differ. Run is the one-shot
// form of the session lifecycle (session.go): it opens a Session,
// takes the initial fixpoint's result, and closes the fleet.
func Run(plan *compiler.Plan, cfg Config) (*Result, error) {
	s, err := Open(plan, cfg)
	if err != nil {
		return nil, err
	}
	res := s.Result()
	if cerr := s.Close(); cerr != nil {
		return nil, cerr
	}
	return res, nil
}

// stats snapshots a worker's observability after the run has stopped
// (the worker goroutine has exited, so reads are race-free).
func (w *worker) stats() WorkerStats {
	ws := WorkerStats{
		Sent:          w.sent,
		Recv:          w.recv,
		Flushes:       w.flushes,
		Passes:        w.passes,
		StragglerWait: w.stragglerWait,
		Metrics:       w.met.reg.Snapshot(),
	}
	if r, ok := w.pol.flush.(betaReporter); ok {
		ws.Beta = r.betaTrajectory()
	}
	return ws
}

// applyPriorityDefault normalises the §5.4 priority knob: the feature is
// opt-in (benchmarks showed the hold/release cycle can thrash on large
// combining-aggregate runs, so no default threshold is imposed), and a
// negative value explicitly disables it.
func applyPriorityDefault(cfg Config, plan *compiler.Plan) Config {
	if cfg.PriorityThreshold < 0 || (plan.Op != nil && plan.Op.Selective()) {
		cfg.PriorityThreshold = 0
	}
	return cfg
}

// RunWorker participates as one worker in an externally provided network
// (e.g. a transport.TCPConn spanning several processes). Every process
// must compile the same plan against the same deterministic data; the
// worker seeds only its own shard of ΔX¹ and returns its local share of
// the result when the master stops the run.
func RunWorker(plan *compiler.Plan, cfg Config, conn transport.Conn) (map[int64]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg = applyPriorityDefault(cfg, plan)
	cfg.Workers = conn.Workers()
	if plan.Propagate == nil || plan.Op == nil {
		return nil, fmt.Errorf("runtime: plan is not compiled")
	}
	w := newWorker(conn.ID(), cfg, plan, cfg.Fault.Wrap(conn))
	if cfg.Mode.MRA() {
		if cfg.RestoreDir != "" {
			rows, meta, err := ckpt.LoadAll(cfg.RestoreDir)
			if err != nil {
				return nil, err
			}
			if meta.Cut {
				w.restore(rows)
			} else {
				if !plan.Op.Selective() {
					return nil, fmt.Errorf("runtime: %s has only stale snapshots, which are safe to restore "+
						"only for selective aggregates (Theorem 3); combining aggregates need a consistent cut", cfg.RestoreDir)
				}
				w.seed(plan.InitMRA)
				w.restoreStale(rows)
			}
		} else {
			w.seed(plan.InitMRA)
		}
	} else {
		for _, kv := range plan.BaseNaive {
			if graph.Partition(kv.K, cfg.Workers) == w.id {
				w.ownBase = append(w.ownBase, kv)
			}
		}
	}
	w.run()
	if err := w.err(); err != nil {
		return nil, err
	}
	local := map[int64]float64{}
	w.table.Range(func(k int64, v float64) bool {
		local[k] = v
		return true
	})
	return local, nil
}

// RunMaster runs the termination controller on an external network and
// reports the rounds executed and whether the run converged (as opposed
// to hitting the iteration or wall-clock cap).
func RunMaster(plan *compiler.Plan, cfg Config, conn transport.Conn) (rounds int, converged bool, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, false, err
	}
	cfg = cfg.withDefaults()
	cfg.Workers = conn.Workers()
	m := newMaster(cfg, plan, conn)
	m.run()
	return m.rounds, m.converged, m.err
}
