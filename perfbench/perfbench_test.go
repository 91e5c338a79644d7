package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/progs"
	"powerlog/internal/runtime"
)

// TestWorkloadsTiny runs every workload on a gen.TinyDatasets graph,
// untraced and traced, and checks the result is correct and carries
// exactly the metric set of its mode.
func TestWorkloadsTiny(t *testing.T) {
	names := make([]string, 0, len(workloadFuncs))
	for name := range workloadFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				checkTinyRun(t, options{workload: name, seed: 7, seconds: 0.6, trace: trace, tiny: true})
			})
		}
	}
}

func checkTinyRun(t *testing.T, opt options) {
	res, rec, err := execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v, want a number in %s", d.name, m, d.unit)
		}
		if !opt.trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v, want > 0", d.name, m.Value)
		}
	}
	if rec.GOMAXPROCS == 0 || rec.NumCPU == 0 || rec.GoVersion == "" || rec.Seed != opt.seed {
		t.Errorf("record lacks provenance: %+v", rec)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json and the emitted metrics
// agree: every metric it names is emitted with its unit, every emitted
// metric is named there, and every name is well formed.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		seen := map[string]bool{}
		for _, m := range listed {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s metric %q does not match %s", kind, m.Name, valid)
			}
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) is not emitted with that unit (emitted: %q)", kind, m.Name, m.Unit, u)
			}
			seen[m.Name] = true
		}
		for _, d := range defs {
			if !seen[d.name] {
				t.Errorf("%s metric %s is emitted but not listed in BENCHMARK.json", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s in BENCHMARK.json has no driver", w.Name)
		}
	}
}

// TestOracleRejectsCorruptResult checks that the oracle gate accepts a
// correct result and rejects it once one value is changed, dropped, or
// invented. The SSSP result is the engine's own; the PageRank one is the
// oracle's limit as a correct engine would return it, because at the
// runtime defaults the engine's PageRank on the tiny graph stops early
// (TestWorkloadsTiny's fixpoint-dense case).
func TestOracleRejectsCorruptResult(t *testing.T) {
	cases := []struct {
		src   string
		ds    gen.Dataset
		delta float64 // corruption size: just past the tolerance
	}{
		{progs.SSSP, gen.TinyDatasets()[2], 1e-9},
		{progs.PageRank, gen.TinyDatasets()[0], 2 * pageRankTol},
	}
	for _, c := range cases {
		weighted := c.src == progs.SSSP
		plan, _, err := compilePlan(&tracer{}, false, c.src, func() (*graph.Graph, error) { return c.ds.Build(weighted), nil })
		if err != nil {
			t.Fatal(err)
		}
		want, exact := oracle(c.src, plan.Graph)
		good := map[int64]float64{}
		if exact {
			res, err := runtime.Run(plan, runtime.Config{Mode: runtime.MRASync})
			if err != nil {
				t.Fatal(err)
			}
			good = res.Values
		} else {
			for k, v := range want {
				good[int64(k)] = v
			}
		}
		if msg := compareValues(good, want, exact); msg != "" {
			t.Fatalf("%s: oracle rejects a correct result: %s", c.ds.Name, msg)
		}
		corrupt := func(f func(map[int64]float64)) map[int64]float64 {
			cp := make(map[int64]float64, len(good))
			for k, v := range good {
				cp[k] = v
			}
			f(cp)
			return cp
		}
		var key int64 = -1
		for k := range good {
			if key < 0 || k < key {
				key = k
			}
		}
		bad := map[string]map[int64]float64{
			"changed": corrupt(func(m map[int64]float64) { m[key] += c.delta * math.Max(1, math.Abs(m[key])) }),
			"dropped": corrupt(func(m map[int64]float64) { delete(m, key) }),
			"extra":   corrupt(func(m map[int64]float64) { m[int64(len(want))] = 1 }),
		}
		for how, m := range bad {
			if compareValues(m, want, exact) == "" {
				t.Errorf("%s: oracle accepts a result with a %s key", c.ds.Name, how)
			}
		}
	}
}
