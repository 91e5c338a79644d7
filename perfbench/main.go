// Command perfbench is the repository benchmark: oracle-checked
// workloads that time PowerLog the way a user runs it, with the engine
// at its defaults (runtime.Config{} apart from Mode, server.Config{}).
// BENCHMARK.json gates fixpoint-dense, fixpoint-tcp and serve-churn;
// fixpoint-deep runs by hand (see its driver).
//
//	perfbench --workload fixpoint-dense --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around every call the benchmark makes into a layer
// and reports the per-layer metrics (README.md maps each one to the
// end-to-end metric and workload it should move). Every run checks the
// program's outputs against the internal/ref oracles. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// and the same result, with GOMAXPROCS, NumCPU, the Go version, the
// commit and the seed, is written under --out. A failed operation or an
// oracle mismatch makes the command exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	out      string
	// tiny swaps every input for a gen.TinyDatasets graph (self-tests).
	tiny bool
}

// samples are the raw measurements behind the end-to-end metrics.
type samples struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Setups    []float64 `json:"setup_s"`
	ResultMS  []float64 `json:"result_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
}

func (s samples) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(s.Setups),
		"peak_rss_mb":   s.PeakRSSMB,
		"result_p50_ms": median(s.ResultMS),
	}
}

// workloadFuncs maps each workload name to its driver.
var workloadFuncs = map[string]func(*bench) error{
	"fixpoint-dense": runFixpointDense,
	"fixpoint-deep":  runFixpointDeep,
	"fixpoint-tcp":   runFixpointTCP,
	"serve-churn":    runServeChurn,
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the provenance-stamped copy of a result written under --out.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Started    string             `json:"started"`
	FailedFrac float64            `json:"failed_frac"`
	Samples    samples            `json:"samples"`
	Result     result             `json:"result"`
	Moves      map[string]string  `json:"moves,omitempty"`
	LayerSelf  map[string]float64 `json:"layer_self_s,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, rec, err := execute(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHuman(os.Stdout, rec)
	if opt.out != "" {
		if err := writeRecord(opt, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: fixpoint-dense, fixpoint-deep, fixpoint-tcp, serve-churn")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", 20, "how long the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&opt.commit, "commit", "unknown", "commit or source digest recorded with the result")
	fs.StringVar(&opt.out, "out", "", "directory the provenance record is written to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloadFuncs[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds <= 0 {
		return opt, errors.New("--seconds must be positive")
	}
	opt.trace = trace == 1
	return opt, nil
}

// execute runs one workload and assembles the contract result and its
// record. An error means the workload could not run at all; failed
// operations and oracle mismatches are counted in the result instead.
func execute(opt options) (result, record, error) {
	started := time.Now()
	rec := record{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Commit: opt.commit, GoVersion: goruntime.Version(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(),
		Started: started.UTC().Format(time.RFC3339),
	}
	b := newBench(opt)
	if err := workloadFuncs[opt.workload](b); err != nil {
		return result{}, record{}, fmt.Errorf("%s: %w", opt.workload, err)
	}
	rec.Samples = samples{
		Attempted: b.attempted, Failed: b.failed,
		Setups: b.setups, ResultMS: b.plainLat, PeakRSSMB: b.peakRSS,
	}
	defs, values := endToEnd, rec.Samples.metrics()
	if opt.trace {
		b.finishTrace()
		defs, values = perLayer, b.layer
		rec.Moves = map[string]string{}
		for _, d := range perLayer {
			rec.Moves[d.name] = d.moves
		}
		rec.LayerSelf = b.tr.selfTimes()
		rec.Spans = b.tr.spans
	}

	smp := rec.Samples
	res := result{Attempted: smp.Attempted, Failed: smp.Failed, Metrics: map[string]metric{}}
	res.Correct = smp.Failed == 0 && smp.Attempted > 0
	for _, d := range defs {
		// A layer the workload does not exercise reads 0 (e.g. the TCP
		// transport on the channel workloads).
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	rec.Result = res
	if smp.Attempted > 0 {
		rec.FailedFrac = float64(smp.Failed) / float64(smp.Attempted)
	}
	return res, rec, nil
}

// printHuman prints the provenance and every metric by name with its
// unit, ahead of the contract line.
func printHuman(w io.Writer, rec record) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v commit=%s %s GOMAXPROCS=%d NumCPU=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit, rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU)
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%g correct=%v\n",
		rec.Result.Attempted, rec.Result.Failed, rec.FailedFrac, rec.Result.Correct)
	fmt.Fprintf(w, "  untraced result latencies (ms): %d samples, %s\n",
		len(rec.Samples.ResultMS), summarize(rec.Samples.ResultMS))
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// summarize lists a few samples in measurement order, then the quartiles.
func summarize(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i == 8 {
			b.WriteString("... ")
			break
		}
		fmt.Fprintf(&b, "%.4g ", x)
	}
	fmt.Fprintf(&b, "(q1 %.4g, median %.4g, q3 %.4g)", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
	return b.String()
}

func writeRecord(opt options, rec record) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return fmt.Errorf("record dir: %w", err)
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, trace)
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.out, name), data, 0o644)
}
