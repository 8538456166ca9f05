// Command fcaebench is the repository's benchmark. It runs one workload
// against the fcae public API, checks every value it reads back, and
// prints its metrics as one JSON object on the last line of standard
// output. Run it through run.sh from the repository root:
//
//	bash fcaebench/run.sh --workload write_random --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records per-layer spans and prints the per-layer metrics. --workload
// all runs every workload untraced and traced and prints each end-to-end
// metric with its tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Metric names and units. BENCHMARK.json declares the same lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ops_s", "1/s"},
	{"put_p50_us", "us"},
	{"get_p50_us", "us"},
	{"scan_p50_us", "us"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int64
	errs              []string // first few mismatches and errors, for the log
	e2e               map[string]float64
	layers            map[string]float64
	samples           map[string]int // sample count behind each percentile
	detail            map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, samples: map[string]int{}, detail: map[string]any{}}
}

// fail counts a failed operation; the first few reasons are kept.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// merge adds another result's operation counts and failures.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	if len(r.errs) > 10 {
		r.errs = r.errs[:10]
	}
}

func (r *result) pct(name string, p pctl) {
	r.e2e[name] = p.US
	r.samples[name] = p.N
}

func (r *result) layerPct(name string, p pctl) {
	r.layers[name] = p.US
	r.samples[name] = p.N
}

// unbounded are per-layer metrics that --workload all prints beside the
// end-to-end ones: the tail percentiles, the highest served rate within
// the p99 limit and the failed share. Users see them, but they spread too
// much between runs to bound (README.md).
var unbounded = []metricDef{
	{"op.put.p999_us", "us"},
	{"op.get.p99_us", "us"},
	{"op.scan.p90_us", "us"},
	{"serve.max_ops_s", "1/s"},
	{"run.failed_frac", "ratio"},
}

var workloads = map[string]func(config, *result) error{
	"write_random":      func(c config, r *result) error { return runWrite(c, r, false) },
	"write_random_fcae": func(c config, r *result) error { return runWrite(c, r, true) },
	"read_mostly":       runReadMostly,
	"serve_mixed":       runServe,
}

var workloadOrder = []string{"write_random", "write_random_fcae", "read_mostly", "serve_mixed"}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&c.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&c.workDir, "workdir", ".bench_build", "directory for store files and span output")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", traceFlag))
	}
	if c.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, not %v", c.seconds))
	}
	c.trace = traceFlag == 1
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		fatal(err)
	}
	if c.workload == "all" {
		if err := runAll(c); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[c.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", c.workload))
	}
	r, err := runOne(c, run)
	if err != nil {
		fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	printDetail(out, c, r)
	printResult(out, c, r)
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fcaebench:", err)
	os.Exit(1)
}

// runOne runs a workload in a fresh store directory and removes it after.
func runOne(c config, run func(config, *result) error) (*result, error) {
	dir, err := os.MkdirTemp(c.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.workDir = dir
	r := newResult()
	if err := run(c, r); err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	r.layers["run.failed_frac"] = ratio(float64(r.failed), float64(r.attempted))
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "fcaebench: check failed:", e)
	}
	return r, nil
}

func metricsFor(c config, r *result) map[string]metric {
	defs, vals := endToEnd, r.e2e
	if c.trace {
		defs, vals = perLayer, r.layers
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

func printResult(w *bufio.Writer, c config, r *result) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metricsFor(c, r)})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printDetail prints the run's metadata, the sample count behind every
// percentile and workload-specific detail on one JSON line.
func printDetail(w *bufio.Writer, c config, r *result) {
	line, err := json.Marshal(map[string]any{
		"meta":    metadata(c),
		"samples": r.samples,
		"detail":  r.detail,
		"errors":  r.errs,
		"e2e":     r.e2e,
		"layers":  r.layers,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func metadata(c config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"sizes":      workloadSizes[c.workload],
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload untraced, then traced, and prints each
// end-to-end metric and each unbounded one with its sample count and the
// traced run's value, so the cost of tracing shows per metric.
func runAll(c config) (err error) {
	out := bufio.NewWriter(os.Stdout)
	defer func() { err = errors.Join(err, out.Flush()) }()
	fmt.Fprintf(out, "%-18s %-16s %14s %-6s %8s %14s %9s\n", "workload", "metric", "value", "unit", "samples", "traced", "overhead")
	for _, name := range workloadOrder {
		c.workload = name
		c.trace = false
		plain, err := runOne(c, workloads[name])
		if err != nil {
			return err
		}
		c.trace = true
		traced, err := runOne(c, workloads[name])
		if err != nil {
			return err
		}
		for i, d := range append(append([]metricDef(nil), endToEnd...), unbounded...) {
			v, tv := plain.e2e[d.name], traced.e2e[d.name]
			if i >= len(endToEnd) {
				v, tv = plain.layers[d.name], traced.layers[d.name]
			}
			over := "-"
			if v != 0 {
				over = fmt.Sprintf("%+.1f%%", 100*(tv-v)/v)
			}
			n := "-"
			if c, ok := plain.samples[d.name]; ok {
				n = fmt.Sprint(c)
			}
			fmt.Fprintf(out, "%-18s %-16s %14.4f %-6s %8s %14.4f %9s\n", name, d.name, v, d.unit, n, tv, over)
		}
		fmt.Fprintf(out, "%-18s correct=%v attempted=%d failed=%d (traced: attempted=%d failed=%d)\n",
			name, plain.failed == 0, plain.attempted, plain.failed, traced.attempted, traced.failed)
		names := make([]string, 0, len(perLayer))
		for _, d := range perLayer {
			names = append(names, fmt.Sprintf("%s=%.4g", d.name, traced.layers[d.name]))
		}
		fmt.Fprintf(out, "%-18s per-layer: %s\n", name, strings.Join(names, " "))
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// spansPath is where a traced run writes its spans.
func spansPath(c config) string {
	return filepath.Join(filepath.Dir(c.workDir), fmt.Sprintf("spans-%s.jsonl", c.workload))
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
