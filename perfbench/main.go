// Command perfbench is the study daemon's benchmark. It drives
// internal/serve from one load-generating process — one client, one
// keep-alive connection, a closed loop — over three workloads:
//
//	campaign-local   cold 2048-point NDJSON campaigns on one daemon
//	campaign-fabric  the same spec stream through a coordinator daemon
//	                 fronting two worker daemons over loopback
//	serve-hot        cmd/sg2042load's 14-target mix, all render-cache hits
//
// A run sends a fixed number of operations, set by -seconds, to
// servers built fresh in-process. The campaign workloads run in rounds
// of 20 campaigns, each round in its own child process, which bounds
// the live heap. Every campaign has fresh clock values, so it is a
// cold fill; and before its timed campaigns each process plans 128
// filler specs, which leaves the engine's process-wide plan cache and
// derivation memo full, as in a daemon that has served that many
// distinct campaigns. With -trace 0 the run prints the end-to-end metrics; with
// -trace 1 it runs the traced pass instead, times calls into each
// layer's public functions, writes the spans to -spans, and prints the
// per-layer metrics. Every metric row carries its unit and sample
// count; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 210, "failed": 0, "metrics": {...}}
//
// A failed or invalid response counts in "failed" and makes the exit
// status 1. Run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload campaign-local --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	spans    string // directory the traced run writes its spans to
}

var workloads = []string{"campaign-local", "campaign-fabric", "serve-hot"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same specs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length; fixes the operation count (about this many seconds on a 2-CPU host)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", ".bench_build/perfbench", "directory for the traced run's span file")
	round := fs.Int("round", -1, "internal: run one campaign round and print its raw result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *round >= 0 {
		if err := campaignRound(cfg, *round, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s round %d: %v\n", cfg.workload, *round, err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloads, ", "))
		return 2
	}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(cfg)
	} else {
		rep, err = endToEndRun(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	level := endToEnd
	if *trace == 1 {
		level = perLayer
	}
	if err := rep.print(stdout, cfg, level); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed, first: %s\n", rep.failed, rep.attempted, rep.firstFailure)
		return 1
	}
	return 0
}

// metricDef is one metric BENCHMARK.json declares. For a per-layer
// metric, moves names the end-to-end metric and workload it should
// move, written down before any change is measured against it.
type metricDef struct{ name, unit, moves string }

// endToEnd and perLayer list the metrics -trace 0 and -trace 1 print,
// in BENCHMARK.json's order; main_test.go holds the two in step.
var (
	endToEnd = []metricDef{
		{"setup_s", "s", ""},
		{"points_per_s", "1/s", ""},
		{"campaign_ms_p50", "ms", ""},
		{"requests_per_s", "1/s", ""},
		{"request_us_p50", "us", ""},
		{"heap_mb", "MB", ""},
	}
	perLayer = []metricDef{
		{"core.spec_us", "us", "campaign_ms_p50 on campaign-*"},
		{"core.eval_ms", "ms", "points_per_s on campaign-local"},
		{"core.unique_evals", "count", "explains points_per_s on campaign-*"},
		{"core.dedup_share", "ratio", "explains points_per_s on campaign-*"},
		{"perfmodel.suite_us", "us", "points_per_s on campaign-local; not serve-hot"},
		{"perfmodel.busy_share", "ratio", "points_per_s on campaign-local; not serve-hot"},
		{"summary.assemble_ms", "ms", "campaign_ms_p50 on campaign-*; not serve-hot"},
		{"serve.handler_us", "us", "request_us_p50 on serve-hot"},
		{"serve.handler_self_ms", "ms", "campaign_ms_p50 on campaign-local"},
		{"serve.response_bytes", "bytes", "campaign_ms_p50 on campaign-local"},
		{"serve.render_hit_ratio", "ratio", "1 on serve-hot, 0 on campaign-*"},
		{"transport.gap_us", "us", "request_us_p50 on serve-hot"},
		{"fabric.coord_ms", "ms", "campaign_ms_p50 on campaign-fabric"},
		{"fabric.worker_busy_ms", "ms", "campaign_ms_p50 on campaign-fabric"},
		{"fabric.worker_imbalance", "ratio", "campaign_ms_p50 on campaign-fabric"},
		{"fabric.coord_self_ms", "ms", "campaign_ms_p50 on campaign-fabric"},
		{"fabric.frames", "count", "points_per_s on campaign-fabric"},
		{"fabric.frame_bytes", "bytes", "points_per_s on campaign-fabric"},
		{"fabric.overhead_ratio", "ratio", "campaign-fabric over campaign-local campaign_ms_p50; exit criterion <= 1.2"},
		{"runtime.allocs_per_op", "count", "points_per_s on campaign-*, request_us_p99 on serve-hot"},
		{"runtime.alloc_mb_per_op", "MB", "points_per_s on campaign-*, request_us_p99 on serve-hot"},
		{"runtime.gc_cpu_frac", "ratio", "points_per_s on campaign-*, request_us_p99 on serve-hot"},
		{"trace.overhead_share", "ratio", "none: the traced run's own cost"},
	}
)

// tableOnly gives the units of the rows the table prints but the JSON
// result leaves out. error_rate is 0 in every correct run; the result's
// failed and attempted counts carry it. serve.flushes and
// fabric.flushes are 0 too while serve's response writer hides
// http.Flusher, so neither NDJSON lines nor worker frames are flushed
// as they are written. request_us_p99 has fewer than 10 samples beyond
// it on the campaign workloads, and on serve-hot its run-to-run spread
// exceeds any bound a regression gate could use; so does
// campaign_ms_p90's on campaign-fabric.
var tableOnly = map[string]string{
	"error_rate":      "ratio",
	"campaign_ms_p90": "ms",
	"request_us_p99":  "us",
	"serve.flushes":   "count",
	"fabric.flushes":  "count",
}

// report collects one run's outcome: operation counts, metric rows and
// the measured input properties.
type report struct {
	attempted, failed int
	firstFailure      string
	rows              []row
	inputs            []string
}

type row struct {
	name    string
	value   float64
	samples int
	note    string
}

// fail records one failed operation.
func (r *report) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
	}
}

func (r *report) add(name string, value float64, samples int, note string) {
	r.rows = append(r.rows, row{name, value, samples, note})
}

// input records a measured property of the workload's inputs.
func (r *report) input(format string, args ...any) {
	r.inputs = append(r.inputs, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable table (every row with its unit and
// sample count), the input properties, and finally the one-line JSON
// result holding exactly the metrics of level.
func (r *report) print(w io.Writer, cfg config, level []metricDef) error {
	defs := map[string]metricDef{}
	for _, m := range level {
		defs[m.name] = m
	}
	res := resultJSON{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{},
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d nproc=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, rw := range r.rows {
		def, ok := defs[rw.name]
		if ok {
			res.Metrics[rw.name] = metricJSON{Value: rw.value, Unit: def.unit}
		} else {
			def.unit = tableOnly[rw.name]
		}
		note := rw.note
		if def.moves != "" {
			note += "; moves " + def.moves
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%-7d %s\n", rw.name, rw.value, def.unit, rw.samples, note)
	}
	for _, in := range r.inputs {
		fmt.Fprintf(w, "  input: %s\n", in)
	}
	for _, m := range level {
		if _, ok := res.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
