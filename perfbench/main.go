// Command perfbench is the end-to-end benchmark of the response module.
// It runs one named workload against the module's public surface from
// one process and prints, as the last line of its standard output, one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of endToEnd;
// with -trace 1 the run records spans around every call into a layer
// and reports the per-layer metrics of perLayer instead. Run it through
// run.sh from the root of a checkout (see README.md):
//
//	bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 30 --trace 0
//
// Every input is derived from -seed. Every produced plan is checked
// outside the timed region; a failed operation or a failed check makes
// the command exit with status 1 after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec names one reported metric. The tables below are the
// benchmark's own record of BENCHMARK.json's metric lists; the smoke
// test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists the metrics an untraced run reports for every
// workload. plan_s and step_s mean the workload's own plan operation
// and closed-loop step (see README.md for the per-workload table).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"plan_s", "s", "lower"},
	{"step_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"always_on_power_pct", "%", "lower"},
	{"table_share", "fraction", "higher"},
}

// overheadOf lists the end-to-end timings whose tracing overhead a
// traced run reports as overhead.<name>.
var overheadOf = []string{"plan_s", "step_s"}

// perLayer lists the metrics a traced run reports for every workload.
var perLayer = []metricSpec{
	{"core.always_on_s", "s", "lower"},
	{"core.on_demand_s", "s", "lower"},
	{"core.failover_s", "s", "lower"},
	{"core.validate_s", "s", "lower"},
	{"mcf.route_pass_ms", "ms", "lower"},
	{"mcf.max_scale_ms", "ms", "lower"},
	{"mcf.descent_s.power_desc", "s", "lower"},
	{"mcf.descent_s.degree_asc", "s", "lower"},
	{"mcf.descent_s.power_asc", "s", "lower"},
	{"mcf.descent_s.random", "s", "lower"},
	{"mcf.descent_sum_s", "s", "lower"},
	{"mcf.descent_max_s", "s", "lower"},
	{"spf.dijkstra_us", "us", "lower"},
	{"spf.tree_us", "us", "lower"},
	{"spf.kshortest_us", "us", "lower"},
	{"lifecycle.artifact_roundtrip_ms", "ms", "lower"},
	{"lifecycle.migrated_flows", "count", "lower"},
	{"lifecycle.unchanged", "count", "higher"},
	{"lifecycle.rejected", "count", "lower"},
	{"sim.drain_ms", "ms", "lower"},
	{"sim.run_ms_per_sim_hour", "ms", "lower"},
	{"sim.allocs_per_sim_hour", "count", "lower"},
	{"sim.alloc_flows_per_epoch", "count", "lower"},
	{"te.probe_rounds", "count", "lower"},
	{"te.shifts", "count", "lower"},
	{"te.wake_requests", "count", "lower"},
	{"tracestore.windows_ms", "ms", "lower"},
	{"tracestore.summary_ms", "ms", "lower"},
	{"tracestore.critical_path_ms", "ms", "lower"},
	{"tracestore.events_ms", "ms", "lower"},
	{"tracestore.ingested", "count", "higher"},
	{"tracestore.skipped", "count", "lower"},
	{"tracestore.evicted", "count", "lower"},
	{"controld.http_ms.advance", "ms", "lower"},
	{"controld.http_ms.job_submit", "ms", "lower"},
	{"controld.http_ms.job_poll", "ms", "lower"},
	{"controld.http_ms.promote", "ms", "lower"},
	{"controld.http_ms.trace_windows", "ms", "lower"},
	{"controld.http_ms.trace_summary", "ms", "lower"},
	{"controld.http_ms.trace_critical_path", "ms", "lower"},
	{"controld.http_ms.trace_events", "ms", "lower"},
	{"controld.http_ms.metrics", "ms", "lower"},
	{"controld.job_queue_ms", "ms", "lower"},
	{"controld.job_run_ms", "ms", "lower"},
	{"controld.refused", "count", "lower"},
	{"self_s.bench", "s", "lower"},
	{"self_s.core", "s", "lower"},
	{"self_s.mcf", "s", "lower"},
	{"self_s.spf", "s", "lower"},
	{"self_s.lifecycle", "s", "lower"},
	{"self_s.sim", "s", "lower"},
	{"self_s.tracestore", "s", "lower"},
	{"self_s.controld", "s", "lower"},
	{"overhead.plan_s", "s", "lower"},
	{"overhead.step_s", "s", "lower"},
}

// layers are the span layers whose self time a traced run reports.
var layers = []string{"bench", "core", "mcf", "spf", "lifecycle", "sim", "tracestore", "controld"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"cold-plan":    runColdPlan,
	"drift-replan": runDriftReplan,
	"controld-ops": runControldOps,
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its result; it returns
// the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold-plan, drift-replan or controld-ops")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 30, "length of the measured loop in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	b := newBench(config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		sizes:    fullSizes,
		outDir:   ".bench_build",
	}, stderr)
	res, err := b.execute(runner)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.writeTrace(filepath.Join(b.cfg.outDir, "traces")); err != nil {
		fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
	}
	env, _ := json.Marshal(b.env)
	fmt.Fprintf(stdout, "# env %s\n", env)
	detail, _ := json.Marshal(b.detail)
	fmt.Fprintf(stdout, "# detail %s\n", detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, msg := range b.failures() {
			fmt.Fprintf(stderr, "perfbench: failed: %s\n", msg)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
