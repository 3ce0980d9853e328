// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It builds the systems a workload needs, runs the workload for a fixed
// time, checks every output against an independently derived reference and
// prints one JSON result line. See README.md for the workloads and the
// metric definitions; run it from the repository root with
//
//	bash perfbench/run.sh --workload sweep-sparse --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one metric with its unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are reported by every workload's untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"campaigns_per_s", "1/s", "higher"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p90_ms", "ms", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayerMetrics are reported by every workload's traced run. A layer the
// workload does not exercise reports 0 (see README.md).
var perLayerMetrics = []metricDef{
	{"winofault.new_ms", "ms", "lower"},
	{"faultsim.units", "count", "higher"},
	{"faultsim.unit_ms_p50", "ms", "lower"},
	{"faultsim.unit_ms_p99", "ms", "lower"},
	{"faultsim.parallel_eff", "ratio", "higher"},
	{"fault.events_per_unit", "count", "lower"},
	{"fault.sample_us_per_unit", "us", "lower"},
	{"nn.clean_unit_frac", "ratio", "higher"},
	{"nn.recomputed_nodes_per_unit", "count", "lower"},
	{"nn.dirty_nodes_per_unit", "count", "lower"},
	{"nn.reconverge_ratio", "ratio", "higher"},
	{"nn.recompute_ms_per_unit", "ms", "lower"},
	{"nn.empty_round_us", "us", "lower"},
	{"kernel.forward_ms", "ms", "lower"},
	{"kernel.gmac_per_s", "GMAC/s", "higher"},
	{"conv.replay_ms_per_unit", "ms", "lower"},
	{"winograd.replay_ms_per_unit", "ms", "lower"},
	{"conv.replay_us_per_event", "us", "lower"},
	{"winograd.replay_us_per_event", "us", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.coalesced", "count", "higher"},
	{"service.refused", "count", "lower"},
	{"dist.shards", "count", "higher"},
	{"dist.lease_wait_ms_p50", "ms", "lower"},
	{"dist.shard_exec_ms_p50", "ms", "lower"},
	{"dist.empty_lease_ratio", "ratio", "lower"},
	{"dist.fallbacks", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
}

// Result is one workload run: the operation tally, the metric values and,
// per metric, a note giving its sample count or percentile basis.
type Result struct {
	Workload string
	Tally    Tally
	Checks   map[string]bool
	Values   map[string]float64
	Notes    map[string]string
}

func newResult(workload string) *Result {
	return &Result{Workload: workload, Checks: map[string]bool{}, Values: map[string]float64{}, Notes: map[string]string{}}
}

// set records a metric value with the note that qualifies it.
func (r *Result) set(name string, v float64, note string) {
	r.Values[name] = v
	if note != "" {
		r.Notes[name] = note
	}
}

// setQ records a percentile with its basis.
func (r *Result) setQ(name string, q Quantile) { r.set(name, q.Value, q.String()) }

// Correct reports whether every operation and every check succeeded.
func (r *Result) Correct() bool {
	for _, ok := range r.Checks {
		if !ok {
			return false
		}
	}
	return r.Tally.Failed() == 0 && r.Tally.Attempted > 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o runOpts) (*Result, error){
	"sweep-sparse": func(ctx context.Context, o runOpts) (*Result, error) { return runSweep(ctx, sparseSpec, o) },
	"serve-fleet":  runServe,
}

// runOpts is one invocation's workload-independent settings.
type runOpts struct {
	Name    string
	Seed    uint64
	Seconds time.Duration
	Trace   bool
	OutDir  string // where traces and the result history are written
}

func main() {
	workload := flag.String("workload", "", "workload to run: sweep-sparse, serve-fleet or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 40, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed end-to-end run")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for traces and the result history")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := stampHost()
	ctx := context.Background()
	var results []*Result
	for _, name := range names {
		o := runOpts{Name: name, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1, OutDir: *outDir}
		res, err := workloads[name](ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report(os.Stdout, os.Stderr, host, o, res)
		results = append(results, res)
	}
	if len(results) > 1 {
		fmt.Println(string(combinedLine(results, *trace == 1)))
	}
}

// metricsFor returns the metric set a run reports.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// resultLine renders the machine-readable result of one run.
func resultLine(res *Result, traced bool, prefix string) map[string]any {
	ms := map[string]any{}
	for _, m := range metricsFor(traced) {
		ms[prefix+m.Name] = map[string]any{"value": res.Values[m.Name], "unit": m.Unit}
	}
	return map[string]any{
		"correct":   res.Correct(),
		"attempted": res.Tally.Attempted,
		"failed":    res.Tally.Failed(),
		"metrics":   ms,
	}
}

// combinedLine merges several workloads into one result line whose metric
// names carry the workload as a prefix.
func combinedLine(results []*Result, traced bool) []byte {
	ms := map[string]any{}
	correct := true
	var total Tally
	for _, r := range results {
		for k, v := range resultLine(r, traced, r.Workload+".")["metrics"].(map[string]any) {
			ms[k] = v
		}
		correct = correct && r.Correct()
		total.Add(r.Tally)
	}
	b, _ := json.Marshal(map[string]any{"correct": correct, "attempted": total.Attempted, "failed": total.Failed(), "metrics": ms})
	return b
}
