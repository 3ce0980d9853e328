package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: percentile must sort
	}
	return s
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		pct     float64
		value   float64
		comment string
	}{
		{100, 90, 90, 90, "exactly ten beyond p90"},
		{1000, 99, 99, 990, "exactly ten beyond p99"},
		{200, 90, 90, 180, "p90 supported with room"},
		{99, 90, 89.9, 89, "one short: the highest supported percentile"},
		{40, 90, 75, 30, "forty samples support p75"},
		{20, 90, 50, 10, "twenty samples support only the median"},
		{12, 90, 50, 6, "fewer than twenty degrade to the median"},
		{1, 99, 50, 1, "one sample"},
	} {
		q := Tail(seq(tc.n), tc.want)
		if q.Pct != tc.pct || q.Value != tc.value || q.N != tc.n {
			t.Errorf("%s: Tail(n=%d, p%g) = %+v, want p%g value %g", tc.comment, tc.n, tc.want, q, tc.pct, tc.value)
		}
		beyond := 0
		for _, v := range seq(tc.n) {
			if v > q.Value {
				beyond++
			}
		}
		if q.Pct > 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond, want >= %d", tc.n, q.Pct, beyond, minBeyond)
		}
	}
}

func TestMedianIsNearestRank(t *testing.T) {
	// Two campaign types, three passes each: nearest rank reads the faster
	// type every time instead of averaging across the gap.
	q := Median([]float64{5, 1, 5, 1, 5, 1})
	if q.Value != 1 || q.N != 6 {
		t.Fatalf("Median = %+v, want 1 of 6", q)
	}
	if !math.IsNaN(Median(nil).Value) || !math.IsNaN(Tail(nil, 90).Value) {
		t.Fatal("Median of nothing must be NaN, not a number that looks measured")
	}
}

func TestMidpointAveragesTheMiddleTwo(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{7}, 7},
	} {
		if got := Midpoint(tc.xs); got != tc.want {
			t.Errorf("Midpoint(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(Midpoint(nil)) {
		t.Fatal("Midpoint of nothing must be NaN")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "cold_p90_ms", "faultsim.unit_ms_p99", "trace.overhead_frac", "a-b.c_9"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "latency ms", "cache/hits", "p90%", "naïve", "a\nb"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, m := range endToEndMetrics {
		if !validName(m.Name) {
			t.Errorf("end-to-end metric %q breaks the grammar", m.Name)
		}
	}
	for _, m := range perLayerMetrics {
		if !validName(m.Name) {
			t.Errorf("per-layer metric %q breaks the grammar", m.Name)
		}
	}
}

func TestTallyCountsEveryFailureMode(t *testing.T) {
	var total Tally
	total.Add(Tally{Attempted: 10, Errors: 1})
	total.Add(Tally{Attempted: 5, Refusals: 2})
	total.Add(Tally{Attempted: 5, Mismatches: 1})
	if total.Attempted != 20 || total.Failed() != 4 {
		t.Fatalf("tally = %+v, failed %d", total, total.Failed())
	}
	if got := total.FailedFrac(); got != 0.2 {
		t.Fatalf("FailedFrac = %g, want 0.2", got)
	}
	if (Tally{}).FailedFrac() != 0 {
		t.Fatal("an empty tally must report no failures")
	}
}

// TestBenchmarkJSONNamesTheReportedMetrics keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestAttributionAgainstTheWallClock(t *testing.T) {
	at := func(tr *tracer, ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// A root covering the whole wall clock, with one child: attributed.
	tr := &tracer{epoch: time.Now().Add(-100 * time.Millisecond)}
	root := tr.record("bench.run", -1, at(tr, 0), time.Now())
	tr.record("nn.ForwardDelta", root, at(tr, 1), at(tr, 99))
	if a := tr.attribute(); !a.ok() || a.SelfNs["nn"] != int64(98*time.Millisecond) {
		t.Fatalf("covered run: %+v ok=%v", a, a.ok())
	}
	// Half the wall clock outside every span: the self times cannot sum to it.
	tr = &tracer{epoch: time.Now().Add(-100 * time.Millisecond)}
	tr.record("nn.ForwardDelta", -1, at(tr, 0), at(tr, 50))
	if a := tr.attribute(); a.ok() {
		t.Fatalf("half-covered run passed: %+v", a)
	}
	// Overlapping roots, as two concurrent callers make: not nested.
	tr = &tracer{epoch: time.Now().Add(-100 * time.Millisecond)}
	tr.record("service.sweep", -1, at(tr, 0), at(tr, 80))
	tr.record("service.sweep", -1, at(tr, 20), at(tr, 100))
	if a := tr.attribute(); a.Nested || a.ok() {
		t.Fatalf("overlapping roots passed: %+v", a)
	}
}
