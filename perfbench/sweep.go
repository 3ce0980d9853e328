package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	winofault "repro"
)

// sweepSpec is one sweep workload: every (model, engine) pair is one
// campaign over the same BER list.
type sweepSpec struct {
	Models  []string
	Engines []winofault.Engine
	BERs    []float64
	Rounds  int
}

// sparseSpec sits at the BERs the golden fixtures pin: most units carry no
// event or a few, so time goes to sampling, the dirty-set scan and narrow
// fault cones — the regime delta execution targets. A dense counterpart
// (vgg19 at BER 1e-8..1e-7) was dropped: see README.md.
var sparseSpec = sweepSpec{
	Models:  []string{"vgg19", "resnet50"},
	Engines: []winofault.Engine{winofault.Direct, winofault.Winograd},
	BERs:    []float64{1e-12, 1e-11, 1e-10},
	Rounds:  6,
}

const (
	// setupRepeats is how often set-up is repeated; setup_s is the median.
	setupRepeats = 3
	// hitRepeats is how many hit samples each campaign yields per pass.
	hitRepeats = 10
	// hitBatch is how many back-to-back re-deliveries one hit sample
	// averages. A single one takes about a microsecond, too close to the
	// cost of reading the clock. Each allocates a few kilobytes, so larger
	// batches would set off collections during the timed passes.
	hitBatch = 200
)

// campaignSeed maps the workload seed onto the campaign seed (never 0,
// which the facade reads as "default").
func campaignSeed(seed uint64) uint64 { return seed*1000003 + 17 }

// sweepCampaign is one (model, engine) campaign and its reference.
type sweepCampaign struct {
	Label  string
	Cfg    winofault.Config
	Sys    *winofault.System
	Counts []int             // per-unit agreement counts from SweepUnitCounts
	Ref    []winofault.Point // SweepFromCounts over Counts
}

func (spec sweepSpec) configs(seed uint64) []winofault.Config {
	var cfgs []winofault.Config
	for _, m := range spec.Models {
		for _, e := range spec.Engines {
			cfgs = append(cfgs, winofault.Config{Model: m, Engine: e, Rounds: spec.Rounds, Seed: campaignSeed(seed)})
		}
	}
	return cfgs
}

func engineName(e winofault.Engine) string {
	if e == winofault.Winograd {
		return "winograd"
	}
	return "direct"
}

// buildSystems is the timed set-up of a sweep workload: build every system
// and warm it. Warming runs one near-zero-BER unit per scheduler worker,
// which captures each worker's golden plane and sizes its scratch arenas
// without timing any fault work.
func buildSystems(ctx context.Context, spec sweepSpec, seed uint64) ([]*sweepCampaign, []float64, error) {
	var cs []*sweepCampaign
	var newMs []float64
	warm := make([]float64, runtime.GOMAXPROCS(0))
	for i := range warm {
		warm[i] = 1e-30
	}
	for _, cfg := range spec.configs(seed) {
		t0 := time.Now()
		sys, err := winofault.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		newMs = append(newMs, msSince(t0))
		if _, err := sys.SweepUnitCounts(ctx, warm, 0, sys.SweepUnits(warm)); err != nil {
			return nil, nil, err
		}
		cs = append(cs, &sweepCampaign{Label: cfg.Model + "/" + engineName(cfg.Engine), Cfg: cfg, Sys: sys})
	}
	return cs, newMs, nil
}

// setupSweep builds the workload setupRepeats times and keeps the last set.
func setupSweep(ctx context.Context, spec sweepSpec, seed uint64, res *Result) ([]*sweepCampaign, []float64, error) {
	var setups, newMs []float64
	var cs []*sweepCampaign
	for i := 0; i < setupRepeats; i++ {
		cs = nil
		runtime.GC() // the previous set is garbage; do not bill its collection to this one
		t0 := time.Now()
		var err error
		var nm []float64
		cs, nm, err = buildSystems(ctx, spec, seed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		newMs = append(newMs, nm...)
	}
	res.setQ("setup_s", Median(setups))
	return cs, newMs, nil
}

// reference derives each campaign's expected points the second way the
// facade offers: unit counts over the whole unit space, then the reduce.
func reference(ctx context.Context, spec sweepSpec, cs []*sweepCampaign) error {
	for _, c := range cs {
		counts, err := c.Sys.SweepUnitCounts(ctx, spec.BERs, 0, c.Sys.SweepUnits(spec.BERs))
		if err != nil {
			return fmt.Errorf("%s: reference counts: %w", c.Label, err)
		}
		ref, err := c.Sys.SweepFromCounts(spec.BERs, counts)
		if err != nil {
			return fmt.Errorf("%s: reference reduce: %w", c.Label, err)
		}
		c.Counts, c.Ref = counts, ref
	}
	return nil
}

// samePoints compares two sweeps bit for bit.
func samePoints(a, b []winofault.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// runSweep runs a sweep workload: timed passes for the end-to-end run, the
// traced unit-at-a-time run otherwise.
func runSweep(ctx context.Context, spec sweepSpec, o runOpts) (*Result, error) {
	res := newResult(o.Name)
	cs, newMs, err := setupSweep(ctx, spec, o.Seed, res)
	if err != nil {
		return nil, err
	}
	if err := reference(ctx, spec, cs); err != nil {
		return nil, err
	}
	if o.Trace {
		return res, traceSweep(ctx, spec, o, cs, newMs, res)
	}
	var passes, hit []float64
	perCampaign := make([][]float64, len(cs))
	pts := make([][]winofault.Point, len(cs))
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < o.Seconds {
		p0 := time.Now()
		for ci, c := range cs {
			t0 := time.Now()
			var err error
			pts[ci], err = c.Sys.SweepCtx(ctx, spec.BERs)
			perCampaign[ci] = append(perCampaign[ci], msSince(t0))
			res.Tally.Attempted++
			switch {
			case err != nil:
				res.Tally.Errors++
				pts[ci] = nil
			case !samePoints(pts[ci], c.Ref):
				res.Tally.Mismatches++
			}
		}
		passes = append(passes, time.Since(p0).Seconds())
		// Re-deliveries run after the pass, outside its timer. Each batch
		// must reproduce this pass's SweepCtx output, a different code path
		// from the reduce it times; one batch is one attempted operation.
		// A re-delivery is mostly allocation: after a collection it reuses
		// freed memory, without one it faults in fresh pages and reads up
		// to twice as slow. Collecting first gives every pass's samples the
		// same heap. One collection keeps the runners' pooled execution
		// contexts (a pool empties on the second), and the next pass
		// returns them to the pool.
		runtime.GC()
		for ci, c := range cs {
			for h := 0; h < hitRepeats; h++ {
				got := make([][]winofault.Point, hitBatch)
				errs := make([]error, hitBatch)
				t1 := time.Now()
				for b := range got {
					got[b], errs[b] = c.Sys.SweepFromCounts(spec.BERs, c.Counts)
				}
				hit = append(hit, msSince(t1)/hitBatch)
				res.Tally.Attempted++
				bad, failed := pts[ci] == nil, false
				for b := range got {
					failed = failed || errs[b] != nil
					bad = bad || !samePoints(got[b], pts[ci])
				}
				switch {
				case failed:
					res.Tally.Errors++
				case bad:
					res.Tally.Mismatches++
				}
			}
		}
	}
	// Measured once, after the last pass: its two collections empty the
	// runners' pools, which would make the next pass re-capture their
	// golden planes.
	heap := liveHeapMB()
	runtime.KeepAlive(cs)

	// Every pass repeats the same campaigns, so one campaign's passes are
	// repeated measurements of one latency, not independent samples: each
	// campaign contributes the median of its passes.
	// The campaigns differ in cost, so the latency figure is their
	// Midpoint, the mean of the middle two: nearest rank would report one
	// campaign's latency, and with it that campaign's noise alone.
	var cold []float64
	for _, ms := range perCampaign {
		cold = append(cold, Median(ms).Value)
	}
	q := Median(passes)
	res.set("sweep_s", q.Value, fmt.Sprintf("median of %d passes of %d campaigns", q.N, len(cs)))
	res.set("campaigns_per_s", float64(len(cs)*len(passes))/sum(passes), fmt.Sprintf("%d campaigns", len(cs)*len(passes)))
	res.set("cold_p50_ms", Midpoint(cold), fmt.Sprintf("midpoint of %d campaigns, each the median of its %d passes", len(cold), len(passes)))
	// Four campaigns leave no sample beyond any percentile above the
	// median, so the percentile rule degrades cold_p90_ms to it.
	res.set("cold_p90_ms", Midpoint(cold), fmt.Sprintf("p50: the percentile rule's fallback for %d campaigns", len(cold)))
	res.setQ("hit_p50_ms", Median(hit))
	res.setQ("hit_p90_ms", Tail(hit, 90))
	res.set("live_heap_mb", heap, "after two forced GCs at the end of the timed phase")
	return res, nil
}

// liveHeapMB reports the heap a run retains, in MiB. Two collections empty
// every sync.Pool, so pooled execution contexts, whose survival depends on
// when the runtime last collected, never count: the figure is the systems,
// caches and traces the process keeps between campaigns.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
