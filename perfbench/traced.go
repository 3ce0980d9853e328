package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	winofault "repro"
	"repro/internal/conv"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// The traced run executes a campaign one unit at a time through
// faultsim.Runner.UnitCounts and replays every unit through a mirror
// injector the benchmark owns. The mirror rebuilds faultsim's event stream
// from public functions only, so the per-layer figures can be trusted to
// describe the production stream exactly when, unit by unit, the mirror's
// agreement count equals the production count.

// mirror is a benchmark-side replica of one facade system: the same
// network, inputs and campaign options winofault.New builds for a default
// statistical result-flip campaign, with the runner exposed.
type mirror struct {
	Label    string
	Net      *nn.Network
	Runner   *faultsim.Runner
	Inputs   *tensor.QTensor
	Opts     faultsim.Options
	Rounds   int
	Fmt      fixed.Format
	Census   []fault.Census // per node, for the whole batch
	NodeKind []string       // per node: the span name its execution is recorded under
	golden   []int
	ec       *nn.ExecContext
}

// newMirror replicates winofault.New for cfg (defaults as the facade
// applies them). The traced run checks the replica against the facade: its
// counts must reduce to the facade's own sweep result.
func newMirror(cfg winofault.Config) (*mirror, error) {
	if cfg.WidthMult == 0 {
		cfg.WidthMult = 0.125
	}
	if cfg.InputSize == 0 {
		cfg.InputSize = 32
	}
	if cfg.Samples == 0 {
		cfg.Samples = 24
	}
	arch, err := models.ByName(cfg.Model, models.Options{WidthMult: cfg.WidthMult, InputSize: cfg.InputSize})
	if err != nil {
		return nil, err
	}
	full, err := models.ByName(cfg.Model, models.Options{})
	if err != nil {
		return nil, err
	}
	kind := nn.Direct
	if cfg.Engine == winofault.Winograd {
		kind = nn.Winograd
	}
	f := fixed.Int16
	net := models.Build(arch, nn.Config{Kind: kind, Tile: winograd.F2, ActFmt: f, WFmt: f, Seed: cfg.Seed ^ 0xabcdef})
	inputs := dataset.ForModel(arch.Dataset, cfg.Samples, arch.In.H, cfg.Seed^0x5eed, f).Batch(0, cfg.Samples)
	runner := faultsim.New(net, inputs)
	m := &mirror{
		Label:  cfg.Model + "/" + engineName(cfg.Engine),
		Net:    net,
		Runner: runner,
		Inputs: inputs,
		Opts: faultsim.Options{
			Semantics:       fault.ResultFlip,
			Seed:            cfg.Seed,
			Intensity:       models.IntensityFor(arch, full, kind, winograd.F2),
			NeuronIntensity: models.NeuronIntensityFor(arch, full),
			Workers:         1,
		},
		Rounds: cfg.Rounds,
		Fmt:    f,
		Census: net.LayerCensus(inputs.Shape),
		golden: runner.Golden(),
		ec:     net.NewExecContext(),
	}
	for _, nd := range net.Nodes {
		name := "nn.op"
		if c, ok := nd.Op.(*nn.ConvOp); ok {
			name = "conv.node"
			if c.IsWinograd() {
				name = "winograd.node"
			}
		}
		m.NodeKind = append(m.NodeKind, name)
	}
	return m, nil
}

// agree counts the predictions that match the golden ones.
func (m *mirror) agree(logits *tensor.QTensor) int {
	n := 0
	for i, p := range nn.Argmax(logits) {
		if p == m.golden[i] {
			n++
		}
	}
	return n
}

// mirrorInjector re-derives faultsim's statistical result-flip events for
// one (campaign, round) from public functions: the per-node stream
// rng.New(seed).Split(round).Split(node), fault.Sample against the model's
// paper-scale intensity, and conv.MarkResultFlip. With bracket set it also
// times every node of a ForwardCtx pass: a node runs between the previous
// node's Neuron call and its own.
type mirrorInjector struct {
	m      *mirror
	ber    float64 // <= 0: inject nothing
	round  *rng.Stream
	tr     *tracer
	parent int

	bracket    bool
	last       time.Time // end of the previous node
	sampleFrom time.Time
	sampleTo   time.Time
	events     []int           // per node, this pass
	nodeNs     []time.Duration // per node self time (sampling excluded), bracketed passes
	sampleNs   time.Duration
}

func newInjector(m *mirror, ber float64, round int, tr *tracer, parent int) *mirrorInjector {
	return &mirrorInjector{
		m: m, ber: ber, round: rng.New(m.Opts.Seed).Split(uint64(round)), tr: tr, parent: parent,
		events: make([]int, len(m.Net.Nodes)), nodeNs: make([]time.Duration, len(m.Net.Nodes)),
	}
}

func (in *mirrorInjector) OpEvents(li int, census fault.Census) []fault.Event {
	from := time.Now()
	var evs []fault.Event
	if in.ber > 0 {
		intensity := in.m.Opts.Intensity[li].Scale(float64(in.m.Inputs.Shape.N))
		evs = fault.Sample(in.round.Split(uint64(li)), census, intensity,
			fault.Model{BER: in.ber, Semantics: fault.ResultFlip}, in.m.Fmt, fault.Protection{})
		conv.MarkResultFlip(evs)
	}
	to := time.Now()
	in.events[li] = len(evs)
	in.sampleNs += to.Sub(from)
	if in.bracket {
		in.sampleFrom, in.sampleTo = from, to
	} else {
		in.tr.record("fault.OpEvents", in.parent, from, to)
	}
	return evs
}

func (in *mirrorInjector) Neuron(li int, _ *tensor.QTensor) {
	if !in.bracket {
		return
	}
	now := time.Now()
	node := in.tr.record(in.m.NodeKind[li], in.parent, in.last, now)
	self := now.Sub(in.last)
	if !in.sampleFrom.IsZero() {
		in.tr.record("fault.OpEvents", node, in.sampleFrom, in.sampleTo)
		self -= in.sampleTo.Sub(in.sampleFrom)
		in.sampleFrom = time.Time{}
	}
	in.nodeNs[li] = self
	in.last = time.Now()
}

// bracketedPass runs one full ForwardCtx with per-node timing.
func (m *mirror) bracketedPass(ctx *nn.ExecContext, in *mirrorInjector) *tensor.QTensor {
	in.bracket = true
	sp := in.tr.start("nn.ForwardCtx", in.parent)
	in.parent = sp
	in.last = time.Now()
	out := m.Net.ForwardCtx(ctx, m.Inputs, in)
	in.tr.end(sp)
	return out
}

// layerStats accumulates the per-layer figures over traced units.
type layerStats struct {
	units, cleanUnits         int
	events                    int64
	unitMs                    []float64
	sampleNs, recomputeNs     time.Duration
	recomputed, dirty         int
	replayNs                  map[string]time.Duration // extra node time of event-carrying nodes, by layer
	replayEvents              map[string]int64
	forwardMs                 []float64
	forwardMuls               float64
	forwardSec                float64
	emptyUs                   []float64
	recordedNs, bareNs        time.Duration // the same passes with a recording and a non-recording injector
	parallelWallNs            time.Duration
	mirrorMismatch, reduceBad int
}

func newLayerStats() *layerStats {
	return &layerStats{replayNs: map[string]time.Duration{}, replayEvents: map[string]int64{}}
}

// traceCampaign runs one campaign unit by unit and accumulates its figures.
// It returns the production per-unit counts.
func traceCampaign(ctx context.Context, m *mirror, bers []float64, tr *tracer, parent int, st *layerStats) []int {
	cspan := tr.start("bench.campaign", parent)
	tr.setGroup(cspan, m.Label)
	defer tr.end(cspan)
	cs := faultsim.SweepCampaigns(bers, m.Opts)
	n := faultsim.Units(cs, m.Rounds)

	// Fault-free references: the whole forward pass, the per-node times,
	// and the zero-event delta round (after the golden capture).
	for i := 0; i < 3; i++ {
		ec := m.Net.NewExecContext()
		sp := tr.start("kernel.forward", cspan) // sizes the arenas
		m.Net.ForwardCtx(ec, m.Inputs, nil)
		tr.end(sp)
		sp = tr.start("kernel.forward", cspan)
		t0 := time.Now()
		m.Net.ForwardCtx(ec, m.Inputs, nil)
		st.forwardMs = append(st.forwardMs, msSince(t0))
		tr.end(sp)
	}
	muls := 0.0
	for _, c := range m.Census {
		muls += float64(c.Mul)
	}
	fw := Median(st.forwardMs[len(st.forwardMs)-3:]).Value / 1000
	st.forwardMuls += muls
	st.forwardSec += fw
	sp := tr.start("nn.ForwardDelta", cspan) // golden-plane capture
	m.Net.ForwardDelta(m.ec, m.Inputs, nil)
	tr.end(sp)
	for i := 0; i < 20; i++ {
		in := newInjector(m, 0, 0, tr, -1)
		sp := tr.start("nn.ForwardDelta", cspan)
		in.parent = sp
		t0 := time.Now()
		m.Net.ForwardDelta(m.ec, m.Inputs, in)
		st.emptyUs = append(st.emptyUs, float64(time.Since(t0))/1e3)
		tr.end(sp)
	}

	counts := make([]int, n)
	bracketEc := m.Net.NewExecContext()
	sp = tr.start("kernel.forward", cspan) // sizes the bracketed passes' arenas
	m.Net.ForwardCtx(bracketEc, m.Inputs, nil)
	tr.end(sp)
	for u := 0; u < n; u++ {
		uspan := tr.start("bench.unit", cspan)
		sp := tr.start("faultsim.UnitCounts", uspan)
		t1 := time.Now()
		counts[u] = m.Runner.UnitCounts(ctx, cs, m.Rounds, u, u+1)[0]
		st.unitMs = append(st.unitMs, msSince(t1))
		tr.end(sp)

		ber, round := cs[u/m.Rounds].BER, u%m.Rounds
		// The tracer's cost: the same delta pass once with the recording
		// injector and once with one that records nothing, alternating
		// which runs first so neither always finds the caches warm.
		bare := func() {
			sp := tr.start("trace.reference", uspan)
			t := time.Now()
			if m.agree(m.Net.ForwardDelta(m.ec, m.Inputs, newInjector(m, ber, round, nil, -1))) != counts[u] {
				st.mirrorMismatch++
			}
			st.bareNs += time.Since(t)
			tr.end(sp)
		}
		if u%2 == 1 {
			bare()
		}
		in := newInjector(m, ber, round, tr, -1)
		sp = tr.start("nn.ForwardDelta", uspan)
		in.parent = sp
		t2 := time.Now()
		agree := m.agree(m.Net.ForwardDelta(m.ec, m.Inputs, in))
		deltaNs := time.Since(t2)
		tr.end(sp)
		st.recordedNs += deltaNs
		if agree != counts[u] {
			st.mirrorMismatch++
		}
		if u%2 == 0 {
			bare()
		}
		st.units++
		st.sampleNs += in.sampleNs
		st.recomputeNs += deltaNs - in.sampleNs
		st.recomputed += m.ec.RecomputeCount()
		st.dirty += m.ec.DirtyCount()
		evs := int64(0)
		for _, e := range in.events {
			evs += int64(e)
		}
		st.events += evs
		if evs == 0 {
			st.cleanUnits++
			tr.end(uspan)
			continue
		}
		// Per-event replay cost: the unit as a full bracketed pass, each
		// event-carrying node compared with the same node in a fault-free
		// bracketed pass run just before, so that both see the same host.
		clean := newInjector(m, 0, 0, tr, uspan)
		m.bracketedPass(bracketEc, clean)
		bin := newInjector(m, ber, round, tr, uspan)
		t3 := time.Now()
		if m.agree(m.bracketedPass(bracketEc, bin)) != counts[u] {
			st.mirrorMismatch++
		}
		st.recordedNs += time.Since(t3)
		// The same faulty pass unbracketed, with a non-recording injector.
		sp = tr.start("trace.reference", uspan)
		t4 := time.Now()
		if m.agree(m.Net.ForwardCtx(bracketEc, m.Inputs, newInjector(m, ber, round, nil, -1))) != counts[u] {
			st.mirrorMismatch++
		}
		st.bareNs += time.Since(t4)
		tr.end(sp)
		for li, e := range bin.events {
			if e == 0 || m.NodeKind[li] == "nn.op" {
				continue
			}
			l := m.NodeKind[li][:len(m.NodeKind[li])-len(".node")]
			st.replayNs[l] += bin.nodeNs[li] - clean.nodeNs[li]
			st.replayEvents[l] += int64(e)
		}
		tr.end(uspan)
	}
	return counts
}

// traceSweep is the traced run of a sweep workload.
func traceSweep(ctx context.Context, spec sweepSpec, o runOpts, cs []*sweepCampaign, newMs []float64, res *Result) error {
	st := newLayerStats()
	// The end-to-end reference for parallel efficiency: one untraced pass
	// at the default worker count.
	t0 := time.Now()
	for _, c := range cs {
		pts, err := c.Sys.SweepCtx(ctx, spec.BERs)
		res.Tally.Attempted++
		if err != nil {
			res.Tally.Errors++
		} else if !samePoints(pts, c.Ref) {
			res.Tally.Mismatches++
		}
	}
	st.parallelWallNs = time.Since(t0)

	tr := newTracer()
	root := tr.start("bench.run", -1)
	for _, c := range cs {
		sp := tr.start("models.build", root)
		m, err := newMirror(c.Cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		counts := traceCampaign(ctx, m, spec.BERs, tr, root, st)
		// The traced counts re-derive the facade's result bit for bit.
		pts, err := c.Sys.SweepFromCounts(spec.BERs, counts)
		res.Tally.Attempted++
		if err != nil {
			res.Tally.Errors++
		} else if !samePoints(pts, c.Ref) {
			res.Tally.Mismatches++
			st.reduceBad++
		}
	}
	tr.end(root)
	res.set("winofault.new_ms", Median(newMs).Value, Median(newMs).String())
	computeLayerMetrics(st, res)
	return finishTrace(tr, o, res)
}

// computeLayerMetrics turns the accumulated unit figures into metrics.
func computeLayerMetrics(st *layerStats, res *Result) {
	units := float64(st.units)
	base := fmt.Sprintf("over %d units", st.units)
	res.set("faultsim.units", units, "traced units")
	res.setQ("faultsim.unit_ms_p50", Median(st.unitMs))
	res.setQ("faultsim.unit_ms_p99", Tail(st.unitMs, 99))
	if st.parallelWallNs > 0 {
		workers := float64(runtime.GOMAXPROCS(0))
		res.set("faultsim.parallel_eff", ratio(sum(st.unitMs)*1e6, float64(st.parallelWallNs)*workers),
			fmt.Sprintf("serial unit time over %.0f workers x untraced wall", workers))
	}
	res.set("fault.events_per_unit", ratio(float64(st.events), units), fmt.Sprintf("%d events %s", st.events, base))
	res.set("fault.sample_us_per_unit", ratio(float64(st.sampleNs)/1e3, units), base)
	res.set("nn.clean_unit_frac", ratio(float64(st.cleanUnits), units), fmt.Sprintf("%d clean of %d units", st.cleanUnits, st.units))
	res.set("nn.recomputed_nodes_per_unit", ratio(float64(st.recomputed), units), base)
	res.set("nn.dirty_nodes_per_unit", ratio(float64(st.dirty), units), base)
	res.set("nn.reconverge_ratio", ratio(float64(st.recomputed-st.dirty), float64(st.recomputed)), fmt.Sprintf("of %d recomputed nodes", st.recomputed))
	res.set("nn.recompute_ms_per_unit", ratio(float64(st.recomputeNs)/1e6, units), base)
	res.setQ("nn.empty_round_us", Median(st.emptyUs))
	res.setQ("kernel.forward_ms", Median(st.forwardMs))
	res.set("kernel.gmac_per_s", ratio(st.forwardMuls/1e9, st.forwardSec), "multiplication census over fault-free forward time")
	for _, l := range []string{"conv", "winograd"} {
		res.set(l+".replay_ms_per_unit", ratio(float64(st.replayNs[l])/1e6, units), base)
		res.set(l+".replay_us_per_event", ratio(float64(st.replayNs[l])/1e3, float64(st.replayEvents[l])), fmt.Sprintf("%d events", st.replayEvents[l]))
	}
	res.set("trace.overhead_frac", ratio(float64(st.recordedNs), float64(st.bareNs))-1,
		fmt.Sprintf("mirror passes with the recording injector (%.3fs) vs a non-recording one (%.3fs)",
			st.recordedNs.Seconds(), st.bareNs.Seconds()))
	res.Checks["mirror_injector"] = st.mirrorMismatch == 0 && st.reduceBad == 0 && st.units > 0
	if st.mirrorMismatch > 0 {
		res.Tally.Mismatches += st.mirrorMismatch
	}
}

// finishTrace checks the attribution and writes the spans out.
func finishTrace(tr *tracer, o runOpts, res *Result) error {
	a := tr.attribute()
	res.set("trace.unattributed_frac", a.unattributed(),
		fmt.Sprintf("bench self time %.3fs of %.3fs traced wall; self-time sum %.3fs; tolerance %g",
			float64(a.BenchNs)/1e9, float64(a.WallNs)/1e9, float64(a.SumNs)/1e9, attributionTolerance))
	res.Checks["attribution"] = a.ok()
	for l, ns := range a.SelfNs {
		res.Notes["self_s."+l] = fmt.Sprintf("%.4f", float64(ns)/1e9)
	}
	return tr.write(traceFile(o, ""))
}

// traceFile is where a traced run's spans are written.
func traceFile(o runOpts, suffix string) string {
	return filepath.Join(o.OutDir, fmt.Sprintf("trace-%s-%d%s.json", o.Name, o.Seed, suffix))
}
