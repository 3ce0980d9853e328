package nn

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// Delta execution (see DESIGN.md "Delta execution"): a fault round differs
// from the golden run only where its fault events reach. Every op is a
// deterministic function of its inputs and events, and independent across
// the samples of the batch, so a (node, sample) slice with no events whose
// input slices are all clean produces exactly the golden activation — the
// round only needs to recompute the fault cone, tracked per (node, sample),
// and can reuse the cached golden activation everywhere else.
//
// Soundness rests on two existing contracts:
//
//   - Event purity: injectors derive each node's events from per-node rng
//     splits of the (seed, round) stream, and splitting never advances the
//     parent, so collecting all events up front (to know the dirty set
//     before executing) yields bit-identical events to the interleaved
//     collection ForwardCtx performs.
//   - Replay ordering: a recomputed node receives the exact event slice the
//     injector produced, so the engine applies the events in the same
//     per-op order as a full pass — recomputed activations are bit-identical,
//     not merely statistically equivalent.

// goldenPlane is the per-context cache of golden (fault-free) per-node
// activations, captured once per (context, input) and reused across the
// thousands of Monte-Carlo rounds of a campaign.
type goldenPlane struct {
	acts []*tensor.QTensor // private copies; never aliased by op scratch
	in   *tensor.QTensor   // the input the plane was captured for
}

// deltaState is the reusable per-round working set of ForwardDelta.
type deltaState struct {
	events     [][]fault.Event // per-node events of the current round
	rows       []tensor.Rows   // per-node dirty samples: the round's fault cone
	dirty      []bool          // per-node: some sample is still dirty
	recomputed int             // Op.Forward calls the last round made
	samples    int             // (node, sample) slices the last round recomputed
}

// captureGolden runs one full fault-free pass and snapshots every node's
// activation into the context's golden plane. Buffers are allocated on the
// first capture and recycled when the plane is re-captured for a new input
// of the same geometry.
func (c *ExecContext) captureGolden(in *tensor.QTensor) {
	n := c.net
	if c.golden.acts == nil || len(c.golden.acts) != len(n.Nodes) {
		c.golden.acts = make([]*tensor.QTensor, len(n.Nodes))
	}
	if c.delta.events == nil || len(c.delta.events) != len(n.Nodes) {
		c.delta.events = make([][]fault.Event, len(n.Nodes))
		c.delta.dirty = make([]bool, len(n.Nodes))
		c.delta.rows = make([]tensor.Rows, len(n.Nodes))
		for i := range c.delta.rows {
			c.delta.rows[i] = make(tensor.Rows, in.Shape.N)
		}
	}
	n.ForwardCtx(c, in, nil)
	for i := range n.Nodes {
		dst := c.golden.acts[i]
		src := c.acts[i]
		if dst == nil || dst.Shape != src.Shape || dst.Fmt != src.Fmt {
			dst = tensor.NewQ(src.Shape, src.Fmt)
			c.golden.acts[i] = dst
		}
		copy(dst.Data, src.Data)
	}
	c.golden.in = in
}

// InvalidateGolden drops the cached golden plane, forcing the next
// ForwardDelta call to re-capture it. Needed only when the contents of the
// input tensor change in place; passing a different tensor (or a different
// shape) re-captures automatically.
func (c *ExecContext) InvalidateGolden() { c.golden.in = nil }

// ForwardDelta runs the network like ForwardCtx but recomputes only the
// fault cone of the round, per (node, sample): a sample of a node is dirty
// when one of the node's events falls in it or that sample of an input node
// is still dirty, and each dirty node recomputes only its dirty samples.
// Everything else reuses the context's cached golden activations, so a
// round with few (or no) events costs a small fraction of a full pass while
// remaining bit-identical to ForwardCtx — the engines are deterministic and
// every op is independent across samples, so a slice outside the cone can
// only ever hold its golden value.
//
// Contract: inj must inject exclusively through OpEvents (its Neuron method
// must be a no-op) — neuron-level semantics corrupt activations behind the
// graph's back, where no event stream locates the damage, so those campaigns
// must use ForwardCtx. The input tensor must not be mutated between calls
// with the same context; a different tensor (by pointer or shape) triggers a
// fresh golden capture, an in-place mutation requires InvalidateGolden.
//
// A nil inj returns the golden output directly (capturing the plane if
// needed). The returned tensor remains valid until the next Forward*/
// InvalidateGolden call on the same context.
func (n *Network) ForwardDelta(ctx *ExecContext, in *tensor.QTensor, inj Injector) *tensor.QTensor {
	if ctx.net != n {
		panic("nn: ExecContext bound to a different network")
	}
	ctx.prepare(in.Shape)
	if ctx.golden.in != in {
		ctx.captureGolden(in)
	}
	ctx.delta.recomputed, ctx.delta.samples = 0, 0
	if inj == nil {
		return ctx.golden.acts[n.Output]
	}

	// Collect the round's events node by node, in node order — the same
	// calls, against the same per-node streams, a full pass would make —
	// and seed each node's dirty samples with the samples its events fall in.
	events, rows, dirty := ctx.delta.events, ctx.delta.rows, ctx.delta.dirty
	any := false
	for i := range n.Nodes {
		var evs []fault.Event
		if ctx.hasOps[i] {
			evs = inj.OpEvents(i, ctx.census[i])
		}
		events[i] = evs
		if dirty[i] {
			// Only a node left dirty by the previous round has a dirty sample.
			clear(rows[i])
			dirty[i] = false
		}
		for _, ev := range evs {
			rows[i][n.Nodes[i].Op.EventSample(ctx.inShapes[i], ev)] = true
		}
		any = any || len(evs) > 0
	}
	if !any {
		return ctx.golden.acts[n.Output]
	}

	// Close the cone downstream, sample by sample: inputs always precede
	// consumers in the topological node order, and an input's rows have
	// already been thinned by re-convergence when a consumer reads them.
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		r := rows[i]
		for _, idx := range nd.Inputs {
			if idx != InputNode && dirty[idx] {
				for s, d := range rows[idx] {
					r[s] = r[s] || d
				}
			}
		}
		if !slices.Contains(r, true) {
			ctx.acts[i] = ctx.golden.acts[i]
			continue
		}
		ins := ctx.ins[i]
		for j, idx := range nd.Inputs {
			if idx == InputNode {
				ins[j] = in
			} else {
				ins[j] = ctx.acts[idx]
			}
		}
		out := nd.Op.Forward(ctx.scratch[i], ins, events[i], r)
		ctx.delta.recomputed++
		ctx.delta.samples += settle(out, ctx.golden.acts[i], r)
		if dirty[i] = slices.Contains(r, true); dirty[i] {
			ctx.acts[i] = out
		} else {
			// Every recomputed sample re-converged: publishing the golden
			// tensor keeps the invariant that clean consumers read the plane.
			ctx.acts[i] = ctx.golden.acts[i]
		}
	}
	return ctx.acts[n.Output]
}

// settle completes an output that Forward computed only on the samples in
// rows, against the golden activation g, and returns how many samples were
// recomputed. Samples outside rows take their golden slice. A recomputed
// sample that equals its golden slice bit for bit re-converged and leaves
// rows: faults are often masked within a layer or two (ReLU clamps
// negatives, maxpool discards non-maxima, saturating quantization rounds
// small perturbations away), and the compare is a linear scan, negligible
// against any conv. Every op's output is sample-major, so a sample is one
// contiguous slice.
func settle(out, g *tensor.QTensor, rows tensor.Rows) int {
	per := out.Shape.SampleElems()
	recomputed := 0
	for s, d := range rows {
		lo, hi := s*per, (s+1)*per
		if !d {
			copy(out.Data[lo:hi], g.Data[lo:hi])
			continue
		}
		recomputed++
		if slices.Equal(out.Data[lo:hi], g.Data[lo:hi]) {
			rows[s] = false
		}
	}
	return recomputed
}

// RecomputeCount reports how many Op.Forward calls the last ForwardDelta
// round made: the nodes with at least one dirty sample once re-convergence
// upstream has thinned the cone (diagnostics and tests only).
func (c *ExecContext) RecomputeCount() int { return c.delta.recomputed }

// RecomputedSamples reports how many (node, sample) slices the last
// ForwardDelta round recomputed, summed over its RecomputeCount nodes
// (diagnostics and tests only).
func (c *ExecContext) RecomputedSamples() int { return c.delta.samples }

// DirtyCount reports how many nodes remained dirty after the last
// ForwardDelta round, i.e. the fault cone minus the nodes whose recomputed
// activations re-converged to golden (diagnostics and tests only).
func (c *ExecContext) DirtyCount() int {
	count := 0
	for _, d := range c.delta.dirty {
		if d {
			count++
		}
	}
	return count
}
