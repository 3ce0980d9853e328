package nn

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// randomEvents draws k fault events uniformly over census c, mixing op
// classes and operand-flip / result-flip semantics (result flips carry the
// engines' 0x80 marker), including coincident duplicates.
func randomEvents(r *rng.Stream, c fault.Census, k int) []fault.Event {
	var evs []fault.Event
	for i := 0; i < k && c.Total() > 0; i++ {
		if i > 0 && r.Intn(8) == 0 {
			evs = append(evs, evs[r.Intn(len(evs))])
			continue
		}
		cl := fault.OpMul
		if c.Mul == 0 || (c.Add > 0 && r.Intn(2) == 1) {
			cl = fault.OpAdd
		}
		ev := fault.Event{Class: cl, Op: r.Int63n(c.Class(cl)), Bit: uint8(r.Intn(16)), Operand: uint8(r.Intn(2))}
		if r.Intn(2) == 0 {
			ev.Bit = uint8(r.Intn(32))
			ev.Operand = 0x80
		}
		evs = append(evs, ev)
	}
	return evs
}

// randomRows draws a sample mask over n samples.
func randomRows(r *rng.Stream, n int) tensor.Rows {
	rows := make(tensor.Rows, n)
	for s := range rows {
		rows[s] = r.Intn(2) == 1
	}
	return rows
}

// rowsCase is one op under the per-sample row contract, with its inputs.
type rowsCase struct {
	name string
	op   Op
	ins  []*tensor.QTensor
}

func rowsCases() []rowsCase {
	root := rng.New(91)
	f := fixed.Int16
	const n = 5
	in := qIn(92, n, 3, 11, 11, f)
	conv := func(kind EngineKind, tile *winograd.Tile, name string, k, stride, pad int) rowsCase {
		w, bias := HeWeights(root, name, 4, 3, k, k)
		return rowsCase{name, NewConv(w, bias, stride, pad, kind, tile, f, f), []*tensor.QTensor{in}}
	}
	fcW, fcB := HeWeights(root, "fc", 7, 20, 1, 1)
	return []rowsCase{
		conv(Direct, nil, "conv-direct-3x3", 3, 1, 1),
		conv(Direct, nil, "conv-direct-3x3-s2", 3, 2, 1),
		{"fc", NewFC(fcW, fcB, f, f), []*tensor.QTensor{qIn(93, n, 20, 1, 1, f)}},
		conv(Winograd, winograd.F2, "conv-wg-f2-3x3", 3, 1, 1),
		conv(Winograd, winograd.F4, "conv-wg-f4-3x3", 3, 1, 1),
		conv(Winograd, winograd.F2, "conv-dwm-3x3-s2", 3, 2, 1),
		conv(Winograd, winograd.F2, "conv-dwm-7x7-s2", 7, 2, 3),
		{"maxpool", MaxPool{K: 3, Stride: 2, Pad: 1}, []*tensor.QTensor{in}},
		{"avgpool", AvgPool{K: 3, Stride: 2, Pad: 1}, []*tensor.QTensor{in}},
		{"gap", GlobalAvgPool{}, []*tensor.QTensor{in}},
		{"add", Add{}, []*tensor.QTensor{in, qIn(94, n, 3, 11, 11, f)}},
		{"concat", Concat{}, []*tensor.QTensor{in, qIn(95, n, 2, 11, 11, f)}},
		{"flatten", Flatten{}, []*tensor.QTensor{in}},
		{"relu", ReLU{}, []*tensor.QTensor{in}},
	}
}

// TestForwardRowsMatchesFull is the per-op differential test of the row
// contract delta execution relies on: with random sample masks and random
// events, a masked Forward completed by settle equals the full faulty
// Forward on the computed samples and the golden output elsewhere. The
// scratch is reused across trials, so rows left stale by an earlier trial
// or a skipped sample's events leaking into a computed one would surface.
func TestForwardRowsMatchesFull(t *testing.T) {
	for _, tc := range rowsCases() {
		t.Run(tc.name, func(t *testing.T) {
			shapes := make([]tensor.Shape, len(tc.ins))
			for i, in := range tc.ins {
				shapes[i] = in.Shape
			}
			census := tc.op.Census(shapes)
			golden := tc.op.Forward(nil, tc.ins, nil, nil)
			r := rng.New(uint64(len(tc.name)))
			sc := &Scratch{}
			for trial := 0; trial < 12; trial++ {
				evs := randomEvents(r, census, r.Intn(6))
				rows := randomRows(r, golden.Shape.N)
				full := tc.op.Forward(nil, tc.ins, evs, nil)
				masked := tc.op.Forward(sc, tc.ins, evs, rows)
				settle(masked, golden, append(tensor.Rows(nil), rows...))
				per := golden.Shape.SampleElems()
				for s, on := range rows {
					want := golden
					if on {
						want = full
					}
					for i := s * per; i < (s+1)*per; i++ {
						if masked.Data[i] != want.Data[i] {
							t.Fatalf("trial %d sample %d (computed %v): element %d = %d, want %d",
								trial, s, on, i, masked.Data[i], want.Data[i])
						}
					}
				}
			}
		})
	}
}

// TestEventSampleMatchesDamage checks each op's event→sample map against
// the damage the event actually does: a single high-bit result flip changes
// output elements of its own sample only.
func TestEventSampleMatchesDamage(t *testing.T) {
	for _, tc := range rowsCases() {
		shapes := make([]tensor.Shape, len(tc.ins))
		for i, in := range tc.ins {
			shapes[i] = in.Shape
		}
		census := tc.op.Census(shapes)
		if census.Total() == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			golden := tc.op.Forward(nil, tc.ins, nil, nil)
			per := golden.Shape.SampleElems()
			r := rng.New(5)
			for trial := 0; trial < 40; trial++ {
				ev := randomEvents(r, census, 1)[0]
				ev.Bit, ev.Operand = 14, 0x80
				s := tc.op.EventSample(shapes, ev)
				out := tc.op.Forward(nil, tc.ins, []fault.Event{ev}, nil)
				for i, v := range out.Data {
					if v != golden.Data[i] && i/per != s {
						t.Fatalf("%v: EventSample says sample %d, element %d of sample %d changed", ev, s, i, i/per)
					}
				}
			}
		})
	}
}

// TestForwardDeltaOneSampleCone: one event in sample 2 of a 4-sample batch
// makes a cone one sample wide — every recomputed node recomputes exactly
// one sample slice — and the logits still match a full pass.
func TestForwardDeltaOneSampleCone(t *testing.T) {
	for _, kind := range []EngineKind{Direct, Winograd} {
		t.Run(kind.String(), func(t *testing.T) {
			net := buildTiny(kind, 17, fixed.Int16)
			in := qIn(47, 4, 3, 16, 16, fixed.Int16)
			ctx := net.NewExecContext()
			conv1 := nodeByName(t, net, "conv1")
			c := net.LayerCensus(in.Shape)[conv1]
			ev := fault.Event{Class: fault.OpMul, Op: 2*c.Mul/4 + 77, Bit: 30, Operand: 0x80}
			if s := net.Nodes[conv1].Op.EventSample([]tensor.Shape{in.Shape}, ev); s != 2 {
				t.Fatalf("event placed in sample %d, want 2", s)
			}
			inj := &mapInjector{events: map[int][]fault.Event{conv1: {ev}}}
			got := net.ForwardDelta(ctx, in, inj)
			if !equalQ(got, net.ForwardCtx(net.NewExecContext(), in, inj)) {
				t.Error("one-sample cone: delta logits diverge from ForwardCtx")
			}
			if ctx.RecomputeCount() == 0 {
				t.Fatal("the event recomputed nothing")
			}
			if got, want := ctx.RecomputedSamples(), ctx.RecomputeCount(); got != want {
				t.Errorf("recomputed %d sample slices over %d nodes, want one per node", got, want)
			}
		})
	}
}

// FuzzForwardDelta: for any seed, batch size and event draw on the tiny
// networks, ForwardDelta logits equal ForwardCtx's. Two rounds run back to
// back on one context, so state a dirty round leaves behind is exercised too.
func FuzzForwardDelta(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), false)
	f.Add(uint64(2), uint8(4), uint8(3), true)
	f.Add(uint64(3), uint8(3), uint8(40), false)
	f.Add(uint64(4), uint8(5), uint8(40), true)
	nets := map[bool]*Network{false: buildTiny(Direct, 17, fixed.Int16), true: buildTiny(Winograd, 17, fixed.Int16)}
	f.Fuzz(func(t *testing.T, seed uint64, batch, draws uint8, wg bool) {
		net := nets[wg]
		in := qIn(seed, int(batch%5)+1, 3, 16, 16, fixed.Int16)
		census := net.LayerCensus(in.Shape)
		r := rng.New(seed)
		ctx := net.NewExecContext()
		for round := 0; round < 2; round++ {
			events := map[int][]fault.Event{}
			for i := 0; i < int(draws%48); i++ {
				li := r.Intn(len(net.Nodes))
				events[li] = append(events[li], randomEvents(r, census[li], 1)...)
			}
			inj := &mapInjector{events: events}
			got := net.ForwardDelta(ctx, in, inj)
			want := net.ForwardCtx(net.NewExecContext(), in, inj)
			if !equalQ(got, want) {
				t.Fatalf("round %d: %s", round, fmt.Sprint(events))
			}
		}
	})
}
