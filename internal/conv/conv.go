// Package conv implements standard (direct) convolution over quantized
// tensors: the fast fault-free path, the exact operation census used by the
// statistical fault sampler, and the bit-exact replay path that applies
// sampled fault events to individual multiply/accumulate operations.
//
// Operation ordering (the contract between Census and fault replay):
//
//	mul index  = ((((n·OC+oc)·OH+oy)·OW+ox)·K + k,   k over (ic,ky,kx) row-major
//	add index  = (((n·OC+oc)·OH+oy)·OW+ox)·A + s
//
// where K = IC·KH·KW products feed each output, and A = K-1 accumulation adds
// plus one bias add when a bias is present. Add step s<K-1 merges product s+1
// into the running partial; the final step adds the bias.
package conv

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Params holds the immutable configuration of one convolution layer.
type Params struct {
	Weight *tensor.QTensor // Shape{N: outC, C: inC, H: kh, W: kw}
	BiasF  []float64       // per-out-channel bias in real units; nil for none
	Stride int
	Pad    int
	OutFmt fixed.Format
}

// NewParams quantizes a float weight tensor into wFmt and bundles the layer
// configuration. The bias stays in real units and is requantized per call to
// the accumulator scale of the incoming activation format.
func NewParams(w *tensor.Tensor, bias []float64, stride, pad int, wFmt, outFmt fixed.Format) *Params {
	if stride < 1 {
		panic("conv: stride must be >= 1")
	}
	if pad < 0 {
		panic("conv: negative padding")
	}
	if bias != nil && len(bias) != w.Shape.N {
		panic(fmt.Sprintf("conv: bias length %d != out channels %d", len(bias), w.Shape.N))
	}
	return &Params{
		Weight: tensor.Quantize(w, wFmt),
		BiasF:  bias,
		Stride: stride,
		Pad:    pad,
		OutFmt: outFmt,
	}
}

// OutShape returns the output shape for an input shape.
func (p *Params) OutShape(in tensor.Shape) tensor.Shape {
	kh, kw := p.Weight.Shape.H, p.Weight.Shape.W
	oh := (in.H+2*p.Pad-kh)/p.Stride + 1
	ow := (in.W+2*p.Pad-kw)/p.Stride + 1
	return tensor.Shape{N: in.N, C: p.Weight.Shape.N, H: oh, W: ow}
}

// Census returns the exact primitive-operation counts of one forward pass.
func (p *Params) Census(in tensor.Shape) fault.Census {
	return CensusFor(in, p.Weight.Shape.N, p.Weight.Shape.H, p.Weight.Shape.W,
		p.Stride, p.Pad, p.BiasF != nil)
}

// CensusFor computes the direct-convolution op census from geometry alone,
// without materializing weights — used to derive full-size (paper-scale)
// fault intensities for scaled-down models.
func CensusFor(in tensor.Shape, outC, kh, kw, stride, pad int, bias bool) fault.Census {
	oh := (in.H+2*pad-kh)/stride + 1
	ow := (in.W+2*pad-kw)/stride + 1
	k := int64(in.C) * int64(kh) * int64(kw)
	outs := int64(in.N) * int64(outC) * int64(oh) * int64(ow)
	adds := k - 1
	if bias {
		adds++
	}
	return fault.Census{Mul: outs * k, Add: outs * adds}
}

// accumBias returns the bias vector scaled to the accumulator's fixed-point
// scale 2^(inFrac+wFrac).
func (p *Params) accumBias(inFmt fixed.Format) []int64 {
	if p.BiasF == nil {
		return nil
	}
	shift := inFmt.Frac + p.Weight.Fmt.Frac
	out := make([]int64, len(p.BiasF))
	for i, b := range p.BiasF {
		v := b * float64(int64(1)<<uint(shift))
		if v >= 0 {
			out[i] = int64(v + 0.5)
		} else {
			out[i] = int64(v - 0.5)
		}
	}
	return out
}

// Scratch is the reusable buffer arena of one layer's forward passes: the
// padded-input copy, the recycled output tensor, the accumulator-row buffer
// and the accumulator-scale bias cache. The zero value is ready to use; a
// Scratch belongs to one (Params, goroutine) pair and makes steady-state
// passes allocation-free. See DESIGN.md, memory model.
//
// Backend substitutes the compute kernel of the fault-free fast path (see
// internal/kernel); nil means the production kernel. Tests set it to
// kernel.Reference; every backend is bit-identical, so the choice can never
// change a result — the fault-replay path ignores it entirely and always
// runs the reference scalar code.
type Scratch struct {
	Backend kernel.Backend

	padded  *tensor.QTensor
	out     *tensor.QTensor
	accRow  []int64
	bias    []int64
	biasFmt fixed.Format
	biasOK  bool
	evs     fault.Sorted // event rounds: events in replay-walk order
}

// cachedBias returns accumBias through the scratch cache (the scale depends
// only on in.Fmt.Frac, constant across a campaign's rounds).
func (p *Params) cachedBias(sc *Scratch, inFmt fixed.Format) []int64 {
	if p.BiasF == nil {
		return nil
	}
	if !sc.biasOK || sc.biasFmt != inFmt {
		sc.bias = p.accumBias(inFmt)
		sc.biasFmt = inFmt
		sc.biasOK = true
	}
	return sc.bias
}

// padInput returns the input extended by p.Pad zero rows/columns on every
// spatial side, recycled from sc. For Pad == 0 the input itself is returned
// (it is only ever read). The recycled buffer's zero border is written only
// at allocation: interior rows are refreshed every pass (for the samples in
// rows) and the border is geometry-dependent only.
func (p *Params) padInput(sc *Scratch, in *tensor.QTensor, rows tensor.Rows) *tensor.QTensor {
	if p.Pad == 0 {
		return in
	}
	s := in.Shape
	ps := tensor.Shape{N: s.N, C: s.C, H: s.H + 2*p.Pad, W: s.W + 2*p.Pad}
	if sc.padded == nil || sc.padded.Shape != ps || sc.padded.Fmt != in.Fmt {
		sc.padded = tensor.NewQ(ps, in.Fmt)
	}
	dst := sc.padded
	for n := 0; n < s.N; n++ {
		if !rows.Has(n) {
			continue
		}
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				srcBase := s.Index(n, c, h, 0)
				dstBase := ps.Index(n, c, h+p.Pad, p.Pad)
				copy(dst.Data[dstBase:dstBase+s.W], in.Data[srcBase:srcBase+s.W])
			}
		}
	}
	return dst
}

// Forward computes the fault-free convolution.
func Forward(in *tensor.QTensor, p *Params) *tensor.QTensor {
	return ForwardFaulty(in, p, nil)
}

// ForwardFaulty computes the convolution with the given fault events applied
// bit-exactly at their op sites, allocating fresh buffers. Hot paths use
// ForwardFaultyCtx with a reusable Scratch.
func ForwardFaulty(in *tensor.QTensor, p *Params, events []fault.Event) *tensor.QTensor {
	return ForwardFaultyCtx(&Scratch{}, in, p, events, nil)
}

// ForwardFaultyCtx is ForwardFaulty drawing every buffer from sc and
// computing only the batch samples in rows (nil: all of them). The fast
// path computes those samples through sc's compute backend (see
// internal/kernel; every backend is bit-identical), then every output
// element touched by an event is recomputed through the scalar replay path
// with its events applied in op order. Output rows of the other samples are
// left unspecified and their events ignored. The returned tensor aliases sc
// and is valid until the next call with the same scratch.
func ForwardFaultyCtx(sc *Scratch, in *tensor.QTensor, p *Params, events []fault.Event, rows tensor.Rows) *tensor.QTensor {
	if sc == nil {
		sc = &Scratch{}
	}
	bk := sc.Backend
	if bk == nil {
		bk = kernel.Default()
	}
	ws := p.Weight.Shape
	if in.Shape.C != ws.C {
		panic(fmt.Sprintf("conv: input channels %d != weight channels %d", in.Shape.C, ws.C))
	}
	padded := p.padInput(sc, in, rows)
	outShape := p.OutShape(in.Shape)
	if sc.out == nil || sc.out.Shape != outShape || sc.out.Fmt != p.OutFmt {
		sc.out = tensor.NewQ(outShape, p.OutFmt)
	}
	out := sc.out
	bias := p.cachedBias(sc, in.Fmt)
	shift := in.Fmt.Frac + p.Weight.Fmt.Frac - p.OutFmt.Frac

	oc, oh, ow := outShape.C, outShape.H, outShape.W
	ic, kh, kw := ws.C, ws.H, ws.W
	ph, pw := padded.Shape.H, padded.Shape.W

	if kh == 1 && kw == 1 && ph == 1 && pw == 1 {
		// Fully-connected case (1x1 kernel over a 1x1 plane): both operand
		// rows are contiguous, so the whole output element is one dot.
		for n := 0; n < outShape.N; n++ {
			if !rows.Has(n) {
				continue
			}
			a := padded.Data[n*ic : (n+1)*ic]
			for o := 0; o < oc; o++ {
				var b int64
				if bias != nil {
					b = bias[o]
				}
				acc := bk.Dot(a, p.Weight.Data[o*ic:(o+1)*ic], b)
				out.Data[n*oc+o] = p.OutFmt.RequantizeShift(acc, shift)
			}
		}
	} else {
		if cap(sc.accRow) < ow {
			sc.accRow = make([]int64, ow)
		}
		accRow := sc.accRow[:ow]
		chanStride := ph * pw
		for n := 0; n < outShape.N; n++ {
			if !rows.Has(n) {
				continue
			}
			for o := 0; o < oc; o++ {
				var b int64
				if bias != nil {
					b = bias[o]
				}
				wBase := o * ic * kh * kw
				wRow := p.Weight.Data[wBase : wBase+ic*kh*kw]
				for oy := 0; oy < oh; oy++ {
					inBase := (n*in.Shape.C*ph + oy*p.Stride) * pw
					bk.ConvRow(accRow, padded.Data, wRow, b, inBase, p.Stride, ic, kh, kw, chanStride, pw)
					outRow := outShape.Index(n, o, oy, 0)
					for ox := 0; ox < ow; ox++ {
						out.Data[outRow+ox] = p.OutFmt.RequantizeShift(accRow[ox], shift)
					}
				}
			}
		}
	}

	if len(events) > 0 {
		p.replayFaults(sc, padded, out, bias, shift, events, rows)
	}
	return out
}

// opsPerOutput returns how many ops of class cl feed one output element:
// K = IC·KH·KW products, or K-1 accumulation adds plus the bias add.
func (p *Params) opsPerOutput(cl fault.OpClass) int64 {
	k := int64(p.Weight.Shape.C) * int64(p.Weight.Shape.H) * int64(p.Weight.Shape.W)
	if cl == fault.OpMul {
		return k
	}
	if p.BiasF != nil {
		return k
	}
	return k - 1
}

// EventSample maps a fault event to the batch sample whose output it
// corrupts, for an input of shape in.
func (p *Params) EventSample(in tensor.Shape, ev fault.Event) int {
	flat := ev.Op / p.opsPerOutput(ev.Class)
	return int(flat) / p.OutShape(in).SampleElems()
}

// replayFaults recomputes every output element an event touches, in the
// samples of rows. Events are keyed by (output element, class, local step),
// the order replayOutput walks them in, and rebased to their local step.
func (p *Params) replayFaults(sc *Scratch, padded, out *tensor.QTensor, bias []int64, shift int, events []fault.Event, rows tensor.Rows) {
	outShape := out.Shape
	k := p.opsPerOutput(fault.OpMul) // >= every class's ops per output
	se := &sc.evs
	se.Reset(events)
	for i, ev := range events {
		per := p.opsPerOutput(ev.Class)
		key := ev.Op / per * 2
		if ev.Class != fault.OpMul {
			key++
		}
		se.Keys[i] = key*k + ev.Op%per
		se.Evs[i].Op = ev.Op % per
	}
	se.Sort()
	perSample := outShape.SampleElems()
	for lo := 0; lo < len(se.Evs); {
		flat := se.Keys[lo] / (2 * k)
		hi, mulEnd := lo, lo
		for hi < len(se.Evs) && se.Keys[hi]/(2*k) == flat {
			if se.Evs[hi].Class == fault.OpMul {
				mulEnd = hi + 1
			}
			hi++
		}
		f := int(flat)
		if n := f / perSample; rows.Has(n) {
			ox := f % outShape.W
			oy := (f / outShape.W) % outShape.H
			o := (f / (outShape.W * outShape.H)) % outShape.C
			out.Data[f] = p.replayOutput(padded, bias, shift, n, o, oy, ox, se.Evs[lo:mulEnd], se.Evs[mulEnd:hi])
		}
		lo = hi
	}
}

// replayOutput recomputes one output element executing the MAC chain in op
// order, applying the events that target it: mulEvs and addEvs hold them by
// local step (Op rebased to the element's own chain), ascending, so the walk
// consumes each list with a cursor. The semantics (operand vs result flip)
// is encoded by the Operand field being meaningful only for OperandFlip
// samples, so replay distinguishes them via the Params' caller contract:
// events sampled with ResultFlip always carry Operand == 0 and bit indices
// covering the result register, which replay interprets through
// applyMulFault/applyAddFault.
func (p *Params) replayOutput(padded *tensor.QTensor, bias []int64, shift int, n, o, oy, ox int, mulEvs, addEvs []fault.Event) int32 {
	ws := p.Weight.Shape
	ic, kh, kw := ws.C, ws.H, ws.W
	k := ic * kh * kw

	w := p.Weight
	iy0, ix0 := oy*p.Stride, ox*p.Stride
	ph, pw := padded.Shape.H, padded.Shape.W

	var acc int64
	var at []fault.Event
	step := int64(0) // product index
	for c := 0; c < ic; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				a := int64(padded.Data[((n*padded.Shape.C+c)*ph+iy0+ky)*pw+ix0+kx])
				b := int64(w.Data[((o*ic+c)*kh+ky)*kw+kx])
				prod := a * b
				at, mulEvs = fault.TakeOp(mulEvs, step)
				for _, ev := range at {
					prod = applyMulFault(ev, a, b, prod)
					// Subsequent events on the same op re-derive operands
					// from the current product only for result flips; operand
					// flips recompute from the (already corrupted) operands.
					// With independent uniform sampling, coincident events on
					// one op are vanishingly rare; sequential application is
					// the documented tie-break.
					a, b = opAfterMulFault(ev, a, b)
				}
				if step == 0 {
					acc = prod
				} else {
					at, addEvs = fault.TakeOp(addEvs, step-1)
					for _, ev := range at {
						acc, prod = applyAddOperandFault(ev, acc, prod)
					}
					acc += prod
					for _, ev := range at {
						if isResultFlip(ev) {
							acc = fixed.FlipBit(acc, uint(ev.Bit))
						}
					}
				}
				step++
			}
		}
	}
	if p.BiasF != nil {
		b := bias[o]
		at, _ = fault.TakeOp(addEvs, int64(k-1))
		for _, ev := range at {
			acc, b = applyAddOperandFault(ev, acc, b)
		}
		acc += b
		for _, ev := range at {
			if isResultFlip(ev) {
				acc = fixed.FlipBit(acc, uint(ev.Bit))
			}
		}
	}
	return p.OutFmt.RequantizeShift(acc, shift)
}

// Event semantics plumbing: rather than threading the Model through every
// engine call, events carry enough information for replay. Operand-flip
// events have Bit < operand width and a meaningful Operand field; result-flip
// events are marked by the sampler with Operand == 0 and the engines are
// invoked with the semantics recorded on the campaign. To keep the engine
// self-contained we encode the semantics in the top bit of Operand.

// MarkResultFlip tags events sampled under ResultFlip semantics so engine
// replay applies them to result registers. Sample always emits Operand 0 for
// ResultFlip; campaigns call this immediately after sampling.
func MarkResultFlip(evs []fault.Event) {
	for i := range evs {
		evs[i].Operand = resultFlipMark
	}
}

const resultFlipMark = 0x80

func isResultFlip(ev fault.Event) bool { return ev.Operand&resultFlipMark != 0 }

// applyMulFault returns the corrupted product of a*b for one event. Flips
// are pure XOR at the sampled bit position: the severity comes from the bit
// position range (W bits for operands, 2W for the product register), while
// involution (flip twice = identity) holds regardless of value magnitude.
func applyMulFault(ev fault.Event, a, b, prod int64) int64 {
	if isResultFlip(ev) {
		return fixed.FlipBit(prod, uint(ev.Bit))
	}
	if ev.Operand == 0 {
		return fixed.FlipBit(a, uint(ev.Bit)) * b
	}
	return a * fixed.FlipBit(b, uint(ev.Bit))
}

// opAfterMulFault returns the operand values after an operand-flip event so
// stacked events compose.
func opAfterMulFault(ev fault.Event, a, b int64) (int64, int64) {
	if isResultFlip(ev) {
		return a, b
	}
	if ev.Operand == 0 {
		return fixed.FlipBit(a, uint(ev.Bit)), b
	}
	return a, fixed.FlipBit(b, uint(ev.Bit))
}

// applyAddOperandFault corrupts the operands of an addition for operand-flip
// events (result flips are applied after the add by the caller). Registers
// are modelled at the W-bit datapath width (see fault.SurfaceBits).
func applyAddOperandFault(ev fault.Event, partial, addend int64) (int64, int64) {
	if isResultFlip(ev) {
		return partial, addend
	}
	if ev.Operand == 0 {
		return fixed.FlipBit(partial, uint(ev.Bit)), addend
	}
	return partial, fixed.FlipBit(addend, uint(ev.Bit))
}
