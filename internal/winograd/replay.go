package winograd

import (
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/tensor"
)

// Replay shares the result-flip marker with the conv package: events sampled
// under ResultFlip semantics carry the top bit of Operand set (see
// conv.MarkResultFlip; campaigns mark events once, engines only read it).
const resultFlipMark = 0x80

func isResultFlip(ev fault.Event) bool { return ev.Operand&resultFlipMark != 0 }

// applyAdd performs one census-counted addition acc+term with any fault
// events for this step applied: operand flips before the add, result flips
// after, all in the W-bit datapath register model (see fault.SurfaceBits).
func applyAdd(acc, term int64, evs []fault.Event) int64 {
	for _, ev := range evs {
		if isResultFlip(ev) {
			continue
		}
		if ev.Operand == 0 {
			acc = fixed.FlipBit(acc, uint(ev.Bit))
		} else {
			term = fixed.FlipBit(term, uint(ev.Bit))
		}
	}
	acc += term
	for _, ev := range evs {
		if isResultFlip(ev) {
			acc = fixed.FlipBit(acc, uint(ev.Bit))
		}
	}
	return acc
}

// matTransformReplay is the scalar twin of matTransform that walks the adds
// in census order. step is the local index of the next add; evs holds the
// events from step on, ascending by local index, and the events left after
// the last add are returned. scratch holds the rows x t intermediate.
func matTransformReplay(mat [][]int64, rows, t int, in, out, scratch []int64, evs []fault.Event, step int64) []fault.Event {
	var at []fault.Event
	for r := 0; r < rows; r++ {
		row := mat[r]
		for col := 0; col < t; col++ {
			var acc int64
			first := true
			for k := 0; k < t; k++ {
				c := row[k]
				if c == 0 {
					continue
				}
				term := c * in[k*t+col]
				if first {
					acc = term
					first = false
					continue
				}
				at, evs = fault.TakeOp(evs, step)
				acc = applyAdd(acc, term, at)
				step++
			}
			scratch[r*t+col] = acc
		}
	}
	for r := 0; r < rows; r++ {
		for c2 := 0; c2 < rows; c2++ {
			row := mat[c2]
			var acc int64
			first := true
			for k := 0; k < t; k++ {
				c := row[k]
				if c == 0 {
					continue
				}
				term := c * scratch[r*t+k]
				if first {
					acc = term
					first = false
					continue
				}
				at, evs = fault.TakeOp(evs, step)
				acc = applyAdd(acc, term, at)
				step++
			}
			out[r*rows+c2] = acc
		}
	}
	return evs
}

// replayTile recomputes one tile in census op order with its fault events
// applied, writing accumulator-domain outputs. evs are the tile's events in
// sortEvents order (keys alongside): grouped by segment, each group ascending
// by local index, so every stage of the walk consumes its own group with a
// cursor. It works in the fast path's tile buffers, which every tile
// rewrites before reading.
func (p *Params) replayTile(cs *coreScratch, ext *tensor.QTensor, acc []int64, outShape tensor.Shape, n, ty, tx int, keys []int64, evs []fault.Event) {
	t, m, T := p.Tile, p.Tile.M, p.Tile.T()
	t2 := T * T
	span := p.segSpan()
	var seg [numSegs][]fault.Event
	for lo := 0; lo < len(evs); {
		s := keys[lo] / span % numSegs
		hi := lo + 1
		for hi < len(evs) && keys[hi]/span%numSegs == s {
			hi++
		}
		seg[s] = evs[lo:hi]
		lo = hi
	}
	itEvs, mulEvs, caEvs, otEvs := seg[segIT], seg[segMul], seg[segCA], seg[segOT]

	// Input transform with IT faults, channel-major census order. A stage
	// with no events left in its index range runs the plain loops instead:
	// the same int64 sums, so the same bits.
	d, v, tmp := cs.d[:t2], cs.v[:p.InC*t2], cs.tmp[:t2]
	itAdds := int64(t.InputAdds())
	for c := 0; c < p.InC; c++ {
		for i := 0; i < T; i++ {
			base := ext.Shape.Index(n, c, ty*m+i, tx*m)
			for j := 0; j < T; j++ {
				d[i*T+j] = int64(ext.Data[base+j])
			}
		}
		if eventsBefore(itEvs, int64(c+1)*itAdds) {
			itEvs = matTransformReplay(t.BT, T, T, d, v[c*t2:(c+1)*t2], tmp, itEvs, int64(c)*itAdds)
		} else {
			matTransform(t.BT, T, T, d, v[c*t2:(c+1)*t2], tmp)
		}
	}

	msum, y := cs.msum[:t2], cs.y[:m*m]
	otAdds := int64(t.OutputAdds())
	var at []fault.Event
	for o := 0; o < p.OutC; o++ {
		uBase := o * p.InC * t2
		mulBase := int64(o) * int64(p.InC) * int64(t2)
		caBase := int64(o) * int64(p.InC-1) * int64(t2)
		if eventsBefore(mulEvs, mulBase+int64(p.InC*t2)) || eventsBefore(caEvs, caBase+int64((p.InC-1)*t2)) {
			for i := 0; i < t2; i++ {
				at, mulEvs = fault.TakeOp(mulEvs, mulBase+int64(i))
				msum[i] = p.hadamard(uBase, 0, i, t2, v, at)
			}
			for c := 1; c < p.InC; c++ {
				for i := 0; i < t2; i++ {
					at, mulEvs = fault.TakeOp(mulEvs, mulBase+int64(c*t2+i))
					prod := p.hadamard(uBase, c, i, t2, v, at)
					at, caEvs = fault.TakeOp(caEvs, caBase+int64((c-1)*t2+i))
					msum[i] = applyAdd(msum[i], prod, at)
				}
			}
		} else {
			u := p.U[uBase : uBase+p.InC*t2]
			for i := 0; i < t2; i++ {
				msum[i] = v[i] * int64(u[i])
			}
			for c := 1; c < p.InC; c++ {
				vc, uc := v[c*t2:(c+1)*t2], u[c*t2:(c+1)*t2]
				for i := range msum {
					msum[i] += vc[i] * int64(uc[i])
				}
			}
		}
		if eventsBefore(otEvs, int64(o+1)*otAdds) {
			otEvs = matTransformReplay(t.AT, m, T, msum, y, tmp, otEvs, int64(o)*otAdds)
		} else {
			matTransform(t.AT, m, T, msum, y, tmp)
		}
		for i := 0; i < m; i++ {
			oy := ty*m + i
			if oy >= outShape.H {
				continue
			}
			rowBase := outShape.Index(n, o, oy, 0)
			for j := 0; j < m; j++ {
				ox := tx*m + j
				if ox >= outShape.W {
					continue
				}
				acc[rowBase+ox] = y[i*m+j]
			}
		}
	}
}

// eventsBefore reports whether evs, ordered by Op, holds an event before end.
func eventsBefore(evs []fault.Event, end int64) bool { return len(evs) > 0 && evs[0].Op < end }

// hadamard computes one transform-domain product U[oc,c,pos] * V[c,pos] with
// any fault events applied: operand 0 is the transformed activation, operand
// 1 the transformed weight, both modelled as WBits-wide registers; result
// flips hit the 2·WBits product register.
func (p *Params) hadamard(uBase, c, pos, t2 int, v []int64, evs []fault.Event) int64 {
	a := v[c*t2+pos]
	b := int64(p.U[uBase+c*t2+pos])
	for _, ev := range evs {
		if isResultFlip(ev) {
			continue
		}
		if ev.Operand == 0 {
			a = fixed.FlipBit(a, uint(ev.Bit))
		} else {
			b = fixed.FlipBit(b, uint(ev.Bit))
		}
	}
	prod := a * b
	for _, ev := range evs {
		if isResultFlip(ev) {
			prod = fixed.FlipBit(prod, uint(ev.Bit))
		}
	}
	return prod
}
