package kernel

// blocked is the hand-blocked int32 backend: 4-wide output-column MAC
// blocking for direct convolution (each loaded weight feeds four
// accumulators) and output-channel-paired, 2-wide channel-unrolled Hadamard
// accumulation (each loaded activation feeds two output channels, with two
// independent partial sums per channel for ILP).
//
// Bit-exactness is by construction, not by tolerance: every accumulator is
// an int64 sum over exactly the same set of int64 products the scalar
// reference sums, merely reassociated — and int64 addition is associative
// and commutative (wrapping two's-complement ring), so the final sums are
// bit-identical, for every input. The transforms are shared with Reference
// outright: they are straight-line adds with no blocking freedom.
type blocked struct{}

func (blocked) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	ow := len(acc)
	ox := 0
	// Stride-1 3-wide kernels (the dominant conv shape) share input loads
	// across the block: the four windows overlap in 6 activations, so each
	// (channel, kernel row) costs 6 loads instead of 12. Every accumulator
	// still sums exactly its own scalar product set.
	if stride == 1 && kw == 3 {
		for ; ox+3 < ow; ox += 4 {
			base := inBase + ox
			s0, s1, s2, s3 := bias, bias, bias, bias
			wi := 0
			for c := 0; c < ic; c++ {
				inRow := base + c*chanStride
				for ky := 0; ky < kh; ky++ {
					row := in[inRow : inRow+6 : inRow+6]
					w0, w1, w2 := int64(w[wi]), int64(w[wi+1]), int64(w[wi+2])
					d0, d1, d2 := int64(row[0]), int64(row[1]), int64(row[2])
					d3, d4, d5 := int64(row[3]), int64(row[4]), int64(row[5])
					s0 += d0*w0 + d1*w1 + d2*w2
					s1 += d1*w0 + d2*w1 + d3*w2
					s2 += d2*w0 + d3*w1 + d4*w2
					s3 += d3*w0 + d4*w1 + d5*w2
					inRow += rowStride
					wi += 3
				}
			}
			acc[ox], acc[ox+1], acc[ox+2], acc[ox+3] = s0, s1, s2, s3
		}
		for ; ox < ow; ox++ {
			acc[ox] = convOne(in, w, bias, inBase+ox, ic, kh, kw, chanStride, rowStride)
		}
		return
	}
	for ; ox+3 < ow; ox += 4 {
		base := inBase + ox*stride
		s0, s1, s2, s3 := bias, bias, bias, bias
		wi := 0
		for c := 0; c < ic; c++ {
			inRow := base + c*chanStride
			for ky := 0; ky < kh; ky++ {
				wRow := w[wi : wi+kw : wi+kw]
				for kx := 0; kx < kw; kx++ {
					wv := int64(wRow[kx])
					p := inRow + kx
					s0 += int64(in[p]) * wv
					s1 += int64(in[p+stride]) * wv
					s2 += int64(in[p+2*stride]) * wv
					s3 += int64(in[p+3*stride]) * wv
				}
				inRow += rowStride
				wi += kw
			}
		}
		acc[ox], acc[ox+1], acc[ox+2], acc[ox+3] = s0, s1, s2, s3
	}
	for ; ox < ow; ox++ {
		acc[ox] = convOne(in, w, bias, inBase+ox*stride, ic, kh, kw, chanStride, rowStride)
	}
}

func (blocked) Dot(a, b []int32, bias int64) int64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += int64(a[i]) * int64(b[i])
		s1 += int64(a[i+1]) * int64(b[i+1])
		s2 += int64(a[i+2]) * int64(b[i+2])
		s3 += int64(a[i+3]) * int64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int64(a[i]) * int64(b[i])
	}
	return bias + (s0 + s1) + (s2 + s3)
}

func (blocked) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	for i := 0; i < t2; i++ {
		vRow := vt[i*inC : (i+1)*inC]
		uPos := ut[i*outC*inC : (i+1)*outC*inC]
		o := 0
		for ; o+1 < outC; o += 2 {
			u0 := uPos[o*inC : o*inC+inC]
			u1 := uPos[(o+1)*inC : (o+1)*inC+inC]
			u0 = u0[:len(vRow)]
			u1 = u1[:len(vRow)]
			var a0, b0, a1, b1 int64
			c := 0
			for ; c+1 < len(vRow); c += 2 {
				v0, v1 := vRow[c], vRow[c+1]
				a0 += int64(u0[c]) * v0
				b0 += int64(u0[c+1]) * v1
				a1 += int64(u1[c]) * v0
				b1 += int64(u1[c+1]) * v1
			}
			if c < len(vRow) {
				v0 := vRow[c]
				a0 += int64(u0[c]) * v0
				a1 += int64(u1[c]) * v0
			}
			msum[o*t2+i] = a0 + b0
			msum[(o+1)*t2+i] = a1 + b1
		}
		if o < outC {
			uRow := uPos[o*inC : o*inC+inC]
			uRow = uRow[:len(vRow)]
			var s int64
			for c, v := range vRow {
				s += int64(uRow[c]) * v
			}
			msum[o*t2+i] = s
		}
	}
}

func (blocked) InputRows(t Tile, src []int32, stride int, out []int64) {
	if t == F4 {
		f4InputRows(src, stride, out)
		return
	}
	f2InputRows(src, stride, out)
}

func (blocked) Output(t Tile, msum, y []int64) {
	if t == F4 {
		f4Output(msum, y)
		return
	}
	f2Output(msum, y)
}
