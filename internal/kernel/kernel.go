// Package kernel is the compute-kernel seam of the engines: a small Backend
// interface over the fault-free hot paths — the direct-conv MAC chain, the
// FC dot product, the winograd f2/f4 input/output transforms and the
// per-tile Hadamard accumulation. Production runs one implementation, the
// hand-blocked kernels returned by Default; Reference is the engines'
// original scalar loops, kept as the bit-exactness oracle that differential
// tests install through nn.ExecContext.UseBackend.
//
// The contract every Backend must honor is bit-exactness, not approximate
// equality: int64 addition and multiplication form a commutative ring
// (wrapping two's-complement), so any implementation that sums the SAME SET
// of int64 products per accumulator — in any association or order — and
// leaves requantization to the caller produces results bit-identical to the
// scalar reference. Backends may therefore block, unroll, and reassociate
// freely, but must never round intermediates, change the product set, or
// requantize early. The fault-replay paths (conv.replayOutput,
// winograd.replayTile and the summation-segment walk) deliberately stay on
// the reference scalar code: events are rare and their op-order contract is
// correctness-critical, so they are not part of this interface.
package kernel

// Tile names a winograd tile algorithm for the transform entry points.
type Tile int

const (
	// F2 is F(2x2,3x3): 4x4 input tiles, 2x2 output tiles.
	F2 Tile = iota
	// F4 is F(4x4,3x3): 6x6 input tiles, 4x4 output tiles.
	F4
)

// Backend implements the fault-free hot-path kernels. All methods are pure
// integer arithmetic over caller-owned buffers: implementations must not
// allocate (the zero-allocation steady state is pinned by alloc tests) and
// must return accumulator sums bit-identical to Reference.
type Backend interface {
	// ConvRow computes one direct-convolution output row of accumulators:
	// for each ox in [0, len(acc)),
	//
	//	acc[ox] = bias + Σ_{c,ky,kx} in[inBase + c·chanStride + ky·rowStride + ox·stride + kx] · w[(c·kh+ky)·kw + kx]
	//
	// where in is the padded activation plane, w the ic·kh·kw weight block of
	// one output channel, inBase the flat index of the row's top-left input
	// element in channel 0, chanStride the input channel pitch and rowStride
	// the input row pitch. The caller requantizes.
	ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int)

	// Dot returns bias + Σ a[i]·b[i] — the fully-connected (1x1 conv over a
	// 1x1 plane) special case where both operand rows are contiguous.
	Dot(a, b []int32, bias int64) int64

	// Hadamard computes the per-tile winograd Hadamard products with channel
	// accumulation: msum[o·t2+i] = Σ_c ut[(i·outC+o)·inC + c] · vt[i·inC + c]
	// for every (position i, output channel o). ut is the position-major
	// transposed weight block UT, vt the position-major transformed input.
	Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int)

	// InputRows computes the 2D winograd input transform BT·d·BTᵀ of tile t,
	// reading the TxT input window directly from activation rows at src with
	// row pitch stride, into the T² accumulator-domain outputs.
	InputRows(t Tile, src []int32, stride int, out []int64)

	// Output computes the 2D winograd output transform AT·msum·ATᵀ of tile t
	// into the M² accumulator-domain outputs.
	Output(t Tile, msum, y []int64)
}

// Default returns the production backend, the hand-blocked kernels. Engine
// arenas whose Backend is nil run on it.
func Default() Backend { return blocked{} }
