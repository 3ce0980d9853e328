package faultsim

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
)

// countingKernel is the reference kernel with a call counter on the direct
// conv and winograd Hadamard entry points, so a test can see which contexts
// a runner's kernel actually reached.
type countingKernel struct {
	kernel.Reference
	calls *atomic.Int64
}

func (k countingKernel) ConvRow(acc []int64, in, w []int32, bias int64, inBase, stride, ic, kh, kw, chanStride, rowStride int) {
	k.calls.Add(1)
	k.Reference.ConvRow(acc, in, w, bias, inBase, stride, ic, kh, kw, chanStride, rowStride)
}

func (k countingKernel) Hadamard(msum, vt []int64, ut []int32, t2, outC, inC int) {
	k.calls.Add(1)
	k.Reference.Hadamard(msum, vt, ut, t2, outC, inC)
}

// TestUseBackendReachesEveryWorker: a kernel installed with Runner.UseBackend
// runs every unit of a parallel campaign (pooled contexts included) without
// changing any count, and UseBackend(nil) takes it off recycled contexts
// again. Without this the root-level reference-vs-production sweep tests
// could compare the production kernel with itself.
func TestUseBackendReachesEveryWorker(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 4)
	bers := []float64{1e-9, 1e-8}
	for _, rig := range []struct {
		name string
		r    *Runner
		in   []fault.Census
	}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
		cs := SweepCampaigns(bers, Options{Seed: 3, Intensity: rig.in, Workers: 4, FullExec: true})
		n := Units(cs, 2)
		want := rig.r.UnitCounts(context.Background(), cs, 2, 0, n)

		var calls atomic.Int64
		k := countingKernel{calls: &calls}
		rig.r.UseBackend(k)
		got := rig.r.UnitCounts(context.Background(), cs, 2, 0, n)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s unit %d: reference count %d != production %d", rig.name, i, got[i], want[i])
			}
		}

		// At a BER this low no unit samples an event, so every unit of a
		// full-execution campaign makes exactly the kernel calls of one
		// clean forward pass; a worker context that missed the installed
		// kernel would leave the total short.
		calls.Store(0)
		ec := rig.r.Net.NewExecContext()
		ec.UseBackend(k)
		rig.r.Net.ForwardCtx(ec, rig.r.Inputs, nil)
		perPass := calls.Swap(0)
		clean := SweepCampaigns([]float64{1e-16, 1e-15}, Options{Seed: 3, Intensity: rig.in, Workers: 4, FullExec: true})
		rig.r.UnitCounts(context.Background(), clean, 3, 0, Units(clean, 3))
		if want := perPass * int64(Units(clean, 3)); perPass == 0 || calls.Load() != want {
			t.Errorf("%s: installed kernel made %d calls, want %d (%d per pass)", rig.name, calls.Load(), want, perPass)
		}

		rig.r.UseBackend(nil)
		before := calls.Load()
		rig.r.UnitCounts(context.Background(), clean, 3, 0, Units(clean, 3))
		if calls.Load() != before {
			t.Errorf("%s: UseBackend(nil) left the installed kernel on a pooled context", rig.name)
		}
	}
}
