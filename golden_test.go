package winofault

import (
	"fmt"
	"testing"

	"repro/internal/fixed"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// TestGoldenAccuracyFixture pins campaign accuracies for all four models and
// both engines to the values measured before the allocation-free hot-path
// refactor (ExecContext scratch arenas, blocked winograd kernels, sorted
// event cursors). The engines' determinism contract makes these bit-exact:
// any arithmetic reordering, stale-scratch leak or event-routing change shows
// up here as a hard failure, for every Workers value. Production (the
// blocked kernel with delta execution) and the two test oracles (the scalar
// reference kernel, and full execution of every round) must all land on the
// same fixture values.
func TestGoldenAccuracyFixture(t *testing.T) {
	bers := []float64{3e-11, 3e-10, 1e-9}
	fixture := map[string]map[Engine][]float64{
		"vgg19":       {Direct: {1, 0.875, 0.9375}, Winograd: {1, 0.9375, 0.875}},
		"resnet50":    {Direct: {0.125, 0, 0}, Winograd: {0.375, 0, 0}},
		"densenet169": {Direct: {0.25, 0, 0}, Winograd: {0.4375, 0, 0.0625}},
		"googlenet":   {Direct: {0.9375, 0.625, 0.625}, Winograd: {0.8125, 0.8125, 0.75}},
	}
	for model, byEngine := range fixture {
		for engine, want := range byEngine {
			for _, backend := range []string{"scalar", "blocked"} {
				for _, delta := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/%v/%s/delta=%t", model, engine, backend, delta), func(t *testing.T) {
						sys := oracleSystem(t, Config{
							Model: model, Engine: engine, WidthMult: 0.125, InputSize: 16,
							Samples: 8, Rounds: 2, Seed: 3, Workers: 4,
						}, backend == "scalar", !delta)
						for i, ber := range bers {
							if got := sys.Accuracy(ber); got != want[i] {
								t.Errorf("accuracy(%g) = %v, want %v (bit-exactness broken)", ber, got, want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestNewUndersizedInput: construction must never panic for any input
// resolution — undersized geometry is either valid (the zoo's padded stacks
// survive even 1x1, checked per-arch by models.ValidateGeometry, whose
// rejection path is covered in models_test.go) or rejected with a
// descriptive error at Config level.
func TestNewUndersizedInput(t *testing.T) {
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []Engine{Direct, Winograd} {
			for _, sz := range []int{1, 2, 4} {
				sys, err := New(Config{
					Model: model, Engine: engine, InputSize: sz, Samples: 2, Rounds: 1,
				})
				if err != nil {
					continue // a descriptive rejection is a valid outcome
				}
				if acc := sys.Accuracy(0); acc != 1 {
					t.Errorf("%s/%v@%d: golden accuracy %v", model, engine, sz, acc)
				}
			}
		}
		// Nonsensical sizes must be rejected, not silently replaced or
		// panicked on.
		if _, err := New(Config{Model: model, InputSize: -3}); err == nil {
			t.Errorf("%s: negative InputSize did not error", model)
		}
	}
}

// TestForwardCtxAllocFree enforces the arena contract: after the first pass
// has populated an ExecContext's scratch buffers, a steady-state fault-free
// ForwardCtx performs zero heap allocations for either engine on the
// production kernel. The pre-refactor baseline was 134 (direct) / 254
// (winograd) allocations per pass, so any ceiling breach is a
// >90%-regression signal by construction.
func TestForwardCtxAllocFree(t *testing.T) {
	for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
		arch := models.VGG19(models.Tiny)
		net := models.Build(arch, nn.Config{
			Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
		})
		in := tensor.Quantize(
			tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
			fixed.Int16)
		ctx := net.NewExecContext()
		net.ForwardCtx(ctx, in, nil) // warm the arena
		allocs := testing.AllocsPerRun(10, func() { net.ForwardCtx(ctx, in, nil) })
		if allocs != 0 {
			t.Errorf("%v: steady-state ForwardCtx allocates %v times per pass, want 0", kind, allocs)
		}
	}
}

// TestForwardCtxAllocFreeAcrossModels extends the zero-allocation guard to
// every zoo architecture (concat, residual-add, avg-pool and DWM units all
// draw from the arena too).
func TestForwardCtxAllocFreeAcrossModels(t *testing.T) {
	for _, name := range []string{"resnet50", "densenet169", "googlenet"} {
		arch, err := models.ByName(name, models.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		net := models.Build(arch, nn.Config{
			Kind: nn.Winograd, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
		})
		in := tensor.Quantize(
			tensor.New(tensor.Shape{N: 1, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
			fixed.Int16)
		ctx := net.NewExecContext()
		net.ForwardCtx(ctx, in, nil)
		if allocs := testing.AllocsPerRun(5, func() { net.ForwardCtx(ctx, in, nil) }); allocs != 0 {
			t.Errorf("%s: steady-state ForwardCtx allocates %v times per pass, want 0", name, allocs)
		}
	}
}
