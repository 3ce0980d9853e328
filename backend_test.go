package winofault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// These tests pin the production path against its two test oracles, end to
// end: the blocked kernel against kernel.Reference (the scalar loops), and
// fault-cone delta execution against full execution of every round. Both are
// bit-identical by contract, not merely statistically close. The kernel-level
// half (per-primitive differential tests over random operands) lives in
// internal/kernel; here whole campaigns and whole forward passes must agree
// to the byte.

// oracleSystem builds a system and switches it onto the requested test
// oracles: the reference kernel (installed through the runner's UseBackend
// seam) and full execution of every round (faultsim's FullExec switch).
// With both false it is the production system New returns.
func oracleSystem(t *testing.T, cfg Config, reference, fullExec bool) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		sys.runner.UseBackend(kernel.Reference{})
	}
	sys.opts.FullExec = fullExec
	return sys
}

// TestBackendSweepBitIdentical compares full statistical campaigns between
// the scalar reference kernel and the production blocked kernel across the
// model zoo and both engines; for vgg19 additionally across worker counts
// and delta/full execution, and for one hardware-located stuckpe scenario.
// Accuracies must be equal as float64 bit patterns — any divergence means
// the blocked kernel changed an integer sum somewhere.
func TestBackendSweepBitIdentical(t *testing.T) {
	bers := []float64{3e-11, 3e-10, 1e-9}
	base := Config{
		WidthMult: 0.125, InputSize: 16, Samples: 8, Rounds: 2, Seed: 3, Workers: 4,
	}
	for _, model := range []string{"vgg19", "resnet50", "densenet169", "googlenet"} {
		for _, engine := range []Engine{Direct, Winograd} {
			t.Run(fmt.Sprintf("%s/%v", model, engine), func(t *testing.T) {
				cfg := base
				cfg.Model, cfg.Engine = model, engine
				want := oracleSystem(t, cfg, true, false).Sweep(bers)
				got := oracleSystem(t, cfg, false, false).Sweep(bers)
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("point %d: scalar %+v != blocked %+v", i, want[i], got[i])
					}
				}
			})
		}
	}

	// Workers x delta: the reference kernel must reach every pooled context
	// and the delta-execution golden planes at every parallelism level.
	t.Run("vgg19/workers-delta", func(t *testing.T) {
		for _, workers := range []int{1, 2, 8} {
			for _, delta := range []bool{true, false} {
				cfg := base
				cfg.Model, cfg.Engine = "vgg19", Winograd
				cfg.Workers = workers
				want := oracleSystem(t, cfg, true, !delta).Sweep(bers)
				got := oracleSystem(t, cfg, false, !delta).Sweep(bers)
				for i := range want {
					if want[i] != got[i] {
						t.Errorf("workers=%d delta=%t point %d: scalar %+v != blocked %+v",
							workers, delta, i, want[i], got[i])
					}
				}
			}
		}
	})

	// Hardware-located events replay on the reference path regardless of
	// kernel; the surrounding fault-free tiles do not, so a stuckpe
	// campaign exercises both sides of the seam in one sweep.
	t.Run("vgg19/stuckpe", func(t *testing.T) {
		sc := Scenario{Kind: "stuckpe", Row: 1, Col: 2, Bit: 24}
		results := map[string][]Point{}
		for _, backend := range []string{"scalar", "blocked"} {
			cfg := base
			cfg.Model, cfg.Engine = "vgg19", Winograd
			pts, err := oracleSystem(t, cfg, backend == "scalar", false).SweepHW(sc, bers)
			if err != nil {
				t.Fatal(err)
			}
			results[backend] = pts
		}
		for i := range results["scalar"] {
			if results["scalar"][i] != results["blocked"][i] {
				t.Errorf("stuckpe point %d: scalar %+v != blocked %+v",
					i, results["scalar"][i], results["blocked"][i])
			}
		}
	})
}

// diffInjector feeds identical deterministic (seed, round, node) fault events
// to every context it is used with, mirroring faultsim's statistical sampler.
type diffInjector struct {
	seed  uint64
	round uint64
	ber   float64
	fmt   fixed.Format
}

func (in *diffInjector) OpEvents(li int, census fault.Census) []fault.Event {
	evs := fault.Sample(rng.New(in.seed).Split(in.round).Split(uint64(li)), census, census,
		fault.Model{BER: in.ber, Semantics: fault.ResultFlip}, in.fmt, fault.Protection{})
	conv.MarkResultFlip(evs)
	return evs
}

func (in *diffInjector) Neuron(int, *tensor.QTensor) {}

// TestBackendRandomizedDifferential feeds the exact same randomized fault
// rounds to two execution contexts — one on the reference kernel, one on
// the production kernel — and requires the output logits tensors to be
// element-for-element equal. Unlike the sweep comparison (which reduces to
// accuracies), this catches a kernel divergence in any single output
// element, faulty rounds included.
func TestBackendRandomizedDifferential(t *testing.T) {
	for _, kind := range []nn.EngineKind{nn.Direct, nn.Winograd} {
		arch := models.VGG19(models.Tiny)
		net := models.Build(arch, nn.Config{
			Kind: kind, Tile: winograd.F2, ActFmt: fixed.Int16, WFmt: fixed.Int16, Seed: 1,
		})
		in := tensor.Quantize(
			tensor.New(tensor.Shape{N: 2, C: 3, H: arch.In.H, W: arch.In.W}).Random(rng.New(2), 0.5),
			fixed.Int16)
		ctxs := map[string]*nn.ExecContext{"scalar": net.NewExecContext(), "blocked": net.NewExecContext()}
		ctxs["scalar"].UseBackend(kernel.Reference{})
		for round := uint64(0); round < 8; round++ {
			// Round 0 is fault-free; later rounds draw dense event sets so
			// replay tiles and fast tiles mix within one pass.
			ber := 0.0
			if round > 0 {
				ber = 1e-9 * float64(round)
			}
			logits := map[string][]int32{}
			for backend, ctx := range ctxs {
				inj := &diffInjector{seed: 11, round: round, ber: ber, fmt: fixed.Int16}
				out := net.ForwardCtx(ctx, in, inj)
				logits[backend] = append([]int32(nil), out.Data...)
			}
			want, got := logits["scalar"], logits["blocked"]
			if len(want) != len(got) {
				t.Fatalf("%v round %d: logits length %d != %d", kind, round, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v round %d: logits[%d] scalar %d != blocked %d",
						kind, round, i, want[i], got[i])
				}
			}
		}
	}
}

// TestSweepBytesMatchOracles renders two wfsim campaigns through
// FormatSweep on the production path and on each test oracle, and requires
// the bytes to be identical. The campaigns are the vgg19/winograd sweep at
// 1e-10,1e-9,1e-8 with the per-layer sensitivity table, and a stuck-at-PE
// sweep (PE 0,0, product bit 24) at 1e-10,1e-9 — the same command lines
// (wfsim -input 16 -samples 8 -rounds 2) that end-to-end checks diff.
func TestSweepBytesMatchOracles(t *testing.T) {
	campaigns := []struct {
		name   string
		cfg    Config
		bers   []float64
		layers bool
	}{
		{"statistical", Config{Model: "vgg19", Engine: Winograd, InputSize: 16, Samples: 8, Rounds: 2},
			[]float64{1e-10, 1e-9, 1e-8}, true},
		{"stuckpe", Config{Model: "vgg19", Engine: Winograd, InputSize: 16, Samples: 8, Rounds: 2,
			Scenario: &Scenario{Kind: "stuckpe", Row: 0, Col: 0, Bit: 24}},
			[]float64{1e-10, 1e-9}, false},
	}
	render := func(sys *System, bers []float64, layers bool) string {
		var b strings.Builder
		FormatSweep(&b, sys.Sweep(bers))
		if layers {
			base, ls := sys.LayerSensitivities(bers[len(bers)/2])
			fmt.Fprintf(&b, "baseline %v\n", base)
			for _, l := range ls {
				fmt.Fprintf(&b, "%s %v %v %d\n", l.Layer, l.FaultFreeAccuracy, l.Vulnerability, l.Muls)
			}
		}
		return b.String()
	}
	for _, c := range campaigns {
		want := render(oracleSystem(t, c.cfg, false, false), c.bers, c.layers)
		for _, o := range []struct {
			name                string
			reference, fullExec bool
		}{{"reference-kernel", true, false}, {"full-exec", false, true}} {
			t.Run(c.name+"/"+o.name, func(t *testing.T) {
				if got := render(oracleSystem(t, c.cfg, o.reference, o.fullExec), c.bers, c.layers); got != want {
					t.Errorf("output differs from production:\n--- production\n%s--- %s\n%s", want, o.name, got)
				}
			})
		}
	}
}
