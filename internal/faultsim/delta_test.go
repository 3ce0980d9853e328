package faultsim

import (
	"context"
	"testing"

	"repro/internal/fault"
)

// TestDeltaEnabledResolution pins the option semantics: delta execution is
// on unless the FullExec test switch forces full execution, and neuron-flip
// campaigns always run the full path (their in-place corruption is not
// located by the event stream).
func TestDeltaEnabledResolution(t *testing.T) {
	cases := []struct {
		opts Options
		want bool
	}{
		{Options{}, true},
		{Options{FullExec: true}, false},
		{Options{Semantics: fault.NeuronFlip}, false},
		{Options{Semantics: fault.OperandFlip}, true},
		{Options{Semantics: fault.OperandFlip, FullExec: true}, false},
	}
	for i, c := range cases {
		if got := c.opts.deltaEnabled(); got != c.want {
			t.Errorf("case %d: deltaEnabled() = %v, want %v", i, got, c.want)
		}
	}
}

// TestDeltaMatchesFullAcrossSemantics: for every injection semantics, a
// campaign with delta execution enabled returns accuracies bit-identical to
// the same campaign forced through full execution, for serial and parallel
// scheduling alike.
func TestDeltaMatchesFullAcrossSemantics(t *testing.T) {
	st, wg, stInt, wgInt := testRig(t, 6)
	bers := []float64{1e-10, 3e-9, 1e-7}
	for _, sem := range []fault.Semantics{fault.ResultFlip, fault.OperandFlip, fault.NeuronFlip} {
		for _, rig := range []struct {
			name string
			r    *Runner
			in   []fault.Census
		}{{"direct", st, stInt}, {"winograd", wg, wgInt}} {
			for _, workers := range []int{1, 4} {
				opts := Options{Semantics: sem, Seed: 11, Intensity: rig.in, Workers: workers}
				full := opts
				full.FullExec = true
				want := rig.r.AccuracyBatch(context.Background(), SweepCampaigns(bers, full), 2)
				got := rig.r.AccuracyBatch(context.Background(), SweepCampaigns(bers, opts), 2)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%v/%s/workers=%d: delta accuracy[%d] = %v, full = %v",
							sem, rig.name, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDeltaUnitRangeSharding: per-unit agreement counts from a delta-
// executing runner, computed shard by shard, must merge to exactly the
// counts a full-execution runner produces over the whole range.
func TestDeltaUnitRangeSharding(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	bers := []float64{1e-9, 1e-8}
	opts := Options{Seed: 5, Intensity: stInt, Workers: 1}
	full := opts
	full.FullExec = true
	cs := SweepCampaigns(bers, full)
	const rounds = 3
	want := st.UnitCounts(context.Background(), cs, rounds, 0, Units(cs, rounds))

	deltaCS := SweepCampaigns(bers, opts)
	total := Units(deltaCS, rounds)
	var got []int
	for lo := 0; lo < total; lo += 2 {
		hi := lo + 2
		if hi > total {
			hi = total
		}
		// Fresh delta runner per shard, as independent workers would be.
		shard, _, _, _ := testRig(t, 6)
		got = append(got, shard.UnitCounts(context.Background(), deltaCS, rounds, lo, hi)...)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d shard counts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d: delta-sharded count %d != full count %d", i, got[i], want[i])
		}
	}
}

// TestDeltaProtectionThinsToNothing: when protection (or the operation-class
// fault-free flags) masks every sampled event, each round's dirty set is
// empty and delta execution returns the golden predictions — accuracy exactly
// 1 even at a BER that would otherwise destroy the network, identical to the
// full path.
func TestDeltaProtectionThinsToNothing(t *testing.T) {
	st, _, stInt, _ := testRig(t, 6)
	const ber = 1e-7 // ~everything dirty when unprotected (see the sweep tests)

	classFree := Options{Seed: 9, Intensity: stInt, MulFaultFree: true, AddFaultFree: true}
	prot := map[int]fault.Protection{}
	for i := range st.Net.Nodes {
		prot[i] = fault.Protection{MulFrac: 1, AddFrac: 1}
	}
	fullProt := Options{Seed: 9, Intensity: stInt, Protection: prot}
	for name, opts := range map[string]Options{"class fault-free": classFree, "full protection": fullProt} {
		if acc := st.Accuracy(context.Background(), ber, opts, 2); acc != 1 {
			t.Errorf("%s: delta accuracy = %v, want exactly 1 (events must thin to nothing)", name, acc)
		}
		forced := opts
		forced.FullExec = true
		if acc := st.Accuracy(context.Background(), ber, forced, 2); acc != 1 {
			t.Errorf("%s: full-execution accuracy = %v, want exactly 1", name, acc)
		}
	}
}
