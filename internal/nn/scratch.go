package nn

import (
	"repro/internal/conv"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/kernel"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// Scratch is the per-node reusable buffer arena threaded through Op.Forward.
// Each node of an ExecContext owns one Scratch; because a node's output
// geometry is fixed for a given input batch shape, every buffer is allocated
// on the first pass and recycled afterwards, making steady-state forward
// passes allocation-free (see DESIGN.md, memory model).
//
// A nil *Scratch is valid everywhere and means "allocate fresh buffers":
// one-shot callers (tests, Network.Forward via a throwaway context) pay the
// allocations the arena would otherwise amortize.
type Scratch struct {
	out  *tensor.QTensor   // recycled output of simple (non-conv) ops
	conv *conv.Scratch     // direct-convolution arena
	wg   *winograd.Scratch // winograd-layer arena
	kb   kernel.Backend    // compute kernel stamped onto the engine arenas (nil: production)
	evs  fault.Sorted      // event rounds of simple ops: events ordered by op
}

// Output returns a recycled output tensor of the given shape and format.
// Contents are unspecified (the previous pass's values): every op that uses
// it must write all elements.
func (s *Scratch) Output(sh tensor.Shape, f fixed.Format) *tensor.QTensor {
	if s == nil {
		return tensor.NewQ(sh, f)
	}
	if s.out == nil || s.out.Shape != sh || s.out.Fmt != f {
		s.out = tensor.NewQ(sh, f)
	}
	return s.out
}

// sortedEvents returns the events stably sorted by op index, for the simple
// ops' census-ordered walks to consume with fault.TakeOp.
func (s *Scratch) sortedEvents(events []fault.Event) []fault.Event {
	if len(events) == 0 {
		return nil
	}
	se := &fault.Sorted{}
	if s != nil {
		se = &s.evs
	}
	se.Reset(events)
	for i, ev := range events {
		se.Keys[i] = ev.Op
	}
	se.Sort()
	return se.Evs
}

// convScratch returns the node's direct-convolution arena (nil passes
// through, meaning allocate-fresh inside the engine).
func (s *Scratch) convScratch() *conv.Scratch {
	if s == nil {
		return nil
	}
	if s.conv == nil {
		s.conv = &conv.Scratch{}
	}
	s.conv.Backend = s.kb
	return s.conv
}

// wgScratch returns the node's winograd arena (nil passes through).
func (s *Scratch) wgScratch() *winograd.Scratch {
	if s == nil {
		return nil
	}
	if s.wg == nil {
		s.wg = &winograd.Scratch{}
	}
	s.wg.Backend = s.kb
	return s.wg
}
