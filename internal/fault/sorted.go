package fault

import "sort"

// Sorted is a reusable buffer of fault events stably ordered by one int64
// key per event. The replay engines key events by their position in the
// census-ordered walk, sort them once per layer call and consume them front
// to back with TakeOp, instead of building per-call maps. The zero value is
// ready to use; once its buffers have grown, sorting allocates nothing.
type Sorted struct {
	Evs  []Event // the events, in key order after Sort
	Keys []int64 // Keys[i] is the sort key of Evs[i]
}

// Reset copies events into the buffer and sizes Keys to match. The caller
// fills Keys (and may rebase Evs[i].Op) before calling Sort.
func (s *Sorted) Reset(events []Event) {
	s.Evs = append(s.Evs[:0], events...)
	if cap(s.Keys) < len(events) {
		s.Keys = make([]int64, len(events))
	}
	s.Keys = s.Keys[:len(events)]
}

// Sort stably orders the events by key, so events sharing a key keep the
// order the sampler drew them in (the replay tie-break). Small sets, the
// common case, use an insertion sort; large high-BER draws use sort.Stable
// to stay O(k·log²k).
func (s *Sorted) Sort() {
	if len(s.Evs) > 32 {
		sort.Stable((*byKey)(s))
		return
	}
	for i := 1; i < len(s.Evs); i++ {
		for j := i; j > 0 && s.Keys[j-1] > s.Keys[j]; j-- {
			s.Keys[j-1], s.Keys[j] = s.Keys[j], s.Keys[j-1]
			s.Evs[j-1], s.Evs[j] = s.Evs[j], s.Evs[j-1]
		}
	}
}

// byKey is the sort.Interface view of a Sorted buffer.
type byKey Sorted

func (s *byKey) Len() int           { return len(s.Evs) }
func (s *byKey) Less(i, j int) bool { return s.Keys[i] < s.Keys[j] }
func (s *byKey) Swap(i, j int) {
	s.Keys[i], s.Keys[j] = s.Keys[j], s.Keys[i]
	s.Evs[i], s.Evs[j] = s.Evs[j], s.Evs[i]
}

// TakeOp splits evs, ordered by Op, into the run of events at op and the
// events after it. Events before op are dropped: a walk that skips part of
// its index space (the batch samples it does not compute) passes over their
// events this way.
func TakeOp(evs []Event, op int64) (at, rest []Event) {
	if len(evs) == 0 || evs[0].Op > op {
		return nil, evs
	}
	for len(evs) > 0 && evs[0].Op < op {
		evs = evs[1:]
	}
	i := 0
	for i < len(evs) && evs[i].Op == op {
		i++
	}
	return evs[:i], evs[i:]
}
