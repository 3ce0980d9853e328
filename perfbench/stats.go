package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// Quantile is one reported percentile of a timing distribution: the value,
// the percentile it actually is, and the sample count it rests on.
type Quantile struct {
	Value float64
	Pct   float64
	N     int
}

func (q Quantile) String() string {
	return fmt.Sprintf("p%g of %d", q.Pct, q.N)
}

// nearestRank is the 1-based nearest-rank index of the p-th percentile of
// n samples. The product is formed before the division so that whole
// percentiles of round sample counts land on exact ranks.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// Median is the nearest-rank 50th percentile with its sample count. Nearest
// rank always returns an observed sample, so a distribution made of a few
// repeated campaign types reads the same type run after run instead of
// interpolating across the gap between them.
func Median(samples []float64) Quantile {
	if len(samples) == 0 {
		return Quantile{Value: math.NaN(), Pct: 50}
	}
	return Quantile{Value: sortedCopy(samples)[nearestRank(50, len(samples))-1], Pct: 50, N: len(samples)}
}

// Midpoint is the conventional median: the middle value, or the mean of the
// middle two for an even count. It summarises a few values of different
// kinds, such as one latency per campaign, where nearest rank would report
// a single campaign's latency and with it that campaign's noise alone.
func Midpoint(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// Tail applies the percentile rule: it reports the highest percentile, at
// most want, that leaves at least minBeyond samples above its rank. When
// even the median would leave fewer, the median is reported, so a small run
// degrades to its median rather than to its maximum.
func Tail(samples []float64, want float64) Quantile {
	n := len(samples)
	if n == 0 {
		return Quantile{Value: math.NaN(), Pct: want}
	}
	rank, pct := nearestRank(want, n), want
	if n-rank < minBeyond {
		rank = n - minBeyond
		pct = math.Round(1000*float64(rank)/float64(n)) / 10
	}
	if half := nearestRank(50, n); rank <= half {
		rank, pct = half, 50
	}
	return Quantile{Value: sortedCopy(samples)[rank-1], Pct: pct, N: n}
}

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// Tally counts operations against their failures. Every failure mode is an
// operation that did not produce a correct result: a call that returned an
// error, a request the server refused, or an output that differs from its
// reference.
type Tally struct {
	Attempted  int
	Errors     int
	Refusals   int
	Mismatches int
}

// Failed is the number of attempted operations that did not succeed.
func (t Tally) Failed() int { return t.Errors + t.Refusals + t.Mismatches }

// FailedFrac is Failed over Attempted; an empty tally has failed nothing.
func (t Tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}

// Add merges another tally into t.
func (t *Tally) Add(o Tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Refusals += o.Refusals
	t.Mismatches += o.Mismatches
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
