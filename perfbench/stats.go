package main

import (
	"errors"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tail reports the highest candidate percentile that has at least
// minBeyond samples beyond it, and the sample value at that rank. ok is
// false when n is too small for even the lowest candidate; the caller then
// omits the tail instead of reporting a percentile that one outlier sets.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		// rank is the 1-based nearest-rank position of the p-th percentile;
		// n-rank samples lie strictly beyond it. The epsilon absorbs float
		// error in p/100*n (99.9/100*10000 is not exactly 9990).
		rank := int(math.Ceil(p/100*float64(n) - 1e-6))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// tally counts operations attempted and failed, and why they failed. An
// operation that timed out, errored, or returned an incorrect output is a
// failure; incorrect outputs also make the run incorrect.
type tally struct {
	attempted int
	failed    int
	incorrect int
	reasons   []string
}

// ok records one successful operation.
func (t *tally) ok() { t.attempted++ }

// failedFrac is failed operations over attempted ones.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// correct reports whether every output checked was correct.
func (t *tally) correct() bool { return t.incorrect == 0 }

// countedErr is an error whose failure the tally already holds.
type countedErr struct{ error }

func (e countedErr) Unwrap() error { return e.error }

// record counts err as one failed operation, incorrect when it wraps
// errIncorrect (a hang or a transport error is a failure, not a wrong
// output), and returns it marked as counted.
func (t *tally) record(err error) error {
	t.attempted++
	t.failed++
	if errors.Is(err, errIncorrect) {
		t.incorrect++
	}
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, err.Error())
	}
	return countedErr{err}
}
