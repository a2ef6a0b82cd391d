// Package gate is the shared timing harness of the performance gates
// (EH_ANALYZE_GATE, EH_KERNEL_GATE, EH_OBS_GATE and core's overlay <25%
// gate). A gate compares a baseline against a candidate by interleaving
// their runs — so drift in machine speed hits both sides alike — and
// scoring each side's fastest run. Shared CI boxes jitter by several
// percent, so an attempt that misses the threshold can be repeated: a
// real regression fails every attempt, noise does not.
package gate

import (
	"sort"
	"time"
)

// Timing is one gate's measurement plan.
type Timing struct {
	// Rounds is how many times each side runs per attempt; Attempts
	// bounds the number of attempts.
	Rounds, Attempts int
	// Base and Cand each time one run of their side.
	Base, Cand func() time.Duration
	// Logf receives one line per attempt.
	Logf func(format string, args ...any)
}

// minima runs Base and Cand alternately Rounds times each and returns
// each side's fastest run.
func (g Timing) minima() (base, cand time.Duration) {
	bs := make([]time.Duration, 0, g.Rounds)
	cs := make([]time.Duration, 0, g.Rounds)
	for i := 0; i < g.Rounds; i++ {
		bs = append(bs, g.Base())
		cs = append(cs, g.Cand())
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return bs[0], cs[0]
}

// Overhead returns the lowest (cand-base)/base seen, stopping at the
// first attempt at or below limit. The gate holds when the result is
// <= limit.
func (g Timing) Overhead(limit float64) float64 {
	best := 1e9
	for attempt := 0; attempt < g.Attempts && best > limit; attempt++ {
		base, cand := g.minima()
		o := float64(cand-base) / float64(base)
		g.Logf("attempt %d: base=%v cand=%v overhead=%.2f%%", attempt, base, cand, o*100)
		if o < best {
			best = o
		}
	}
	return best
}

// Speedup returns the highest base/cand seen, stopping at the first
// attempt at or above want. The gate holds when the result is >= want.
func (g Timing) Speedup(want float64) float64 {
	best := 0.0
	for attempt := 0; attempt < g.Attempts && best < want; attempt++ {
		base, cand := g.minima()
		r := float64(base) / float64(cand)
		g.Logf("attempt %d: base=%v cand=%v speedup=%.2fx", attempt, base, cand, r)
		if r > best {
			best = r
		}
	}
	return best
}
