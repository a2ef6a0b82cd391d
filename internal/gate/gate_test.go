package gate

import (
	"testing"
	"time"
)

// scripted returns a run timer that replays durations in order.
func scripted(ds ...time.Duration) func() time.Duration {
	i := 0
	return func() time.Duration {
		d := ds[i%len(ds)]
		i++
		return d
	}
}

func TestOverheadTakesMinimaAndStopsEarly(t *testing.T) {
	calls := 0
	base := scripted(120, 100, 110) // min 100 per attempt
	g := Timing{
		Rounds:   3,
		Attempts: 5,
		Base:     base,
		Cand:     func() time.Duration { calls++; return 102 },
		Logf:     t.Logf,
	}
	if o := g.Overhead(0.03); o < 0.0199 || o > 0.0201 {
		t.Fatalf("overhead %v, want 0.02", o)
	}
	if calls != 3 {
		t.Fatalf("passing first attempt should stop the gate: %d candidate runs", calls)
	}
}

func TestOverheadRetriesAndKeepsBest(t *testing.T) {
	attempts := 0
	cand := []time.Duration{150, 140, 130}
	g := Timing{
		Rounds:   1,
		Attempts: 3,
		Base:     func() time.Duration { return 100 },
		Cand:     func() time.Duration { d := cand[attempts]; attempts++; return d },
		Logf:     t.Logf,
	}
	if o := g.Overhead(0.03); o < 0.2999 || o > 0.3001 {
		t.Fatalf("overhead %v, want best 0.30", o)
	}
	if attempts != 3 {
		t.Fatalf("failing gate should use every attempt: %d", attempts)
	}
}

func TestSpeedup(t *testing.T) {
	g := Timing{
		Rounds:   2,
		Attempts: 3,
		Base:     scripted(300, 200),
		Cand:     scripted(100),
		Logf:     t.Logf,
	}
	if r := g.Speedup(1.3); r != 2 {
		t.Fatalf("speedup %v, want 2", r)
	}
}
