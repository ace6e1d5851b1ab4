package main

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"
)

// synthetic answers each probe from a pass/fail rule given the rate and
// how many times that rate has been probed (1 on the first), recording the
// rates probed.
type synthetic struct {
	pass   func(rate float64, nth int) bool
	probed []float64
	count  map[float64]int
}

func (s *synthetic) probe(rate float64) (probeResult, error) {
	s.probed = append(s.probed, rate)
	if s.count == nil {
		s.count = map[float64]int{}
	}
	s.count[rate]++
	p := probeResult{Rate: rate, P99: time.Millisecond}
	if !s.pass(rate, s.count[rate]) {
		p.P99 = time.Second
	}
	return p, nil
}

func TestFindKnee(t *testing.T) {
	const limit = 25 * time.Millisecond
	tests := []struct {
		name           string
		pass           func(rate float64, nth int) bool
		start, maxRate float64
		wantLo, wantHi float64 // the knee must land in [wantLo, wantHi]
		wantLowerBound bool
		wantErr        error
	}{
		{
			name:  "sharp cliff",
			pass:  func(r float64, _ int) bool { return r <= 100_000 },
			start: 10_000, maxRate: 1_000_000,
			wantLo: 100_000 / 1.05, wantHi: 100_000,
		},
		{
			// Near the limit the outcome flips at random: the search must
			// still return a rate that passed and lies below every rate
			// that failed.
			name: "noisy non-monotone band",
			pass: func(r float64, nth int) bool {
				switch {
				case r < 90_000:
					return true
				case r > 110_000:
					return false
				}
				return rand.New(rand.NewPCG(uint64(r), uint64(nth))).IntN(2) == 0
			},
			start: 10_000, maxRate: 1_000_000,
			wantLo: 90_000 / 1.05, wantHi: 110_000,
		},
		{
			name:  "knee below the first ascent step",
			pass:  func(r float64, _ int) bool { return r <= 25_000 },
			start: 10_000, maxRate: 1_000_000,
			wantLo: 25_000 / 1.05, wantHi: 25_000,
		},
		{
			// One stall fails a rate the system sustains; the next two
			// probes pass it, so the search goes on past it.
			name:  "transient failure in the ascent",
			pass:  func(r float64, nth int) bool { return r <= 100_000 && !(r == 40_000 && nth == 1) },
			start: 10_000, maxRate: 1_000_000,
			wantLo: 100_000 / 1.05, wantHi: 100_000,
		},
		{
			// One stall-free probe passes a rate the system cannot
			// sustain; the next two fail it.
			name:  "lucky pass above the limit",
			pass:  func(r float64, nth int) bool { return r <= 100_000 || nth == 1 },
			start: 10_000, maxRate: 1_000_000,
			wantLo: 100_000 / 1.05, wantHi: 100_000,
		},
		{
			name:  "limit never met",
			pass:  func(float64, int) bool { return false },
			start: 10_000, maxRate: 1_000_000,
			wantErr: errLimitNeverMet,
		},
		{
			name:  "limit met at the cap",
			pass:  func(float64, int) bool { return true },
			start: 10_000, maxRate: 160_000,
			wantLo: 160_000, wantHi: 160_000, wantLowerBound: true,
		},
		{
			name:  "cap not a power-of-two multiple of start",
			pass:  func(r float64, _ int) bool { return r <= 150_000 },
			start: 10_000, maxRate: 100_000,
			wantLo: 100_000, wantHi: 100_000, wantLowerBound: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := &synthetic{pass: tt.pass}
			got, err := findKnee(s.probe, tt.start, tt.maxRate, 0.05, limit)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if tt.wantErr != nil {
				return
			}
			if got.Knee < tt.wantLo || got.Knee > tt.wantHi {
				t.Errorf("knee = %.0f, want in [%.0f, %.0f] (probed %v)", got.Knee, tt.wantLo, tt.wantHi, s.probed)
			}
			if got.LowerBound != tt.wantLowerBound {
				t.Errorf("lower bound = %v, want %v", got.LowerBound, tt.wantLowerBound)
			}
			if len(got.Probes) != len(s.probed) {
				t.Errorf("result lists %d probes, %d were run", len(got.Probes), len(s.probed))
			}
			// A rate passed when most of its probes did.
			votes := map[float64]int{}
			for _, p := range got.Probes {
				if p.passes(limit) {
					votes[p.Rate]++
				} else {
					votes[p.Rate]--
				}
			}
			passed := map[float64]bool{}
			for rate, v := range votes {
				passed[rate] = v > 0
			}
			for rate, ok := range passed {
				if !ok && rate <= got.Knee {
					t.Errorf("rate %.0f failed yet lies at or below the knee %.0f", rate, got.Knee)
				}
			}
			if !passed[got.Knee] {
				t.Errorf("knee %.0f is not a passing rate", got.Knee)
			}
		})
	}
}

func TestProbePasses(t *testing.T) {
	const limit = 25 * time.Millisecond
	tests := []struct {
		name string
		p    probeResult
		want bool
	}{
		{"within limit", probeResult{P99: limit}, true},
		{"over limit", probeResult{P99: limit + 1}, false},
		{"shed", probeResult{P99: time.Millisecond, Shed: 1}, false},
		{"failed", probeResult{P99: time.Millisecond, Failed: 1}, false},
	}
	for _, tt := range tests {
		if got := tt.p.passes(limit); got != tt.want {
			t.Errorf("%s: passes = %v, want %v", tt.name, got, tt.want)
		}
	}
}
