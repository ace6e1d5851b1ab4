package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// probeResult is one offered rate's outcome during the knee search.
type probeResult struct {
	Rate      float64
	P99       time.Duration
	Shed      int64 // paced slots refused by the in-flight cap, plus deflections
	Failed    int64 // operations that returned an error
	BehindMax int64 // loadgen.Result.MaxBehind: generator backlog high-water mark
}

// passes reports whether the probe met the latency limit with nothing shed
// or failed.
func (p probeResult) passes(limit time.Duration) bool {
	return p.P99 <= limit && p.Shed == 0 && p.Failed == 0
}

// kneeResult is the outcome of findKnee.
type kneeResult struct {
	// Knee is the highest probed rate that passed while every probed rate
	// above it failed.
	Knee float64
	// LowerBound is set when the search cap itself passed: the true knee
	// lies at or above Knee.
	LowerBound bool
	Probes     []probeResult
}

// errLimitNeverMet reports that even the starting rate missed the limit.
var errLimitNeverMet = errors.New("knee: latency limit not met at the starting rate")

// findKnee searches offered rates for the highest one meeting limit. It
// probes start, doubles until a rate fails or reaches maxRate, then bisects
// geometrically between the last pass and the first fail until their ratio
// is at most 1+resolution. Each rate is decided by the best of three probes
// (stopping once two agree): host stalls flip single probes both ways, and
// one lucky or unlucky probe must not send the bisection into the wrong
// half.
// Bisection only probes inside the current bracket, so every rate that
// passed lies below every rate that failed, and a noisy, non-monotone band
// near the limit still yields a rate that passed with all probed rates above
// it failing. probe returning an error aborts the search.
func findKnee(probe func(rate float64) (probeResult, error), start, maxRate, resolution float64, limit time.Duration) (kneeResult, error) {
	if start <= 0 || maxRate < start || resolution <= 0 {
		return kneeResult{}, fmt.Errorf("knee: bad search range start=%v max=%v resolution=%v", start, maxRate, resolution)
	}
	var res kneeResult
	run := func(rate float64) (bool, error) {
		var pass, fail int
		for pass < 2 && fail < 2 {
			p, err := probe(rate)
			if err != nil {
				return false, err
			}
			res.Probes = append(res.Probes, p)
			if p.passes(limit) {
				pass++
			} else {
				fail++
			}
		}
		return pass == 2, nil
	}

	ok, err := run(start)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, errLimitNeverMet
	}
	pass, fail := start, 0.0
	for fail == 0 {
		if pass >= maxRate {
			res.Knee, res.LowerBound = pass, true
			return res, nil
		}
		next := math.Min(2*pass, maxRate)
		if ok, err = run(next); err != nil {
			return res, err
		}
		if ok {
			pass = next
		} else {
			fail = next
		}
	}
	for fail/pass > 1+resolution {
		mid := math.Sqrt(pass * fail)
		if ok, err = run(mid); err != nil {
			return res, err
		}
		if ok {
			pass = mid
		} else {
			fail = mid
		}
	}
	res.Knee = pass
	return res, nil
}
