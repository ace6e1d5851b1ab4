package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"). xs is left unchanged. 0 when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	frac := pos - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[hi]-xs[lo])
}

// beyond counts samples strictly above v.
func beyond(xs []int64, v float64) int {
	n := 0
	for _, x := range xs {
		if float64(x) > v {
			n++
		}
	}
	return n
}

// frac is num/den, 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ratioF is num/den, 0 when den is 0.
func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of a float sample; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler records the peak of the live heap, read without stopping the
// world every 20ms between start and stop. Live heap is what the last GC
// marked reachable; unlike all heap objects it leaves out garbage awaiting
// collection, so the peak does not depend on where a GC cycle stood when a
// sample fell.
type heapSampler struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	peak   uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	h.cancel()
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// procUsage is a process-wide reading of CPU time, allocation and GC count.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	numGC      uint32
}

func readProcUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// perOp divides a process delta by ops.
func (u procUsage) perOp(prev procUsage, ops int64) (cpuUs, allocBytes, gcPerKop float64) {
	if ops <= 0 {
		return 0, 0, 0
	}
	n := float64(ops)
	return float64(u.cpu-prev.cpu) / 1e3 / n,
		float64(u.allocBytes-prev.allocBytes) / n,
		float64(u.numGC-prev.numGC) * 1000 / n
}
