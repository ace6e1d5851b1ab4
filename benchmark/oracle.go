package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
	"probquorum/internal/register"
)

// oracle sits between the open-loop driver and the keyspace clients. It is
// the benchmark's correctness check and its own latency timer:
//
//   - It owns the write sequence numbers. Every write carries
//     loadgen.EncodeValue(key, seq) with seq counted per key across all of
//     the run's driver phases, so later phases never reuse a value.
//   - It keeps, per key, the newest write sequence whose acknowledgement it
//     has seen. A read is stale when the sequence it returns is below the
//     value that was current when the read was invoked: a write acknowledged
//     before the read began and missed by it.
//   - It times every successful operation from its scheduled instant (see
//     phase) and from its submit instant, into exact per-op samples.
//
// The driver sends all writes of a key through one target and issues from a
// single goroutine, so next needs no lock. Callbacks arrive on the clients'
// delivery goroutines and touch only atomics and their own phase slots.
type oracle struct {
	acked []atomic.Uint32
	next  []uint32

	reads, stale             atomic.Int64 // completed plain reads; stale ones
	atomicReads, staleAtomic atomic.Int64
	isolation                atomic.Int64 // reads that returned another key's value

	ph *phase // current driver phase; set between phases only
}

func newOracle(keys int) *oracle {
	return &oracle{acked: make([]atomic.Uint32, keys), next: make([]uint32, keys)}
}

// targets wraps each client so the driver's operations pass through o.
func (o *oracle) targets(inner []loadgen.Target) []loadgen.Target {
	out := make([]loadgen.Target, len(inner))
	for i, t := range inner {
		out[i] = oracleTarget{o: o, inner: t}
	}
	return out
}

type oracleTarget struct {
	o     *oracle
	inner loadgen.Target
}

func (t oracleTarget) ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return t.o.submit(t.inner, loadgen.OpRead, key, fn)
}

func (t oracleTarget) ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return t.o.submit(t.inner, loadgen.OpAtomicRead, key, fn)
}

// WriteAsyncFunc ignores the driver's value: the oracle writes its own
// run-wide sequence for the key instead.
func (t oracleTarget) WriteAsyncFunc(key msg.RegisterID, _ msg.Value, fn func(msg.Tagged, error)) *register.PendingOp {
	return t.o.submit(t.inner, loadgen.OpWrite, key, fn)
}

func (o *oracle) submit(tgt loadgen.Target, kind loadgen.OpKind, key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	ph := o.ph
	t0 := time.Now()
	idx := ph.submit(t0)
	var seq, floor uint32
	if kind == loadgen.OpWrite {
		o.next[key]++
		seq = o.next[key]
	} else {
		floor = o.acked[key].Load()
	}
	ph.inflight.Add(1)
	cb := func(tag msg.Tagged, err error) {
		if err == nil {
			ph.record(idx, time.Since(t0))
			o.check(kind, key, seq, floor, tag)
		}
		fn(tag, err)
		ph.inflight.Add(-1)
	}
	var op *register.PendingOp
	switch kind {
	case loadgen.OpRead:
		op = tgt.ReadAsyncFunc(key, cb)
	case loadgen.OpAtomicRead:
		op = tgt.ReadAtomicAsyncFunc(key, cb)
	default:
		op = tgt.WriteAsyncFunc(key, loadgen.EncodeValue(key, seq), cb)
	}
	if ph.traced {
		ph.issueNs.Add(int64(time.Since(t0)))
	}
	ph.afterSubmit()
	return op
}

// check classifies one successful operation.
func (o *oracle) check(kind loadgen.OpKind, key msg.RegisterID, seq, floor uint32, tag msg.Tagged) {
	if kind == loadgen.OpWrite {
		for {
			cur := o.acked[key].Load()
			if seq <= cur || o.acked[key].CompareAndSwap(cur, seq) {
				return
			}
		}
	}
	var got uint32 // a never-written register reads as sequence 0
	if !tag.TS.IsZero() {
		k, s, ok := loadgen.DecodeValue(tag.Val)
		if !ok || k != key {
			o.isolation.Add(1)
			return
		}
		got = s
	}
	if kind == loadgen.OpRead {
		o.reads.Add(1)
		if got < floor {
			o.stale.Add(1)
		}
		return
	}
	o.atomicReads.Add(1)
	if got < floor {
		o.staleAtomic.Add(1)
	}
}

// staleFrac is the measured share of completed plain reads that were stale.
func (o *oracle) staleFrac() float64 {
	n := o.reads.Load()
	if n == 0 {
		return 0
	}
	return float64(o.stale.Load()) / float64(n)
}

// staleLimit is the highest stale-read share consistent with a predicted
// per-read probability pred over n reads: pred plus the one-sided 99%
// normal-approximation binomial margin.
func staleLimit(pred float64, n int64) float64 {
	if n == 0 {
		return pred
	}
	return pred + 2.326*math.Sqrt(pred*(1-pred)/float64(n))
}

// violations lists every correctness failure the oracle saw. strict
// quorums admit no stale read at all; otherwise the plain-read stale share
// must stay within staleLimit(pred, reads). Atomic reads are never stale.
func (o *oracle) violations(strict bool, pred float64) []string {
	var out []string
	if n := o.isolation.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d reads returned another key's value", n))
	}
	if n := o.staleAtomic.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d of %d atomic reads were stale", n, o.atomicReads.Load()))
	}
	if strict {
		if n := o.stale.Load(); n > 0 {
			out = append(out, fmt.Sprintf("%d of %d reads were stale on a strict quorum system", n, o.reads.Load()))
		}
	} else if lim := staleLimit(pred, o.reads.Load()); o.staleFrac() > lim {
		out = append(out, fmt.Sprintf("stale-read share %.4f over %d reads exceeds predicted %.4f plus 99%% margin (%.4f)",
			o.staleFrac(), o.reads.Load(), pred, lim))
	}
	return out
}

// phase is one driver run as the oracle sees it, and the oracle's
// reconstruction of each op's scheduled instant from outside the driver.
//
// The driver's pacer makes slot i due at start + i/rate, issues each slot
// at or after its due instant, and skips (sheds) a slot only while its
// in-flight count is at MaxInFlight; shed slots never reach a target. When
// the driver checks its count, both counts have risen for every submit so
// far (both rise in the issuing goroutine) and the oracle's falls only after
// the driver's, so the oracle's count is never the lower. While the
// oracle's count after a submit stays below the cap, the next submit is
// therefore the next slot. The submits thus fall into runs of consecutive
// slots, a new run beginning wherever a shed was possible. Within a run
// starting at slot s, submit j can be no earlier than its due instant, so
// s <= (t0[j] - start)/perOp - j for every j, and equality holds as soon as
// any submit of the run went out less than one slot late. finish takes, for
// the first run, start as the latest value these bounds allow with s = 0,
// and for every later run the largest s they allow (never below the
// previous run's end). The error is the least lateness within a run: zero
// whenever the generator kept up at some point in it.
type phase struct {
	perOp       time.Duration
	maxInFlight int64
	traced      bool

	// Issuing goroutine only, one entry per submit: the submit instant in
	// ns since base, and whether a shed may have preceded it.
	base    time.Time
	t0      []int64
	newRun  []bool
	mayShed bool

	inflight atomic.Int64

	// One entry per successful op, written by callbacks at index n: the
	// submit it belongs to and its latency from the submit instant. Ops
	// beyond the preallocated capacity are counted but not kept.
	n   atomic.Int64
	ops []int32
	svc []int64

	// Set by finish: per kept op, latency from the scheduled instant;
	// exact sums over the kept ops.
	lat           []int64
	sumSvc, sumLt int64

	// Peak live heap while the driver ran, MiB.
	memMB float64

	// Traced runs only: time spent inside the submit calls.
	issueNs atomic.Int64
}

func newPhase(rate float64, d time.Duration, maxInFlight int64, traced bool) *phase {
	capacity := int(rate*d.Seconds()*1.25) + 4096
	return &phase{
		// Same arithmetic as loadgen.NewPacer.
		perOp:       time.Duration(float64(time.Second) / rate),
		maxInFlight: maxInFlight,
		traced:      traced,
		t0:          make([]int64, 0, capacity),
		newRun:      make([]bool, 0, capacity),
		ops:         make([]int32, capacity),
		svc:         make([]int64, capacity),
	}
}

// submit records a submit at t0 and returns its index.
func (ph *phase) submit(t0 time.Time) int32 {
	if len(ph.t0) == 0 {
		ph.base = t0
	}
	ph.t0 = append(ph.t0, int64(t0.Sub(ph.base)))
	ph.newRun = append(ph.newRun, ph.mayShed)
	return int32(len(ph.t0) - 1)
}

func (ph *phase) afterSubmit() {
	ph.mayShed = ph.inflight.Load() >= ph.maxInFlight
}

func (ph *phase) record(idx int32, svc time.Duration) {
	i := ph.n.Add(1) - 1
	if i < int64(len(ph.ops)) {
		ph.ops[i], ph.svc[i] = idx, int64(svc)
	}
}

// finish reconstructs every submit's scheduled instant and derives the
// per-op latencies from it. Call once, after the driver has drained.
func (ph *phase) finish() {
	per := int64(ph.perOp)
	late := make([]int64, len(ph.t0)) // submit lateness, ns
	var start, next int64             // start in ns since base; next free slot
	for head := 0; head < len(ph.t0); {
		end := head + 1
		for end < len(ph.t0) && !ph.newRun[end] {
			end++
		}
		if head == 0 {
			for j := 0; j < end; j++ {
				start = min(start, ph.t0[j]-int64(j)*per)
			}
		} else {
			s := int64(math.MaxInt64)
			for j := head; j < end; j++ {
				s = min(s, floorDiv(ph.t0[j]-start, per)-int64(j-head))
			}
			next = max(next, s)
		}
		for j := head; j < end; j++ {
			late[j] = ph.t0[j] - (start + next*per)
			next++
		}
		head = end
	}
	n := min(ph.n.Load(), int64(len(ph.ops)))
	ph.lat = make([]int64, n)
	for i := range ph.lat {
		k := ph.ops[i]
		ph.lat[i] = ph.svc[i] + late[k]
		ph.sumSvc += ph.svc[i]
		ph.sumLt += late[k]
	}
}

// floorDiv is a/b rounded towards minus infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// samples returns the kept ops' latencies from the scheduled instant and
// from the submit instant. Call after finish.
func (ph *phase) samples() (lat, svc []int64) {
	return ph.lat, ph.svc[:len(ph.lat)]
}
