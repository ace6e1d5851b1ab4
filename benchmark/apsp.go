package main

import (
	"fmt"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// The APSP part of every traced run: Section 7's APSP over random
// registers, scaled so one convergence takes about a second. Two serial workers each own half of
// the rows; an iteration reads all apspRows rows and writes the worker's
// own, each row a 2 KiB []float64.
const (
	apspRows    = 256
	apspProcs   = 2
	apspServers = 9
	apspQuorum  = 3
)

// timedOp wraps the APSP operator to time the serial client from outside
// RunTCP. A worker calls Apply(c), then Client.Write(c), then Equal(c), in
// one goroutine; the gap from Apply's return to Equal's entry is exactly
// one serial register write.
type timedOp struct {
	aco.Operator
	owner   []int
	workers []workerClock
}

// workerClock is one worker's timing state, touched only by that worker.
type workerClock struct {
	applied time.Time
	pending bool
	writes  []int64 // ns per write
}

func newTimedOp(op aco.Operator, procs int) *timedOp {
	m := op.M()
	owner := make([]int, m)
	for i := range owner {
		owner[i] = i * procs / m // aco.BlockPartition's assignment
	}
	return &timedOp{Operator: op, owner: owner, workers: make([]workerClock, procs)}
}

func (o *timedOp) Apply(i int, view []msg.Value) msg.Value {
	v := o.Operator.Apply(i, view)
	w := &o.workers[o.owner[i]]
	w.applied, w.pending = time.Now(), true
	return v
}

func (o *timedOp) Equal(i int, a, b msg.Value) bool {
	if w := &o.workers[o.owner[i]]; w.pending {
		w.writes = append(w.writes, int64(time.Since(w.applied)))
		w.pending = false
	}
	return o.Operator.Equal(i, a, b)
}

// convergence is one RunTCP execution's outcome.
type convergence struct {
	elapsed float64 // s
	iters   int64
	writes  []int64
	snap    *obs.Snapshot
}

func converge(seed uint64) (convergence, error) {
	g := graph.Chain(apspRows)
	inner := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	op := newTimedOp(inner, apspProcs)
	cfg := aco.TCPConfig{
		Op: op, Target: target,
		Servers: apspServers, Procs: apspProcs,
		System: quorum.NewProbabilistic(apspServers, apspQuorum),
		Seed:   seed,
		Obs:    obs.NewRegistry(),
	}
	res, err := aco.RunTCP(cfg)
	if err != nil {
		return convergence{}, fmt.Errorf("apsp seed %d: %w", seed, err)
	}
	if !res.Converged || !aco.VectorsEqual(inner, res.Final, target) {
		return convergence{}, fmt.Errorf("apsp seed %d: final registers differ from the APSP fixed point (converged=%v)", seed, res.Converged)
	}
	c := convergence{
		elapsed: res.Elapsed.Seconds(),
		iters:   res.Iterations,
		snap:    res.Snapshot,
	}
	for _, w := range op.workers {
		c.writes = append(c.writes, w.writes...)
	}
	return c, nil
}

// apspSet is a series of convergences run back to back.
type apspSet struct {
	runs   []convergence
	writes []int64
}

// runConvergences converges repeatedly until d has passed, at least once,
// with seeds derived from the workload seed.
func runConvergences(seed uint64, d time.Duration) (*apspSet, error) {
	s := &apspSet{}
	deadline := time.Now().Add(d)
	for len(s.runs) == 0 || time.Now().Before(deadline) {
		c, err := converge(rng.Derive(seed, fmt.Sprintf("apsp-rr.%d", len(s.runs)+1)).Uint64())
		if err != nil {
			return nil, err
		}
		s.runs = append(s.runs, c)
		s.writes = append(s.writes, c.writes...)
	}
	return s, nil
}

// measureACO runs Section 7's APSP over random registers for about d and
// sets the aco.* metrics: the Alg. 1 driver and the serial register.Client
// path under it, which no kv workload exercises. Its timings follow the
// host's CPU speed, which on a shared 2-vCPU host drifts by a third within
// a minute, so they are per-layer figures without a bound.
func measureACO(r *report, seed uint64, d time.Duration) error {
	s, err := runConvergences(seed, d)
	if err != nil {
		return err
	}
	var wait metrics.LatencySnapshot
	var sent, iters int64
	var each []float64
	for _, c := range s.runs {
		if l, ok := c.snap.Latencies["tcp.client.phase.quorum_wait"]; ok {
			wait.Count += l.Count
			wait.Sum += l.Sum
		}
		sent += c.snap.Counters["tcp.client.msgs_sent"]
		iters += c.iters
		each = append(each, c.elapsed)
	}
	p99 := quantile(s.writes, 0.99)
	fmt.Printf("aco: APSP on Chain(%d), n=%d k=%d, %d workers: %d convergences, %d iterations, %d write samples (%d beyond p99), converge_s %v\n",
		apspRows, apspServers, apspQuorum, apspProcs, len(s.runs), iters, len(s.writes), beyond(s.writes, p99), each)
	r.set("aco.converge_s", median(each), "s")
	r.set("aco.iters_per_converge", float64(iters)/float64(len(s.runs)), "count")
	r.set("aco.msgs_per_iter", frac(sent, iters), "count")
	r.set("aco.write_us_p50", quantile(s.writes, 0.50)/1e3, "us")
	r.set("aco.write_us_p99", p99/1e3, "us")
	r.set("aco.quorum_wait_us_mean", latMeanUs(metrics.LatencySnapshot{}, wait), "us")
	return nil
}

// rowCodecNs times the wire codec on one APSP row write: msg.AppendMessage
// and msg.DecodePayload of a WriteReq carrying a apspRows-float row, mean
// nanoseconds per call over a fixed batch.
func rowCodecNs() (encNs, decNs float64) {
	const reps = 20000
	row := make([]float64, apspRows)
	for i := range row {
		row[i] = float64(i)
	}
	req := msg.WriteReq{Reg: 7, Op: 42, Tag: msg.Tagged{Val: row}}
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for i := 0; i < reps; i++ {
		var err error
		if buf, err = msg.AppendMessage(buf[:0], req); err != nil {
			panic(err) // a WriteReq of a []float64 always encodes
		}
	}
	encNs = float64(time.Since(start).Nanoseconds()) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := msg.DecodePayload(buf[4:]); err != nil {
			panic(err) // decoding the frame just encoded cannot fail
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / reps
	return encNs, decNs
}
