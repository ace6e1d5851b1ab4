package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"probquorum/internal/analysis"
	"probquorum/internal/faults"
	"probquorum/internal/loadgen"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// kvSpec is one open-loop keyspace workload.
type kvSpec struct {
	name    string
	servers int
	system  quorum.System
	keys    int
	zipf    float64 // 0 draws keys uniformly
	mix     loadgen.Mix
	// knee adds a knee search to the traced run.
	knee bool
	// schedule is the fault DSL run during the reference phase.
	schedule string
	// tail is the latency quantile reported as tail_ms: p90 on the healthy
	// arms, whose p99 follows GC cycles and host stalls and does not repeat
	// on a 2-core host; p99 on the fault arm, where the ops the crash
	// delayed make up the top few percent.
	tail float64
}

// strict reports whether every read quorum meets every write quorum; then
// no read may be stale.
func (s kvSpec) strict() bool { return s.system.Size()*2 > s.servers }

// stalePred is the paper's predicted stale-read probability for one read:
// the chance that its quorum misses the last write's, q(n,k) non-overlap.
func (s kvSpec) stalePred() float64 { return analysis.NonOverlapProb(s.servers, s.system.Size()) }

var (
	kvUniform = kvSpec{
		name: "kv-uniform", servers: 5, system: quorum.NewMajority(5),
		keys: 4096, mix: loadgen.Mix{Read: 0.65, Write: 0.25, Atomic: 0.10}, knee: true, tail: 0.90,
	}
	// rrZipf is the paper's random register: probabilistic quorums of 3 out
	// of 9. Atomic reads need intersecting quorums, so the mix has none.
	rrZipf = kvSpec{
		name: "rr-zipf", servers: 9, system: quorum.NewProbabilistic(9, 3),
		keys: 1024, zipf: 0.99, mix: loadgen.Mix{Read: 0.5, Write: 0.5}, knee: true, tail: 0.90,
	}
	kvCrash = kvSpec{
		name: "kv-crash", servers: 5, system: quorum.NewMajority(5),
		keys: 4096, mix: loadgen.Mix{Read: 0.65, Write: 0.25, Atomic: 0.10},
		schedule: "@2s crash 1; @4s recover 1", tail: 0.99,
	}
)

const (
	// refRate is the offered rate every kv workload is measured at: well
	// below both knees on a 2-core host, and low enough that the process
	// keeps a core idle, so p50 and p90 repeat from run to run.
	refRate = 16000.0
	// maxInFlight is the driver's shed threshold (loadgen's default).
	maxInFlight = 4096
	// probeInFlight is the shed threshold during knee probes. At 4096 a
	// 16 ms host stall at 256k op/s sheds and fails the probe; the p99
	// limit should decide instead. A probe that still sheds fails.
	probeInFlight = 1 << 16
	// The knee is the highest offered rate whose p99 stays within kneeLimit
	// with nothing shed or failed, searched up to kneeMaxFactor times the
	// reference rate to a resolution of kneeResolution.
	kneeLimit      = 25 * time.Millisecond
	kneeMaxFactor  = 32
	kneeResolution = 0.05
	// kneeProbes is the probe count the search budget is divided by: a
	// doubling ascent to the cap plus the bisection to kneeResolution.
	kneeProbes = 20
	// A traced run spends --seconds/kneeDiv on the knee search and
	// --seconds/acoDiv on APSP convergences, besides its reference rounds.
	kneeDiv = 2
	acoDiv  = 4
	// setupWarm untimed plant start-ups come first: the process's first
	// few plants also pay for runtime and poller growth. Then setupReps
	// start-ups are timed; setup_s is their median.
	setupWarm = 5
	setupReps = 31
	warmup    = time.Second
	// budgetTolerance bounds |budget.unattributed_frac|: the outside-in
	// parts must add up to the driver's own mean latency within 5%.
	budgetTolerance = 0.05
)

// kvRun is the state of one kv workload run.
type kvRun struct {
	spec   kvSpec
	opt    options
	keys   loadgen.KeyPicker
	or     *oracle
	sched  faults.Schedule
	rep    *report
	phases int
}

func runKV(spec kvSpec, o options) (*report, error) {
	k := &kvRun{spec: spec, opt: o, rep: &report{}}
	var err error
	if spec.zipf > 0 {
		k.keys, err = loadgen.NewZipfKeys(spec.keys, spec.zipf)
	} else {
		k.keys = loadgen.UniformKeys{N: spec.keys}
	}
	if err != nil {
		return nil, err
	}
	if k.sched, err = faults.ParseSchedule(spec.schedule); err != nil {
		return nil, err
	}
	if o.traced {
		err = k.traced()
	} else {
		err = k.untraced()
	}
	if err != nil {
		return nil, err
	}
	return k.rep, nil
}

// traceRounds is how many reference phases a traced run makes, alternating
// untraced and traced plants so that neither side always runs first.
const traceRounds = 4

// faultPhase is the length of one fault-arm phase, so that its schedule's
// two-second crash window is a fifth of the phase.
const faultPhase = 10 * time.Second

// refPlan is the reference phase's length and repeat count. An untraced
// run gives it all of --seconds, as back-to-back faultPhase repeats for a
// fault arm. A traced run splits --seconds over its rounds, but a fault
// schedule needs two seconds past its last event.
func (k *kvRun) refPlan() (time.Duration, int) {
	n := len(k.sched.Events)
	switch {
	case k.opt.traced && n > 0:
		return max(k.opt.seconds/traceRounds, k.sched.Events[n-1].At+2*time.Second), 1
	case k.opt.traced:
		return k.opt.seconds / traceRounds, 1
	case n > 0:
		return faultPhase, max(1, int(k.opt.seconds/faultPhase))
	}
	return k.opt.seconds, 1
}

// setup starts setupWarm+setupReps plants, keeping the last, and returns
// the median start-up time of the timed ones in seconds. A fresh instrument
// set is made per plant when traced. The kept plant gets a fresh oracle: a
// new plant's registers start empty.
func (k *kvRun) setup(traced bool) (*plant, *instruments, float64, error) {
	k.or = newOracle(k.spec.keys)
	var times []float64
	for i := -setupWarm; ; i++ {
		var inst *instruments
		if traced {
			inst = newInstruments(k.spec.servers)
		}
		start := time.Now()
		p, err := startPlant(k.spec.servers, k.spec.system, k.opt.seed, inst)
		if err != nil {
			return nil, nil, 0, err
		}
		if i >= 0 {
			times = append(times, time.Since(start).Seconds())
		}
		if i == setupReps-1 {
			return p, inst, median(times), nil
		}
		p.close()
	}
}

// finish closes the plant and records its oracle's verdict.
func (k *kvRun) finish(p *plant) {
	p.close()
	for _, v := range k.or.violations(k.spec.strict(), k.spec.stalePred()) {
		k.rep.violate("%s", v)
	}
}

// drive runs one driver phase at rate for d through the oracle, shedding
// beyond inflight outstanding ops, with the fault schedule when withFaults
// is set.
func (k *kvRun) drive(p *plant, rate float64, d time.Duration, inflight int64, traced, withFaults bool) (*loadgen.Result, *phase, error) {
	ph := newPhase(rate, d, inflight, traced)
	k.or.ph = ph
	k.phases++
	drv, err := loadgen.NewDriver(loadgen.Config{
		Rate:        rate,
		Duration:    d,
		Mix:         k.spec.mix,
		Keys:        k.keys,
		Seed:        rng.Derive(k.opt.seed, fmt.Sprintf("%s.phase.%d", k.spec.name, k.phases)).Uint64(),
		MaxInFlight: inflight,
	}, k.or.targets(p.targets())...)
	if err != nil {
		return nil, nil, err
	}
	var sched faults.Schedule
	if withFaults {
		sched = k.sched
	}
	// The heap is sampled while the driver runs, not while finish builds
	// the latency samples, so the peak is not the benchmark's own arrays.
	mem := startHeapSampler()
	res, applied, err := loadgen.RunScenario(context.Background(), drv, sched, p)
	ph.memMB = mem.stop()
	if err != nil {
		return nil, nil, err
	}
	ph.finish()
	k.rep.attempted += res.Issued
	k.rep.failed += res.Errors
	if res.IsolationViolations > 0 {
		k.rep.violate("%d per-key isolation violations: %s", res.IsolationViolations, res.IsolationExample)
	}
	if n := int64(len(ph.lat)); n != res.Completed {
		k.rep.violate("oracle timed %d completions, driver counted %d", n, res.Completed)
	}
	if withFaults {
		if len(applied) != len(sched.Events) {
			k.rep.violate("fault schedule applied %d of %d events", len(applied), len(sched.Events))
		}
		for _, a := range applied {
			if a.Err != nil {
				k.rep.violate("fault %s at %v: %v", a.Action, a.At, a.Err)
			}
		}
	}
	return res, ph, nil
}

// refResult is the reference phases' outcome, pooled over repeats.
type refResult struct {
	lat, svc                        []int64 // ns from the scheduled / submit instant
	p50, tail                       float64 // ns from the scheduled instant
	offered, completed, shed, errs  int64
	behindMax                       int64
	driverSum                       float64 // driver's exact latency sum, ns
	sumLate, sumSvc, issueNs, subms int64
	memMB                           float64
	reads, staleReads               int64
}

// reference warms the plant up and runs the reference phases.
func (k *kvRun) reference(p *plant, traced bool, before func()) (refResult, error) {
	if _, _, err := k.drive(p, refRate, warmup, maxInFlight, traced, false); err != nil {
		return refResult{}, err
	}
	if before != nil {
		before()
	}
	d, reps := k.refPlan()
	var r refResult
	reads0, stale0 := k.or.reads.Load(), k.or.stale.Load()
	for i := 0; i < reps; i++ {
		res, ph, err := k.drive(p, refRate, d, maxInFlight, traced, k.sched.Events != nil)
		if err != nil {
			return refResult{}, err
		}
		lat, svc := ph.samples()
		r.lat, r.svc = append(r.lat, lat...), append(r.svc, svc...)
		r.offered += res.Offered
		r.completed += res.Completed
		r.shed += res.Shed + res.Deflected
		r.errs += res.Errors
		r.behindMax = max(r.behindMax, res.MaxBehind)
		r.memMB = max(r.memMB, ph.memMB)
		r.driverSum += float64(res.Total.Mean()) * float64(res.Completed)
		r.sumLate, r.sumSvc = r.sumLate+ph.sumLt, r.sumSvc+ph.sumSvc
		r.issueNs, r.subms = r.issueNs+ph.issueNs.Load(), r.subms+int64(len(ph.t0))
		fmt.Print("reference: per-interval p50/p99 (us):")
		for _, iv := range res.Intervals {
			fmt.Printf(" %.0f/%.0f", float64(iv.P50)/1e3, float64(iv.P99)/1e3)
		}
		fmt.Println()
	}
	r.reads, r.staleReads = k.or.reads.Load()-reads0, k.or.stale.Load()-stale0
	r.p50, r.tail = quantile(r.lat, 0.50), quantile(r.lat, k.spec.tail)
	driverMean := r.driverSum / float64(r.completed)
	ownMean := frac(r.sumLate+r.sumSvc, int64(len(r.lat)))
	fmt.Printf("reference: %d x %v at %.0f op/s: offered=%d completed=%d shed=%d errors=%d behind_max=%d\n",
		reps, d, refRate, r.offered, r.completed, r.shed, r.errs, r.behindMax)
	p90, p99 := quantile(r.lat, 0.90), quantile(r.lat, 0.99)
	fmt.Printf("reference: samples=%d p50=%.1fus p90=%.1fus (%d beyond) p99=%.1fus (%d beyond) mean=%.1fus (driver mean %.1fus)\n",
		len(r.lat), r.p50/1e3, p90/1e3, beyond(r.lat, p90), p99/1e3, beyond(r.lat, p99), ownMean/1e3, driverMean/1e3)
	if math.Abs(ownMean-driverMean)/driverMean > budgetTolerance {
		k.rep.violate("scheduled-instant reconstruction off: own mean %.1fus vs driver mean %.1fus",
			ownMean/1e3, driverMean/1e3)
	}
	return r, nil
}

func (k *kvRun) untraced() error {
	p, _, setup, err := k.setup(false)
	if err != nil {
		return err
	}
	defer k.finish(p)
	ref, err := k.reference(p, false, nil)
	if err != nil {
		return err
	}
	// A slow-conn drop closes the connection and forces a re-dial; only
	// the crash arm may re-dial, because a crashed store hangs up.
	if n := p.reconnects(); n > 0 && k.sched.Events == nil {
		k.rep.violate("%d client reconnects on a fault-free run (slow-conn drop?)", n)
	}
	r := k.rep
	r.set("setup_s", setup, "s")
	r.set("p50_ms", ref.p50/1e6, "ms")
	r.set("tail_ms", ref.tail/1e6, "ms")
	r.set("success_frac", frac(ref.completed, ref.offered), "ratio")
	r.set("fresh_read_frac", 1-frac(ref.staleReads, ref.reads), "ratio")
	r.set("mem_peak_mb", ref.memMB, "MiB")
	return nil
}

// knee searches the offered rate for the highest one whose p99 stays
// within kneeLimit with nothing shed or failed, in probes that share
// budget. Each probe starts on quiesced servers.
func (k *kvRun) knee(p *plant, budget time.Duration) (kneeResult, error) {
	probeDur := budget / kneeProbes
	probe := func(rate float64) (probeResult, error) {
		p.quiesce()
		res, ph, err := k.drive(p, rate, probeDur, probeInFlight, false, false)
		if err != nil {
			return probeResult{}, err
		}
		lat, _ := ph.samples()
		pr := probeResult{Rate: rate, P99: time.Duration(quantile(lat, 0.99)),
			Shed: res.Shed + res.Deflected, Failed: res.Errors, BehindMax: res.MaxBehind}
		fmt.Printf("knee probe: rate=%.0f p99=%v shed=%d failed=%d loadgen.behind_max=%d pass=%v\n",
			rate, pr.P99, pr.Shed, pr.Failed, pr.BehindMax, pr.passes(kneeLimit))
		return pr, nil
	}
	kr, err := findKnee(probe, refRate, refRate*kneeMaxFactor, kneeResolution, kneeLimit)
	if err != nil {
		return kneeResult{}, err
	}
	bound := ""
	if kr.LowerBound {
		bound = " (lower bound: the search cap passed)"
	}
	fmt.Printf("knee: %.0f op/s after %d probes%s\n", kr.Knee, len(kr.Probes), bound)
	return kr, nil
}

// layerSnap is a reading of every traced instrument; per-layer metrics are
// differences between two readings around the traced reference phase.
type layerSnap struct {
	pick, wait, wb, ops              metrics.LatencySnapshot
	fast, retries                    int64
	timeouts, staleDrops, reconnects int64
	sent, recv                       int64
	tally                            []int64
	batchSum, batchN                 float64
	replySum, replyN                 float64
	wireReads, wireWrites            int64
	bytesIn, bytesOut                int64
	storeOps                         int64
	usage                            procUsage
}

func intHistSum(h *metrics.IntHistogram) (sum, n float64) {
	counts, total := h.Counts()
	for v, c := range counts {
		sum += float64(v) * float64(c)
	}
	return sum, float64(total)
}

func snapLayers(p *plant, in *instruments) layerSnap {
	s := layerSnap{
		pick: in.observer.Pick.Snapshot(), wait: in.observer.QuorumWait.Snapshot(),
		wb: in.observer.WriteBack.Snapshot(), ops: in.observer.Ops.Snapshot(),
		fast:       in.observer.FastReads.Value(),
		timeouts:   in.counters.Timeouts.Value(),
		staleDrops: in.counters.StaleDrops.Value(),
		reconnects: in.counters.Reconnects.Value(),
		sent:       in.counters.MsgsSent.Value(),
		recv:       in.counters.MsgsRecv.Value(),
		tally:      in.tally.Counts(),
		wireReads:  in.wire.reads.Load(), wireWrites: in.wire.writes.Load(),
		bytesIn: in.wire.bytesIn.Load(), bytesOut: in.wire.bytesOut.Load(),
	}
	for _, c := range p.clients {
		s.retries += c.Keyspace().Retries()
	}
	s.storeOps = p.applied()
	s.batchSum, s.batchN = intHistSum(in.batch)
	s.replySum, s.replyN = intHistSum(in.server.ReplyBatch)
	s.usage = readProcUsage()
	return s
}

// latMeanUs is the exact mean, in µs, of the observations between a and b.
func latMeanUs(a, b metrics.LatencySnapshot) float64 {
	return frac(int64(b.Sum-a.Sum), b.Count-a.Count) / 1e3
}

func (k *kvRun) traced() error {
	var p50U, p50T, setupU, setupT []float64
	var kneeRate float64 // 0 on a workload without a knee search
	var ref refResult
	var p *plant
	var in *instruments
	var s0, s1 layerSnap
	for round := 0; round < traceRounds; round++ {
		traced := round%2 == 1
		var setup float64
		var err error
		if p, in, setup, err = k.setup(traced); err != nil {
			return err
		}
		var hook func()
		if traced {
			hook = func() { s0 = snapLayers(p, in) }
		}
		ref, err = k.reference(p, traced, hook)
		if err != nil {
			k.finish(p)
			return err
		}
		if !traced {
			p50U, setupU = append(p50U, ref.p50), append(setupU, setup)
			if k.spec.knee && round == traceRounds-2 {
				kr, err := k.knee(p, k.opt.seconds/kneeDiv)
				if err != nil {
					k.finish(p)
					return err
				}
				kneeRate = kr.Knee
			}
			k.finish(p)
			continue
		}
		p50T, setupT = append(p50T, ref.p50), append(setupT, setup)
		s1 = snapLayers(p, in)
		if n := in.server.SlowConnDrops.Value(); n > 0 {
			k.rep.violate("%d slow-conn drops", n)
		}
		if round < traceRounds-1 {
			k.finish(p)
		}
	}
	// Per-layer numbers come from the last traced round.
	ops := ref.completed
	perOp := func(a, b int64) float64 { return frac(b-a, ops) }
	perKop := func(a, b int64) float64 { return 1000 * frac(b-a, ops) }

	n := int64(len(ref.svc))
	late := frac(ref.sumLate, n) / 1e3
	issue := frac(ref.issueNs, ref.subms) / 1e3
	client := frac(ref.sumSvc, n) / 1e3
	service := latMeanUs(s0.ops, s1.ops)
	queueWait := client - issue - service
	driverMean := ref.driverSum / float64(ref.completed) / 1e3
	unattributed := 0.0
	if driverMean > 0 {
		unattributed = (driverMean - (late + issue + queueWait + service)) / driverMean
	}
	fmt.Printf("budget: late %.2fus + issue %.2fus + queue wait %.2fus + Observer.Ops %.2fus vs driver mean %.2fus: unattributed %.4f (tolerance %.2f)\n",
		late, issue, queueWait, service, driverMean, unattributed, budgetTolerance)
	if math.Abs(unattributed) > budgetTolerance {
		k.rep.violate("latency budget residual %.4f exceeds tolerance %.2f", unattributed, budgetTolerance)
	}
	wbN := s1.wb.Count - s0.wb.Count
	tally := make([]int64, len(s1.tally))
	for i := range tally {
		tally[i] = s1.tally[i] - s0.tally[i]
	}
	keys := 0
	for _, st := range p.stores {
		keys += st.Keys()
	}
	cpuUs, allocB, gcKop := s1.usage.perOp(s0.usage, ops)
	measuredStale := frac(ref.staleReads, ref.reads)

	r := k.rep
	// The budget's parts as shares of the driver's mean latency.
	r.set("loadgen.late_frac", late/driverMean, "ratio")
	r.set("loadgen.behind_max", float64(ref.behindMax), "count")
	r.set("register.issue_frac", issue/driverMean, "ratio")
	r.set("register.client_us_p50", quantile(ref.svc, 0.50)/1e3, "us")
	r.set("register.client_us_p99", quantile(ref.svc, 0.99)/1e3, "us")
	r.set("register.queue_wait_frac", queueWait/driverMean, "ratio")
	r.set("register.pick_us_mean", latMeanUs(s0.pick, s1.pick), "us")
	r.set("register.quorum_wait_us_mean", latMeanUs(s0.wait, s1.wait), "us")
	r.set("register.write_back_time_frac", ratioF(float64(s1.wb.Sum-s0.wb.Sum), float64(s1.ops.Sum-s0.ops.Sum)), "ratio")
	r.set("register.write_back_frac", frac(wbN, wbN+s1.fast-s0.fast), "ratio")
	r.set("register.retries_per_kop", perKop(s0.retries, s1.retries), "1/kop")
	r.set("register.inflight_max", float64(in.inflight.Max()), "count")
	r.set("quorum.load_imbalance", imbalance(tally), "ratio")
	r.set("tcp.msgs_sent_per_op", perOp(s0.sent, s1.sent), "count")
	r.set("tcp.msgs_recv_per_op", perOp(s0.recv, s1.recv), "count")
	r.set("tcp.frame_batch_mean", ratioF(s1.batchSum-s0.batchSum, s1.batchN-s0.batchN), "count")
	r.set("tcp.timeouts_per_kop", perKop(s0.timeouts, s1.timeouts), "1/kop")
	r.set("tcp.stale_drops_per_kop", perKop(s0.staleDrops, s1.staleDrops), "1/kop")
	r.set("tcp.reconnects", float64(s1.reconnects-s0.reconnects), "count")
	r.set("tcp.server.reply_batch_mean", ratioF(s1.replySum-s0.replySum, s1.replyN-s0.replyN), "count")
	r.set("tcp.server.queue_depth_max", float64(in.server.QueueDepth.Max()), "count")
	r.set("tcp.server.slow_conn_drops", float64(in.server.SlowConnDrops.Value()), "count")
	r.set("tcp.server.read_calls_per_op", perOp(s0.wireReads, s1.wireReads), "count")
	r.set("tcp.server.write_calls_per_op", perOp(s0.wireWrites, s1.wireWrites), "count")
	r.set("tcp.server.bytes_in_per_op", perOp(s0.bytesIn, s1.bytesIn), "B")
	r.set("tcp.server.bytes_out_per_op", perOp(s0.bytesOut, s1.bytesOut), "B")
	r.set("replica.applies_per_op", perOp(s0.storeOps, s1.storeOps), "count")
	r.set("replica.keys", float64(keys)/float64(len(p.stores)), "count")
	r.set("analysis.stale_pred", k.spec.stalePred(), "ratio")
	r.set("analysis.stale_gap", measuredStale-k.spec.stalePred(), "ratio")
	r.set("process.alloc_bytes_per_op", allocB, "B")
	r.set("process.gc_per_kop", gcKop, "1/kop")
	r.set("process.cpu_us_per_op", cpuUs, "us")
	r.set("budget.unattributed_frac", unattributed, "ratio")
	r.set("loadgen.knee_ops_per_s", kneeRate, "op/s")
	setLayerCommon(r, median(p50U), median(p50T), median(setupU), median(setupT))
	k.finish(p)
	return measureACO(r, k.opt.seed, k.opt.seconds/acoDiv)
}

// imbalance is max/mean of per-server access counts (1 is even), as
// metrics.AccessTally.Imbalance computes it, over a delta of counts.
func imbalance(counts []int64) float64 {
	var top, sum int64
	for _, c := range counts {
		top = max(top, c)
		sum += c
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(counts)))
}

// setLayerCommon sets the per-layer metrics every workload reports the same
// way: the wire codec on an APSP row and the tracing overhead.
func setLayerCommon(r *report, p50Untraced, p50Traced, setupUntraced, setupTraced float64) {
	enc, dec := rowCodecNs()
	r.set("msg.row_encode_ns", enc, "ns")
	r.set("msg.row_decode_ns", dec, "ns")
	r.set("trace.overhead_pct", 100*(p50Traced-p50Untraced)/p50Untraced, "%")
	r.set("trace.setup_overhead_pct", 100*(setupTraced-setupUntraced)/setupUntraced, "%")
}
