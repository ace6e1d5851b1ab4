package register

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probquorum/internal/analysis"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/transport"
)

// suspectEngine returns an engine over sys whose picks consult mask, the way
// a transport-bound pipeline wires its suspicion in.
func suspectEngine(sys quorum.System, seed uint64, mask *atomic.Uint64) *Engine {
	e := NewEngine(1, sys, rand.New(rand.NewPCG(seed, 99)))
	e.suspect = mask
	return e
}

// chiSquareCritical approximates the chi-square quantile at upper tail
// 0.001 for df degrees of freedom (Wilson–Hilferty).
func chiSquareCritical(df int) float64 {
	const z = 3.09
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// TestSuspectedPicksUniformOverLive counts picks per k-subset with one and
// two suspects, through every pick path the pipeline uses (first attempts,
// retries, and writes): no pick contains a suspect, every live k-subset
// appears, and the counts pass a chi-square test against the uniform
// distribution over the live k-subsets — the uniform choice the
// Malkhi–Reiter–Wright overlap bound assumes.
func TestSuspectedPicksUniformOverLive(t *testing.T) {
	cases := []struct {
		sys      quorum.System
		suspects []int
	}{
		{quorum.NewProbabilistic(9, 3), []int{4}},
		{quorum.NewProbabilistic(9, 3), []int{1, 6}},
		{quorum.NewMajority(5), []int{1}},
		{quorum.NewMajority(5), []int{0, 3}},
	}
	const picks = 60000
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/suspects=%v", c.sys.Name(), c.suspects), func(t *testing.T) {
			var mask atomic.Uint64
			for _, s := range c.suspects {
				mask.Store(mask.Load() | 1<<uint(s))
			}
			e := suspectEngine(c.sys, 5, &mask)
			counts := map[string]int{}
			var rs *ReadSession
			for i := 0; i < picks; i++ {
				var q []int
				switch i % 3 {
				case 0:
					rs = e.BeginRead(0)
					q = rs.Quorum
				case 1:
					rs = e.RetryRead(rs)
					q = rs.Quorum
				default:
					q = e.BeginWrite(0, 1.0).Quorum
				}
				q = slices.Clone(q)
				slices.Sort(q)
				for _, s := range c.suspects {
					if slices.Contains(q, s) {
						t.Fatalf("pick %v contains suspect %d", q, s)
					}
				}
				counts[fmt.Sprint(q)]++
			}
			live := c.sys.N() - len(c.suspects)
			subsets := int(math.Round(analysis.Binomial(live, c.sys.Size())))
			if len(counts) != subsets {
				t.Fatalf("%d distinct quorums picked, want all %d live %d-subsets",
					len(counts), subsets, c.sys.Size())
			}
			if subsets == 1 {
				return
			}
			want := float64(picks) / float64(subsets)
			var chi2 float64
			for _, n := range counts {
				chi2 += (float64(n) - want) * (float64(n) - want) / want
			}
			if crit := chiSquareCritical(subsets - 1); chi2 > crit {
				t.Fatalf("chi-square %.1f over %d live subsets exceeds %.1f: picks not uniform",
					chi2, subsets, crit)
			}
		})
	}
}

// TestSuspicionPickFallback: with fewer than Size() unsuspected servers no
// quorum avoids the suspects, so picks fall back to the ordinary draw — the
// very stream an engine without suspicion produces. A zero mask leaves the
// stream untouched too.
func TestSuspicionPickFallback(t *testing.T) {
	for _, c := range []struct {
		sys      quorum.System
		mask     uint64
		fallback bool
	}{
		{quorum.NewProbabilistic(9, 3), 0, true},      // nothing suspected
		{quorum.NewMajority(5), 0b10101, true},        // 2 live < 3
		{quorum.NewMajority(7), 0b1111000, true},      // 3 live < 4
		{quorum.NewProbabilistic(9, 3), 0x1fc, true},  // 2 live < 3
		{quorum.NewProbabilistic(9, 3), 0x1ff, true},  // everything suspected
		{quorum.NewSingleton(5, 2), 1 << 2, true},     // the one quorum is suspect
		{quorum.NewAll(4), 1 << 1, true},              // no quorum avoids any server
		{quorum.NewProbabilistic(9, 3), 0x1f8, false}, // 3 live = k
		{quorum.NewMajority(5), 0b00110, false},       // 3 live = k
		{quorum.NewSingleton(5, 2), 1 << 4, false},    // suspect outside the quorum
		{quorum.NewGrid(3, 3), 1 << 4, false},         // rejection sampling
	} {
		var mask atomic.Uint64
		mask.Store(c.mask)
		got := suspectEngine(c.sys, 3, &mask)
		plain := NewEngine(1, c.sys, rand.New(rand.NewPCG(3, 99)))
		var rs, prs *ReadSession
		for i := 0; i < 50; i++ {
			if i == 0 {
				rs, prs = got.BeginRead(0), plain.BeginRead(0)
			} else {
				rs, prs = got.RetryRead(rs), plain.RetryRead(prs)
			}
			if c.fallback && !slices.Equal(rs.Quorum, prs.Quorum) {
				t.Fatalf("%s mask %#x: fallback pick %v, plain engine picked %v",
					c.sys.Name(), c.mask, rs.Quorum, prs.Quorum)
			}
			if !c.fallback && quorumTouches(rs.Quorum, c.mask) {
				t.Fatalf("%s mask %#x: pick %v touches a suspect although a quorum avoids them",
					c.sys.Name(), c.mask, rs.Quorum)
			}
		}
	}
}

func quorumTouches(q []int, mask uint64) bool {
	for _, s := range q {
		if mask&(1<<uint(s)) != 0 {
			return true
		}
	}
	return false
}

// TestLiveReadOverlapMonteCarlo draws write quorums before any suspicion
// and read quorums after two servers became suspect, all through a
// suspicion-aware Engine, and checks the measured non-overlap rate against
// analysis.LiveNonOverlapProb: per suspect count j of the write quorum,
// averaged over j (which must equal NonOverlapProb(n,k) — the rate the
// rr-zipf oracle bounds), and for writes also drawn from the live set
// (NonOverlapProb(n−f,k)).
func TestLiveReadOverlapMonteCarlo(t *testing.T) {
	const n, k, f, trials = 9, 3, 2, 120000
	const suspects = uint64(1<<2 | 1<<7)
	var mask atomic.Uint64
	e := suspectEngine(quorum.NewProbabilistic(n, k), 11, &mask)
	// within reports whether a measured rate over m trials lies within five
	// standard errors of p.
	within := func(hits, m int, p float64) bool {
		se := math.Sqrt(p * (1 - p) / float64(m))
		return math.Abs(float64(hits)/float64(m)-p) <= 5*se+1e-9
	}
	var missJ, totalJ [k + 1]int
	miss, missLive := 0, 0
	for i := 0; i < trials; i++ {
		mask.Store(0)
		w := e.BeginWrite(0, 1.0).Quorum
		mask.Store(suspects)
		r := e.BeginRead(0).Quorum
		wl := e.BeginWrite(1, 1.0).Quorum
		j := 0
		for _, s := range w {
			if suspects&(1<<uint(s)) != 0 {
				j++
			}
		}
		totalJ[j]++
		if !quorum.Overlaps(r, w) {
			missJ[j]++
			miss++
		}
		if !quorum.Overlaps(r, wl) {
			missLive++
		}
	}
	for j := 0; j <= k; j++ {
		if totalJ[j] == 0 {
			continue
		}
		if p := analysis.LiveNonOverlapProb(n, k, f, j); !within(missJ[j], totalJ[j], p) {
			t.Errorf("j=%d: non-overlap %d/%d, predicted %.4f", j, missJ[j], totalJ[j], p)
		}
	}
	if p := analysis.NonOverlapProb(n, k); !within(miss, trials, p) {
		t.Errorf("pre-suspicion writes: non-overlap %d/%d, want NonOverlapProb(%d,%d) = %.4f",
			miss, trials, n, k, p)
	}
	if p := analysis.NonOverlapProb(n-f, k); !within(missLive, trials, p) {
		t.Errorf("live-set writes: non-overlap %d/%d, want NonOverlapProb(%d,%d) = %.4f",
			missLive, trials, n-f, k, p)
	}
}

// flakyNet is an in-process transport over replica stores whose servers
// can be taken down: requests to a down server vanish silently, and the
// test injects the per-server error event a hung-up connection produces.
type flakyNet struct {
	mu     sync.Mutex
	stores []*replica.Store
	down   []bool
	sent   []int
	sink   transport.Sink
}

func newFlakyNet(n int) *flakyNet {
	f := &flakyNet{stores: make([]*replica.Store, n), down: make([]bool, n), sent: make([]int, n)}
	for i := range f.stores {
		f.stores[i] = replica.New(msg.NodeID(i), nil)
	}
	return f
}

func (f *flakyNet) N() int                   { return len(f.stores) }
func (f *flakyNet) Bind(sink transport.Sink) { f.sink = sink }
func (f *flakyNet) Close() error             { return nil }

func (f *flakyNet) Send(server int, req any) error {
	f.mu.Lock()
	f.sent[server]++
	down := f.down[server]
	f.mu.Unlock()
	if !down {
		if reply, ok := f.stores[server].Apply(req); ok {
			f.sink(server, reply, nil)
		}
	}
	return nil
}

func (f *flakyNet) setDown(server int, down bool) {
	f.mu.Lock()
	f.down[server] = down
	f.mu.Unlock()
}

func (f *flakyNet) sentTo(server int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[server]
}

// TestPipelineSuspicionLifecycle drives the three suspicion inputs through
// a transport-bound pipeline: a per-server error event makes a server
// suspect and later picks avoid it; probes reach it once per op timeout
// without counting toward any quorum, and its first reply clears it; a
// member silent through an op timeout becomes suspect too.
func TestPipelineSuspicionLifecycle(t *testing.T) {
	const timeout = 30 * time.Millisecond
	net := newFlakyNet(5)
	tally := metrics.NewAccessTally(5)
	tc := &metrics.TransportCounters{}
	e := NewEngine(1, quorum.NewMajority(5), rand.New(rand.NewPCG(1, 2)), WithTally(tally))
	p := NewPipelineOver(e, net, PipeTimeout(timeout, 0), PipeCounters(tc))
	defer p.Close(nil)

	// Drop event: server 1 is suspect, and no quorum picks it while it is.
	net.setDown(1, true)
	net.sink(1, nil, errors.New("recv: connection reset"))
	if got := p.Suspected(); got != 1<<1 || tc.Suspicions.Value() != 1 {
		t.Fatalf("after drop event: Suspected=%#b Suspicions=%d, want %#b and 1",
			got, tc.Suspicions.Value(), 1<<1)
	}
	before := tally.Counts()[1]
	for i := 0; i < 200; i++ {
		if err := p.Write(msg.RegisterID(i%7), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tally.Counts()[1]; got != before {
		t.Fatalf("suspected server 1 picked %d times", got-before)
	}
	if p.Retries() != 0 {
		t.Fatalf("%d retries with a suspected (not picked) server down", p.Retries())
	}

	// Probes: while 1 stays down, ops keep completing and 1 keeps receiving
	// at most one probe per op timeout.
	probes0 := net.sentTo(1)
	start := time.Now()
	for time.Since(start) < 5*timeout {
		if _, err := p.Read(3); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	probes := net.sentTo(1) - probes0
	if elapsed := time.Since(start); probes < 2 || probes > int(elapsed/timeout)+1 {
		t.Fatalf("%d probes in %v at one per %v", probes, elapsed, timeout)
	}
	if p.Suspected() != 1<<1 {
		t.Fatalf("down server cleared: Suspected=%#b", p.Suspected())
	}

	// Recovery: the next probe's reply clears the suspicion.
	net.setDown(1, false)
	deadline := time.Now().Add(20 * timeout)
	for p.Suspected() != 0 && time.Now().Before(deadline) {
		if _, err := p.Read(3); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if p.Suspected() != 0 || tc.Rejoins.Value() != 1 {
		t.Fatalf("after recovery: Suspected=%#b Rejoins=%d, want 0 and 1",
			p.Suspected(), tc.Rejoins.Value())
	}

	// Timeout path: a silently partitioned server becomes suspect at the
	// first op timeout its silence causes.
	net.setDown(3, true)
	for i := 0; p.Suspected() == 0; i++ {
		if i == 200 {
			t.Fatal("silent server never suspected")
		}
		if err := p.Write(msg.RegisterID(i%7), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Suspected(); got != 1<<3 {
		t.Fatalf("after a timeout: Suspected=%#b, want %#b", got, 1<<3)
	}
	if tc.Suspicions.Value() != 2 {
		t.Fatalf("Suspicions=%d, want 2", tc.Suspicions.Value())
	}
}
