package register

import (
	"sync/atomic"
	"time"

	"probquorum/internal/metrics"
)

// suspicion is the per-replica failure detector of a transport-bound
// Pipeline or Keyspace (one per client, shared by its shards). The paper's
// availability argument (Section 4) is that a probabilistic-quorum client
// depends on no particular quorum; suspicion makes the retry act on it.
// Without it every retry draws a fresh uniform quorum, which at n=5, k=3
// holds a crashed replica with probability 0.6, so an op re-hits the dead
// server timeout after timeout for the whole crash window. With it a crash
// costs the ops caught in flight one timeout, and later picks draw only
// among the live servers.
//
// A server becomes suspect on the transport's per-server error event (a
// crashed store hanging up) or when it is a quorum member whose reply never
// came before an op timed out. It is cleared by any reply from it, late
// stale-dropped ones included, so an overloaded but live replica clears
// itself. While any server is suspect, one in-flight request per interval
// (the op timeout) is also sent to every suspect outside its quorum as a
// probe; it never counts toward a quorum, since sessions ignore replies from
// non-members, so a recovered replica rejoins on its first reply.
//
// mask holds one bit per server index (servers past 63 are never
// suspected, the sessions' 64-member cap). The engines read it on every
// pick; a zero mask keeps the pick path and its random stream exactly as
// without suspicion.
type suspicion struct {
	mask      atomic.Uint64
	base      time.Time
	interval  time.Duration
	lastProbe atomic.Int64 // time.Since(base) of the last probe round
	counters  *metrics.TransportCounters
}

func newSuspicion(interval time.Duration, tc *metrics.TransportCounters) *suspicion {
	return &suspicion{base: time.Now(), interval: interval, counters: tc}
}

// suspect marks server as suspected. Like heard, it is a no-op on a nil
// suspicion (a pipeline without an op deadline).
func (s *suspicion) suspect(server int) {
	if s == nil || server < 0 || server >= 64 {
		return
	}
	bit := uint64(1) << uint(server)
	for {
		m := s.mask.Load()
		if m&bit != 0 {
			return
		}
		if s.mask.CompareAndSwap(m, m|bit) {
			if m == 0 {
				// The first probe round comes one interval after the
				// first suspicion, not at once.
				s.lastProbe.Store(int64(time.Since(s.base)))
			}
			if s.counters != nil {
				s.counters.Suspicions.Inc()
			}
			return
		}
	}
}

// heard clears server's suspicion: it just replied. The healthy path costs
// one atomic load.
func (s *suspicion) heard(server int) {
	if s == nil || server < 0 || server >= 64 {
		return
	}
	bit := uint64(1) << uint(server)
	for {
		m := s.mask.Load()
		if m&bit == 0 {
			return
		}
		if s.mask.CompareAndSwap(m, m&^bit) {
			if s.counters != nil {
				s.counters.Rejoins.Inc()
			}
			return
		}
	}
}

// probeTargets returns the suspects to probe now, claiming the current
// probe round for the caller: zero unless something is suspected and an
// interval has passed since the last round.
func (s *suspicion) probeTargets() uint64 {
	m := s.mask.Load()
	if m == 0 {
		return 0
	}
	now := int64(time.Since(s.base))
	last := s.lastProbe.Load()
	if now-last < int64(s.interval) || !s.lastProbe.CompareAndSwap(last, now) {
		return 0
	}
	return m
}
