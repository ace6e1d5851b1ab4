package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/loadgen"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

// Load shape shared by every kv workload: two keyspace clients of four
// shards each, dialled straight to the servers (no link proxies), with the
// same per-op deadline as cmd/loadgen.
const (
	kvClients   = 2
	kvShards    = 4
	kvOpTimeout = 250 * time.Millisecond
)

// instruments are the layers' own exported meters, attached only in the
// traced run. One of each is shared by every client or every server, so
// each reads as a deployment-wide total.
type instruments struct {
	observer *register.Observer
	counters *metrics.TransportCounters
	tally    *metrics.AccessTally
	inflight *metrics.Gauge
	batch    *metrics.IntHistogram
	server   *metrics.ServerMetrics
	wire     *connCounts
}

func newInstruments(servers int) *instruments {
	return &instruments{
		observer: &register.Observer{},
		counters: &metrics.TransportCounters{},
		tally:    metrics.NewAccessTally(servers),
		inflight: &metrics.Gauge{},
		batch:    metrics.NewIntHistogram(),
		server:   metrics.NewServerMetrics(),
		wire:     &connCounts{},
	}
}

// plant is an in-process replica cluster served over loopback TCP and the
// keyspace clients dialled to it. It implements faults.Plant for crash
// schedules only: the benchmark's fault arm crashes stores, and every
// network-shaped action would need the link proxies this plant leaves out.
type plant struct {
	stores  []*replica.Store
	servers []*tcp.Server
	clients []*tcp.KeyspaceClient
}

var _ faults.Plant = (*plant)(nil)

// startPlant starts n servers and dials the clients. inst may be nil.
func startPlant(n int, sys quorum.System, seed uint64, inst *instruments) (*plant, error) {
	p := &plant{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		st := replica.New(msg.NodeID(i), nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		var opts []tcp.ServerOption
		if inst != nil {
			ln = countingListener{Listener: ln, c: inst.wire}
			opts = append(opts, tcp.WithServerMetrics(inst.server))
		}
		srv := tcp.Serve(st, ln, opts...)
		p.stores = append(p.stores, st)
		p.servers = append(p.servers, srv)
		addrs[i] = srv.Addr()
	}
	for c := 0; c < kvClients; c++ {
		opts := []tcp.ClientOption{
			tcp.WithOpTimeout(kvOpTimeout),
			tcp.WithWriter(int32(c + 1)),
			tcp.WithSeed(seed*kvClients + uint64(c) + 1),
		}
		if inst != nil {
			opts = append(opts,
				tcp.WithObserver(inst.observer),
				tcp.WithTransportCounters(inst.counters),
				tcp.WithTally(inst.tally),
				tcp.WithInFlightGauge(inst.inflight),
				tcp.WithBatchHistogram(inst.batch))
		}
		cl, err := tcp.DialKeyspace(addrs, sys, kvShards, opts...)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
		p.clients = append(p.clients, cl)
	}
	return p, nil
}

func (p *plant) targets() []loadgen.Target {
	out := make([]loadgen.Target, len(p.clients))
	for i, c := range p.clients {
		out[i] = c
	}
	return out
}

func (p *plant) close() {
	for _, c := range p.clients {
		c.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
}

// reconnects sums the clients' re-dials. The clients count them even when
// not instrumented.
func (p *plant) reconnects() int64 {
	var n int64
	for _, c := range p.clients {
		n += c.Counters().Reconnects.Value()
	}
	return n
}

// applied is the number of requests the servers have applied.
func (p *plant) applied() (n int64) {
	for _, st := range p.stores {
		r, w := st.Stats()
		n += r + w
	}
	return n
}

// quiesce waits until the servers have applied no request for 20ms, at
// most 3s. After an overloaded phase, requests whose ops already timed out
// and retried elsewhere can still be queued at the servers; the next phase
// must not inherit them.
func (p *plant) quiesce() {
	last := p.applied()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		n := p.applied()
		if n == last {
			return
		}
		last = n
	}
}

// NumServers implements faults.Plant.
func (p *plant) NumServers() int { return len(p.stores) }

func (p *plant) store(i int) (*replica.Store, error) {
	if i < 0 || i >= len(p.stores) {
		return nil, fmt.Errorf("server %d out of range [0,%d)", i, len(p.stores))
	}
	return p.stores[i], nil
}

// Crash implements faults.Plant: the store drops every request until
// Recover.
func (p *plant) Crash(i int) error {
	st, err := p.store(i)
	if err != nil {
		return err
	}
	st.Crash()
	return nil
}

// Recover implements faults.Plant.
func (p *plant) Recover(i int) error {
	st, err := p.store(i)
	if err != nil {
		return err
	}
	st.Recover()
	return nil
}

var errCrashOnly = errors.New("benchmark plant supports crash and recover only")

// Slow implements faults.Plant; it always fails.
func (p *plant) Slow(int, time.Duration) error { return errCrashOnly }

// Partition implements faults.Plant; it always fails.
func (p *plant) Partition([]int) error { return errCrashOnly }

// Heal implements faults.Plant; it always fails.
func (p *plant) Heal() error { return errCrashOnly }

// Grow implements faults.Plant; it always fails.
func (p *plant) Grow(int) error { return errCrashOnly }

// Shrink implements faults.Plant; it always fails.
func (p *plant) Shrink(int) error { return errCrashOnly }

// connCounts totals the socket calls and bytes of every accepted server
// connection: what the serve loop and its reply writer cost in syscalls.
type connCounts struct {
	reads, writes, bytesIn, bytesOut atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}
