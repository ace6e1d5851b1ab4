package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
	"probquorum/internal/register"
)

// fakeOp is one scripted operation against fakeTarget.
type fakeOp struct {
	kind loadgen.OpKind
	key  msg.RegisterID
	// For reads: the write sequence the read returns (0 = never written)
	// and, when set, the key encoded in the returned value.
	ret    uint32
	retKey *msg.RegisterID
	err    error
	// hold defers a write's acknowledgement until a later op with release.
	hold, release bool
}

// fakeTarget answers each call synchronously from the script, except held
// writes, which complete when a later op releases them.
type fakeTarget struct {
	script []fakeOp
	next   int
	held   []func()
}

func (f *fakeTarget) take() fakeOp {
	op := f.script[f.next]
	f.next++
	if op.release {
		for _, ack := range f.held {
			ack()
		}
		f.held = nil
	}
	return op
}

func (f *fakeTarget) read(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	op := f.take()
	if op.err != nil {
		fn(msg.Tagged{}, op.err)
		return nil
	}
	var tag msg.Tagged
	if op.ret > 0 {
		k := key
		if op.retKey != nil {
			k = *op.retKey
		}
		tag = msg.Tagged{TS: msg.Timestamp{Seq: uint64(op.ret), Writer: 1}, Val: loadgen.EncodeValue(k, op.ret)}
	}
	fn(tag, nil)
	return nil
}

func (f *fakeTarget) ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return f.read(key, fn)
}

func (f *fakeTarget) ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return f.read(key, fn)
}

func (f *fakeTarget) WriteAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *register.PendingOp {
	op := f.take()
	ack := func() { fn(msg.Tagged{Val: val}, op.err) }
	if op.hold {
		f.held = append(f.held, ack)
	} else {
		ack()
	}
	return nil
}

func TestOracle(t *testing.T) {
	other := msg.RegisterID(9)
	w := func(key msg.RegisterID) fakeOp { return fakeOp{kind: loadgen.OpWrite, key: key} }
	r := func(key msg.RegisterID, ret uint32) fakeOp { return fakeOp{kind: loadgen.OpRead, key: key, ret: ret} }
	tests := []struct {
		name      string
		strict    bool
		pred      float64
		ops       []fakeOp
		wantStale int64
		wantErr   string // substring of a violation; "" wants none
	}{
		{
			name: "fresh read after write", strict: true,
			ops: []fakeOp{w(1), r(1, 1)},
		},
		{
			name: "read of a never-written key", strict: true,
			ops: []fakeOp{r(1, 0)},
		},
		{
			name: "newer value than the floor is fresh", strict: true,
			ops: []fakeOp{w(1), {kind: loadgen.OpWrite, key: 1, hold: true}, r(1, 2)},
		},
		{
			name: "stale read on a strict system", strict: true,
			ops:       []fakeOp{w(1), w(1), r(1, 1)},
			wantStale: 1, wantErr: "strict quorum",
		},
		{
			name: "unacknowledged write does not raise the floor", strict: true,
			ops: []fakeOp{w(1), {kind: loadgen.OpWrite, key: 1, hold: true}, r(1, 1),
				{kind: loadgen.OpRead, key: 1, ret: 2, release: true}},
		},
		{
			name: "acknowledged after release raises the floor", strict: true,
			ops: []fakeOp{{kind: loadgen.OpWrite, key: 1, hold: true},
				{kind: loadgen.OpRead, key: 1, ret: 0, release: true}, r(1, 0)},
			wantStale: 1, wantErr: "strict quorum",
		},
		{
			name: "failed write does not raise the floor", strict: true,
			ops: []fakeOp{{kind: loadgen.OpWrite, key: 1, err: errors.New("timeout")}, r(1, 0)},
		},
		{
			name: "failed read is not counted", strict: true,
			ops: []fakeOp{w(1), w(1), {kind: loadgen.OpRead, key: 1, err: errors.New("closed")}},
		},
		{
			name: "floors are per key", strict: true,
			ops: []fakeOp{w(1), w(1), w(2), r(2, 1), r(1, 2)},
		},
		{
			name: "isolation violation", strict: true,
			ops:     []fakeOp{w(1), {kind: loadgen.OpRead, key: 1, ret: 1, retKey: &other}},
			wantErr: "another key",
		},
		{
			name: "stale atomic read is always a violation", pred: 0.5,
			ops:       []fakeOp{w(1), w(1), {kind: loadgen.OpAtomicRead, key: 1, ret: 1}},
			wantErr:   "atomic reads were stale",
			wantStale: 0,
		},
		{
			name: "stale share within prediction", pred: 0.5,
			ops:       []fakeOp{w(1), w(1), r(1, 1), r(1, 2), r(1, 2), r(1, 1)},
			wantStale: 2,
		},
		{
			name: "stale share above prediction plus margin", pred: 0.01,
			ops:       []fakeOp{w(1), w(1), r(1, 1), r(1, 1), r(1, 1), r(1, 2)},
			wantStale: 3, wantErr: "exceeds predicted",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fake := &fakeTarget{script: tt.ops}
			o := newOracle(16)
			o.ph = newPhase(1000, time.Second, maxInFlight, false)
			tgt := o.targets([]loadgen.Target{fake})[0]
			done := func(msg.Tagged, error) {}
			for fake.next < len(fake.script) {
				op := fake.script[fake.next]
				switch op.kind {
				case loadgen.OpRead:
					tgt.ReadAsyncFunc(op.key, done)
				case loadgen.OpAtomicRead:
					tgt.ReadAtomicAsyncFunc(op.key, done)
				default:
					tgt.WriteAsyncFunc(op.key, nil, done)
				}
			}
			if got := o.stale.Load(); got != tt.wantStale {
				t.Errorf("stale reads = %d, want %d", got, tt.wantStale)
			}
			v := strings.Join(o.violations(tt.strict, tt.pred), "; ")
			switch {
			case tt.wantErr == "" && v != "":
				t.Errorf("unexpected violations: %s", v)
			case tt.wantErr != "" && !strings.Contains(v, tt.wantErr):
				t.Errorf("violations %q, want one containing %q", v, tt.wantErr)
			}
		})
	}
}

// TestPhaseSchedule pins the scheduled-instant reconstruction on a
// 1ms-per-slot phase with an in-flight cap of 2.
func TestPhaseSchedule(t *testing.T) {
	tests := []struct {
		name     string
		submits  []float64 // ms after the first submit
		inflight []int64   // oracle in-flight count after each submit
		wantLate []float64 // ms, per submit
	}{
		{
			name:     "on time",
			submits:  []float64{0, 1, 2, 3},
			inflight: []int64{1, 1, 1, 1},
			wantLate: []float64{0, 0, 0, 0},
		},
		{
			// The first submit went out 0.3ms late; a later one on time
			// moves the start back.
			name:     "late first submit",
			submits:  []float64{0, 0.7, 1.7},
			inflight: []int64{1, 1, 1},
			wantLate: []float64{0.3, 0, 0},
		},
		{
			name:     "running behind keeps consecutive slots",
			submits:  []float64{0, 4, 4.1, 4.2},
			inflight: []int64{1, 1, 1, 1},
			wantLate: []float64{0, 3, 2.1, 1.2},
		},
		{
			// After the cap was reached slots 2-4 were shed: the run from
			// 5.2 on is placed as late as its submits allow.
			name:     "shed slots",
			submits:  []float64{0, 1, 5.2, 6.1, 7.4},
			inflight: []int64{1, 2, 1, 1, 1},
			wantLate: []float64{0, 0, 0.2, 0.1, 0.4},
		},
		{
			// A cap reached without any shed: the next submit, behind
			// schedule, still takes the next slot because a later submit
			// of its run was on time.
			name:     "cap reached, nothing shed",
			submits:  []float64{0, 1, 2.9, 3.0, 4.0},
			inflight: []int64{1, 2, 1, 1, 1},
			wantLate: []float64{0, 0, 0.9, 0, 0},
		},
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ph := newPhase(1000, time.Second, 2, false)
			t0 := time.Unix(100, 0)
			for i, at := range tt.submits {
				idx := ph.submit(t0.Add(ms(at)))
				ph.inflight.Store(tt.inflight[i])
				ph.afterSubmit()
				ph.record(idx, ms(1))
			}
			ph.finish()
			lat, _ := ph.samples()
			for i, want := range tt.wantLate {
				if got := time.Duration(lat[i]) - ms(1); (got - ms(want)).Abs() > time.Microsecond {
					t.Errorf("submit %d: lateness %v, want %v", i, got, ms(want))
				}
			}
		})
	}
}
