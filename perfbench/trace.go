package main

import (
	"sync"
	"time"

	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/sandbox"
	"repro/internal/session"
	"repro/internal/targets"
)

// This file holds the traced run's seams: wrappers that time the calls a
// campaign makes into a target (Handle, ResetSession) or an execution
// backend (Run), from the benchmark's side of those interfaces. Nothing
// inside the program is instrumented. A wrapper must not change what the
// campaign sees, so each one forwards every optional interface its inner
// value implements — the in-process executor probes the target for state
// checkpointing and session resets, the engine probes the executor for
// session boundaries and checkpoint state — and the serial workloads
// check that a traced campaign's Stats equal the untraced one's.

// covSampleEvery spaces the timed PathHash/HitCounts/CountEdges probes:
// timing all three after every Handle would triple the tracing cost.
const covSampleEvery = 8

// maxCaptures bounds the valuable packets kept for the crack replay.
const maxCaptures = 4096

// sink keeps the replay's results alive so the compiler cannot drop a
// call; the replay runs on one goroutine. (The seams keep theirs in
// seamRec.sink: fleet workers record concurrently.)
var sink uint64

// seamRec accumulates what one wrapper observed. A wrapper is driven by
// one worker goroutine; the fleet workload gives each worker its own.
type seamRec struct {
	calls  int64 // Handle or Run calls
	faults int64 // Handle calls that panicked (crash or hang), Run calls that crashed
	handle hist  // Handle duration
	reset  hist  // ResetSession duration
	busy   time.Duration

	// coverage, observed on the live tracer right after each call
	shadow    *coverage.Virgin
	hits      *coverage.HitCounts
	merge     hist
	pathhash  hist
	hitcounts hist
	edges     int64 // summed CountEdges over the sampled calls
	sampled   int64
	captured  [][]byte // packets that lit new shadow coverage
	sink      uint64

	// process backend only
	run      hist      // latency of Run calls that neither hung nor respawned
	respawn  []float64 // ms, Run calls that respawned the target
	hangWait time.Duration
}

func newSeamRec() *seamRec {
	return &seamRec{shadow: coverage.NewVirgin(), hits: coverage.NewHitCounts()}
}

// observe runs the coverage layer's per-execution operations on the
// tracer the call just filled, timing each. It is read-only on the tracer.
func (r *seamRec) observe(tr *coverage.Tracer, packet []byte) {
	t0 := time.Now()
	novel := r.shadow.MergeTracer(tr)
	r.merge.add(time.Since(t0))
	if novel && len(r.captured) < maxCaptures {
		r.captured = append(r.captured, append([]byte(nil), packet...))
	}
	if r.calls%covSampleEvery != 0 {
		return
	}
	t0 = time.Now()
	r.sink += tr.PathHash()
	t1 := time.Now()
	r.hits.AccumulateTracer(tr)
	t2 := time.Now()
	r.edges += int64(tr.CountEdges())
	r.pathhash.add(t1.Sub(t0))
	r.hitcounts.add(t2.Sub(t1))
	r.sampled++
}

// tracedTarget times Handle. Use wrapTarget, which picks the variant that
// forwards exactly the optional interfaces of the inner target.
type tracedTarget struct {
	inner targets.Target
	rec   *seamRec
}

func (t *tracedTarget) Name() string { return t.inner.Name() }

func (t *tracedTarget) Models() []*datamodel.Model { return t.inner.Models() }

// Handle records in a deferred call, without recovering: a panicking
// target (a planted crash, or the step budget's hang signal) keeps
// unwinding with its own value and stack, which the sandbox's crash-site
// attribution reads.
func (t *tracedTarget) Handle(tr *coverage.Tracer, packet []byte) {
	rec := t.rec
	t0 := time.Now()
	ok := false
	defer func() {
		rec.handle.add(time.Since(t0))
		rec.calls++
		if ok {
			rec.observe(tr, packet)
		} else {
			rec.faults++
		}
		rec.busy += time.Since(t0)
	}()
	t.inner.Handle(tr, packet)
	ok = true
}

// timedReset times ResetSession, the session layer's per-sequence reset.
type timedReset struct{ t *tracedTarget }

func (r timedReset) ResetSession() {
	t0 := time.Now()
	r.t.inner.(executor.SessionResetter).ResetSession()
	d := time.Since(t0)
	r.t.rec.reset.add(d)
	r.t.rec.busy += d
}

type stateModeler interface{ StateModel() *session.StateModel }

// wrapTarget returns t behind a timing wrapper that implements
// executor.SessionResetter, targets.SessionTarget and
// sandbox.StateCheckpointer exactly when t does. The optional methods are
// promoted from embedded fields holding t itself, so they reach t
// unchanged; only ResetSession is timed on the way.
func wrapTarget(t targets.Target, rec *seamRec) targets.Target {
	base := &tracedTarget{inner: t, rec: rec}
	ck, isCk := t.(sandbox.StateCheckpointer)
	_, isRs := t.(executor.SessionResetter)
	sm, isSs := t.(targets.SessionTarget)
	rs := timedReset{base}
	switch {
	case isCk && isSs:
		return struct {
			*tracedTarget
			sandbox.StateCheckpointer
			timedReset
			stateModeler
		}{base, ck, rs, sm}
	case isCk && isRs:
		return struct {
			*tracedTarget
			sandbox.StateCheckpointer
			timedReset
		}{base, ck, rs}
	case isCk:
		return struct {
			*tracedTarget
			sandbox.StateCheckpointer
		}{base, ck}
	case isSs:
		return struct {
			*tracedTarget
			timedReset
			stateModeler
		}{base, rs, sm}
	case isRs:
		return struct {
			*tracedTarget
			timedReset
		}{base, rs}
	}
	return base
}

// tracedExec times an execution backend's Run. Use wrapExec.
type tracedExec struct {
	inner executor.Executor
	rec   *seamRec
}

// restarter is the process backend's spawn counter.
type restarter interface{ Restarts() int }

func (x *tracedExec) Run(packet []byte) (sandbox.Result, error) {
	var before int
	rs, hasRestarts := x.inner.(restarter)
	if hasRestarts {
		before = rs.Restarts()
	}
	t0 := time.Now()
	res, err := x.inner.Run(packet)
	d := time.Since(t0)
	rec := x.rec
	rec.calls++
	switch {
	case res.Outcome == sandbox.Hang:
		rec.hangWait += d
	case hasRestarts && rs.Restarts() != before:
		rec.respawn = append(rec.respawn, float64(d)/1e6)
	default:
		rec.run.add(d)
	}
	if res.Outcome == sandbox.Crash {
		rec.faults++
	}
	if err == nil {
		rec.observe(x.inner.Tracer(), packet)
	}
	rec.busy += time.Since(t0)
	return res, err
}

func (x *tracedExec) Tracer() *coverage.Tracer { return x.inner.Tracer() }
func (x *tracedExec) Close() error             { return x.inner.Close() }

// wrapExec returns x behind a timing wrapper that implements
// executor.SessionExecutor, executor.StateCheckpointer and the restart
// counter the engine reads for Stats.TargetRestarts, exactly when x does.
// As in wrapTarget, the optional methods are promoted from embedded
// fields holding x itself.
func wrapExec(x executor.Executor, rec *seamRec) executor.Executor {
	base := &tracedExec{inner: x, rec: rec}
	se, isSe := x.(executor.SessionExecutor)
	ck, isCk := x.(executor.StateCheckpointer)
	rs, isRs := x.(restarter)
	switch {
	case isSe && isCk && isRs:
		return struct {
			*tracedExec
			executor.SessionExecutor
			executor.StateCheckpointer
			restarter
		}{base, se, ck, rs}
	case isSe && isCk:
		return struct {
			*tracedExec
			executor.SessionExecutor
			executor.StateCheckpointer
		}{base, se, ck}
	case isSe && isRs:
		return struct {
			*tracedExec
			executor.SessionExecutor
			restarter
		}{base, se, rs}
	case isCk && isRs:
		return struct {
			*tracedExec
			executor.StateCheckpointer
			restarter
		}{base, ck, rs}
	case isSe:
		return struct {
			*tracedExec
			executor.SessionExecutor
		}{base, se}
	case isCk:
		return struct {
			*tracedExec
			executor.StateCheckpointer
		}{base, ck}
	case isRs:
		return struct {
			*tracedExec
			restarter
		}{base, rs}
	}
	return base
}

// recSet collects the recorders of every wrapper a campaign created; a
// fleet's target factory may run on any goroutine.
type recSet struct {
	mu   sync.Mutex
	recs []*seamRec
}

func (s *recSet) add() *seamRec {
	r := newSeamRec()
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return r
}

func (s *recSet) all() []*seamRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*seamRec(nil), s.recs...)
}
