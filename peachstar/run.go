package peachstar

// This file is the session-based run API — the one driver every execution
// topology goes through: serial, sharded and mesh-synced campaigns all
// run through Start, one context-aware entry point. The budget, the sync
// cadence and the mesh attachments travel in a RunConfig, and the
// returned Run is a handle the caller can wait on, stop, snapshot, and
// observe through a typed event stream. Underneath, every session drives
// core.Fleet.Drive.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/executor"
)

// DefaultSyncEvery is the default number of local executions between
// mesh sync rounds of an attached campaign: four merge windows' worth.
const DefaultSyncEvery = 4 * core.DefaultMergeEvery

// DefaultStatsEvery is the default number of fleet executions between
// StatsEvents on a run's event stream.
const DefaultStatsEvery = 4 * core.DefaultMergeEvery

// eventBuffer is the capacity of a run's event channel: room for a
// burst of window events, so a consumer that drains the stream while
// the run is live loses none; a full buffer drops the oldest non-crash
// event (see Run.Events).
const eventBuffer = 256

// relayEvery is the wall-clock cadence of a RelayOnly session's sync
// rounds (a relay has no execution count to pace by).
const relayEvery = 5 * time.Second

// RunConfig configures one campaign session started with Campaign.Start.
// The zero value is valid and means: fuzz with no execution or time bound
// (the session then runs until the context ends or Stop is called),
// default cadences, no attachments.
type RunConfig struct {
	// Execs is the total campaign execution target, in absolute terms:
	// the session drives the fleet until at least this many executions
	// have happened since the campaign was created (so extending a
	// campaign with a second session reuses the same scale). 0 means no
	// execution bound.
	Execs int
	// Duration, when positive, is a relative deadline of Start-time +
	// Duration, checked before every engine step.
	Duration time.Duration
	// SyncEvery is the number of local executions between mesh sync
	// rounds when the session has attachments (0 = DefaultSyncEvery).
	// Ignored without attachments.
	SyncEvery int
	// StatsEvery is the number of fleet executions between StatsEvents
	// on the event stream (0 = DefaultStatsEvery; negative disables
	// periodic stats, leaving only the final one).
	StatsEvery int
	// Attach lists the session's mesh attachments: a node built for the
	// session (WithMesh), or an existing MeshNode handle driven through
	// its Attachment method. MeshOptions express every role — a hub is
	// a node that listens with no peers, a leaf a node with one static
	// peer and no listener. Nodes created by WithMesh belong to the
	// session and are closed when it ends; borrowed handles are left
	// open for their owner.
	Attach []Attachment
	// RelayOnly makes the session execute nothing itself: the workers
	// stay idle while the session serves its attachments — accepting
	// peers and relaying fleet state between them every five seconds —
	// until the context ends, Stop is called, or the deadline passes.
	// For aggregator hubs and pure mesh relays.
	RelayOnly bool
	// Exec selects the session's execution backend: nil (the default)
	// fuzzes the campaign's in-process target exactly as always, while
	// WithProcOptions spawns and supervises a real server process for the
	// lifetime of the session — the campaign's coverage, corpus and crash
	// state carry across backend boundaries, so an in-process warmup
	// session can precede a real-target one. Process-backed sessions
	// require a single-worker campaign; the backend is closed (the target
	// killed) when the session ends. If the backend fails unrecoverably
	// mid-session (spawn retries exhausted), the session ends early and
	// Wait returns the failure.
	Exec ExecBackend
	// CheckpointPath, when non-empty, makes the session write a durable
	// campaign checkpoint to this file every CheckpointEvery executions,
	// after the final window, and (for a relay) every relay round — each
	// write an atomic replace, reported as a CheckpointEvent. A later
	// campaign built with the same options resumes from the file with
	// Campaign.RestoreCheckpoint (or peachstar -resume).
	CheckpointPath string
	// CheckpointEvery is the number of fleet executions between durable
	// checkpoints (0 = DefaultCheckpointEvery). Ignored without
	// CheckpointPath.
	CheckpointEvery int
}

// Attachment composes a mesh node into a session: the session runs one
// merge round with the node's peers every RunConfig.SyncEvery executions.
// Build one with WithMesh (session-owned), or borrow a live MeshNode via
// its Attachment method.
type Attachment interface {
	// attach resolves the attachment to the node the session drives, and
	// whether the session owns it (and so closes it when it ends).
	attach(c *Campaign) (node *MeshNode, owned bool, err error)
}

// WithMesh returns an attachment that makes the campaign a mesh node for
// the lifetime of the session, with one merge round per
// RunConfig.SyncEvery executions. The MeshOptions pick the role: peers
// and a listener for a mesh member, a listener and no peers for a hub
// that leaves dial, one static peer and no listener for a leaf.
func WithMesh(opts MeshOptions) Attachment { return meshSpec{opts: opts} }

// meshSpec builds a session-owned mesh node.
type meshSpec struct{ opts MeshOptions }

func (s meshSpec) attach(c *Campaign) (*MeshNode, bool, error) {
	node, err := c.JoinMesh(s.opts)
	return node, true, err
}

// Run is one live campaign session started by Campaign.Start: a handle to
// wait on (Wait, Done), stop (Stop), and observe (Snapshot, Events)
// while the fleet fuzzes in the background.
type Run struct {
	c     *Campaign
	cfg   RunConfig
	ctx   context.Context
	start time.Time
	// deadline is Start-time + RunConfig.Duration (zero: no deadline).
	deadline time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	events   chan Event
	// emitMu serializes producers of the event channel so buffer
	// eviction can re-queue crash events atomically (see emit).
	emitMu sync.Mutex
	// ctxStopped records (0/1) that the context — not the budget or a
	// graceful Stop — ended the session; only then does Wait surface the
	// context's error.
	ctxStopped int32

	// nodes are the mesh nodes the session syncs, owned the subset it
	// created (WithMesh) and closes when it ends.
	nodes []*MeshNode
	owned []*MeshNode

	// exec is the session-owned execution backend swapped into the fleet
	// for this session (nil for default in-process sessions); prevExec is
	// what it displaced, restored when the session ends.
	exec     executor.Executor
	prevExec executor.Executor

	// statsNext is the next fleet-exec threshold that emits a StatsEvent
	// (atomic: window hooks race on it across workers).
	statsNext int64

	// crashMu guards crashSeen, the fleet-level crash deduplication for
	// CrashEvents (workers may find the same fault independently).
	crashMu   sync.Mutex
	crashSeen map[string]bool

	// err is the session result, written before done closes.
	err error
}

// Start begins a session on the campaign and returns immediately with its
// handle; the fleet fuzzes on background goroutines. The session ends
// when the RunConfig budget (execs and/or deadline) is spent, the context
// is canceled, or Stop is called — whichever comes first — and Wait
// reports how it went. Cancellation is prompt: workers stop at the next
// merge-window boundary and a remote exchange in flight is interrupted
// rather than timed out. One session runs at a time; starting a second
// before the first is done is an error.
//
// A session with neither an exec target nor a deadline runs until
// canceled or stopped. A graceful Stop still flushes attachments with a
// final sync window; a context cancellation skips the flush and tears
// down immediately, and Wait then returns the context's error.
func (c *Campaign) Start(ctx context.Context, cfg RunConfig) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !atomic.CompareAndSwapInt32(&c.running, 0, 1) {
		return nil, fmt.Errorf("peachstar: campaign already has a session in flight")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if cfg.StatsEvery == 0 {
		cfg.StatsEvery = DefaultStatsEvery
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	r := &Run{
		c:         c,
		cfg:       cfg,
		ctx:       ctx,
		start:     time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		events:    make(chan Event, eventBuffer),
		statsNext: int64(cfg.StatsEvery),
		crashSeen: make(map[string]bool),
	}
	if cfg.Duration > 0 {
		r.deadline = r.start.Add(cfg.Duration)
	}
	if cfg.StatsEvery < 0 {
		r.statsNext = int64(^uint64(0) >> 2) // periodic stats disabled
	}
	fail := func(err error) (*Run, error) {
		r.closeOwned()
		atomic.StoreInt32(&c.running, 0)
		return nil, err
	}
	for _, a := range cfg.Attach {
		node, owned, err := a.attach(c)
		if err != nil {
			return fail(err)
		}
		r.nodes = append(r.nodes, node)
		if owned {
			r.owned = append(r.owned, node)
		}
	}
	if cfg.Exec != nil {
		ex, err := cfg.Exec.build(c)
		if err != nil {
			return fail(err)
		}
		prev, err := c.fleet.SwapExecutor(ex)
		if err != nil {
			ex.Close()
			return fail(err)
		}
		r.exec, r.prevExec = ex, prev
	}
	go r.loop()
	return r, nil
}

// Wait blocks until the session ends and returns its result: nil on a
// spent budget or a graceful Stop, the context's error if the context
// ended the session, or the final sync flush's error for an attached
// session whose last exchange failed. Wait may be called any number of
// times, from any goroutine.
func (r *Run) Wait() error {
	<-r.done
	return r.err
}

// Stop requests a graceful end of the session: workers finish their
// in-flight merge windows, attachments get a final flush, and Wait
// returns nil. Safe to call repeatedly and concurrently; after the
// session is done it is a no-op.
func (r *Run) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Done returns a channel closed when the session has fully ended
// (workers stopped, attachments flushed and closed) — the select-friendly
// form of Wait.
func (r *Run) Done() <-chan struct{} { return r.done }

// Events returns the session's typed event stream: StatsEvent,
// NewCoverageEvent, CrashEvent, DistillEvent, StateEvent,
// SyncWindowEvent and CheckpointEvent items, emitted at
// merge-window granularity and closed when the session ends. The stream
// observes the campaign; it never perturbs it: events are produced
// without blocking the fuzzing loop, and when a slow consumer lets the
// 256-event buffer fill, the oldest events are dropped — except
// CrashEvents, which are always retained (older events are evicted to
// make room). Consume promptly (or not at all: an unread stream costs one
// fixed buffer).
func (r *Run) Events() <-chan Event { return r.events }

// Snapshot returns the campaign's progress without stopping it — safe to
// call from any goroutine at any time. Counters are approximate while
// the fleet runs: executions, paths and iteration counts are as of each
// worker's latest merge window (at most one window behind), and the edge
// and corpus figures are the fleet union as of the latest window; crash
// and hang counts are exact at all times. Once the session is done the
// snapshot is exact. For the exact-but-blocking alternative, use
// Campaign.Stats after Wait.
func (r *Run) Snapshot() Stats { return r.c.fleet.StatsApprox() }

// loop is the session driver, on its own goroutine.
func (r *Run) loop() {
	defer func() {
		if r.exec != nil {
			// Restore the displaced backend (clearing any sticky backend
			// error with it) and tear the session's own down — for a
			// process backend that kills the supervised target.
			r.c.fleet.SwapExecutor(r.prevExec)
			r.exec.Close()
		}
		r.closeOwned()
		atomic.StoreInt32(&r.c.running, 0)
		close(r.done)
	}()
	if r.ctx.Done() != nil {
		go func() {
			select {
			case <-r.ctx.Done():
				r.stopForContext()
			case <-r.done:
			}
		}()
	}

	var syncErr error
	switch {
	case r.cfg.RelayOnly:
		syncErr = r.relayLoop()
	case len(r.nodes) == 0 && r.cfg.CheckpointPath == "":
		r.c.fleet.Drive(r.stop, core.Budget{Execs: r.cfg.Execs, Deadline: r.deadline}, r.windowHook)
	default:
		syncErr = r.syncedLoop()
	}

	r.c.fleet.PublishStats()
	r.emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
	close(r.events)
	// An unrecoverable execution-backend failure trumps everything: the
	// session ended because fuzzing became impossible, and Wait must say
	// so. Read before the deferred executor restore clears it.
	if eerr := r.c.fleet.ExecError(); eerr != nil {
		r.err = eerr
		return
	}
	// The context's error is the session result only when the
	// cancellation is what ended the session: a cancel that lands after
	// the budget is already spent does not turn a completed run into a
	// failed one.
	if atomic.LoadInt32(&r.ctxStopped) == 1 && !r.budgetDone() {
		r.err = r.ctx.Err()
		return
	}
	r.err = syncErr
}

// stopForContext claims the session stop on behalf of the canceled
// context — Wait will then report the context's error. It is a no-op
// when a graceful Stop already ended the session (that Stop keeps its
// "Wait returns nil" contract). Called by the context watcher, and by
// any loop exit that observes the cancellation directly: the watcher
// goroutine may not have been scheduled yet, and the cancellation must
// not be mistaken for a clean finish.
func (r *Run) stopForContext() {
	r.stopOnce.Do(func() {
		atomic.StoreInt32(&r.ctxStopped, 1)
		close(r.stop)
	})
}

// budgetDone reports whether the session's own budget is spent — the
// exec target reached or the deadline passed. Called at session end,
// when the fleet is quiescent.
func (r *Run) budgetDone() bool {
	if r.cfg.Execs > 0 && r.c.fleet.Execs() >= r.cfg.Execs {
		return true
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		return true
	}
	return false
}

// syncedLoop drives an attached or checkpointing session: fuzz one
// window's worth of executions, then run a merge round on every attached
// node and take any due durable checkpoint, until the budget is spent or
// the session is stopped; a final flush settles the remote state (and its
// error is the session result) and a final checkpoint captures the
// session's last window. Each round starts by flushing the workers into
// the shared state, so even a serial campaign that only serves inbound
// peers presents its discoveries to them. Exchange and checkpoint
// failures inside the loop surface as events and the campaign keeps
// fuzzing — the next window retries. Checkpoints are taken between Drive
// calls, when every worker is quiescent, which is what makes each one a
// consistent cut of the whole fleet.
func (r *Run) syncedLoop() error {
	fleet := r.c.fleet
	ckpt := r.cfg.CheckpointPath != ""
	nextCkpt := 0
	if ckpt {
		nextCkpt = (fleet.Execs()/r.cfg.CheckpointEvery + 1) * r.cfg.CheckpointEvery
	}
	for !r.spent() {
		window := core.Budget{Execs: fleet.Execs() + r.cfg.SyncEvery, Deadline: r.deadline}
		if ckpt && nextCkpt < window.Execs {
			window.Execs = nextCkpt
		}
		if r.cfg.Execs > 0 && window.Execs > r.cfg.Execs {
			window.Execs = r.cfg.Execs
		}
		fleet.Drive(r.stop, window, r.windowHook)
		if r.ctx.Err() != nil {
			// Canceled mid-window: don't run the exchange against a dead
			// context just to emit one canceled SyncWindowEvent per
			// attachment. Claim the stop first — this exit may observe
			// the cancellation before the watcher goroutine does.
			r.stopForContext()
			return nil
		}
		if ckpt && fleet.Execs() >= nextCkpt {
			r.checkpointNow()
			nextCkpt = (fleet.Execs()/r.cfg.CheckpointEvery + 1) * r.cfg.CheckpointEvery
		}
		r.syncAll()
	}
	if r.ctx.Err() != nil {
		// A flush against a dead context cannot succeed — skip it whether
		// the cancellation or a graceful Stop ended the session; loop()
		// decides the reported outcome from who stopped it.
		r.stopForContext()
		return nil
	}
	err := r.syncAll()
	if ckpt {
		r.checkpointNow()
	}
	return err
}

// relayLoop serves attachments without fuzzing: one sync-and-report round
// per relayEvery tick until the session is stopped or its deadline
// passes. Like syncedLoop, a graceful end gets a final flush — a relay
// stopped right after absorbing a peer's push must hand it onward before
// shutting down — while a context cancellation skips it.
func (r *Run) relayLoop() error {
	tick := time.NewTicker(relayEvery)
	defer tick.Stop()
	// The deadline gets its own wake-up: a relay sleeping out a long
	// relayEvery period must still stop at the configured wall-clock
	// instant, not at the next tick after it.
	var deadlineCh <-chan time.Time
	if !r.deadline.IsZero() {
		deadline := time.NewTimer(time.Until(r.deadline))
		defer deadline.Stop()
		deadlineCh = deadline.C
	}
	var lastErr error
	for {
		if r.spent() {
			if r.ctx.Err() == nil {
				lastErr = r.syncAll() // final flush on a graceful end
				if r.cfg.CheckpointPath != "" {
					r.checkpointNow()
				}
			}
			return lastErr // a cancellation outcome is decided by loop()
		}
		select {
		case <-r.stop:
			continue // re-check spent and return
		case <-deadlineCh:
			continue // re-check spent and return
		case <-tick.C:
			lastErr = r.syncAll()
			if r.cfg.CheckpointPath != "" {
				// A relay's workers never run, so the fleet is always
				// quiescent here; the checkpoint preserves what the relay
				// absorbed from its peers.
				r.checkpointNow()
			}
			r.c.fleet.PublishStats()
			r.emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
		}
	}
}

// spent reports whether the session should end: stopped, exec budget
// reached, or deadline passed. Called between windows on the session
// goroutine only.
func (r *Run) spent() bool {
	select {
	case <-r.stop:
		return true
	default:
	}
	if r.cfg.Execs > 0 && r.c.fleet.Execs() >= r.cfg.Execs {
		return true
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		return true
	}
	return false
}

// syncAll runs one merge round on every attached mesh node, emitting a
// SyncWindowEvent per round, and returns the first error.
func (r *Run) syncAll() error {
	var firstErr error
	for _, n := range r.nodes {
		began := time.Now()
		err := n.mesh.SyncContext(r.ctx)
		r.emit(SyncWindowEvent{
			Addr:    n.Addr(),
			Execs:   r.c.fleet.ExecsApprox(),
			Elapsed: time.Since(began),
			Err:     err,
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// closeOwned closes the mesh nodes the session created.
func (r *Run) closeOwned() {
	for _, n := range r.owned {
		n.Close()
	}
}

// windowHook is the driver's per-merge-window observer, called on worker
// goroutines: it turns window facts into stream events.
func (r *Run) windowHook(w core.WindowInfo) {
	for _, rec := range w.NewCrashes {
		key := crash.RecordKey(rec)
		r.crashMu.Lock()
		dup := r.crashSeen[key]
		r.crashSeen[key] = true
		r.crashMu.Unlock()
		if !dup {
			r.emit(CrashEvent{Record: rec, Worker: w.Worker})
		}
	}
	if w.NewEdges > 0 {
		r.emit(NewCoverageEvent{Edges: w.Edges, Delta: w.NewEdges, Worker: w.Worker})
	}
	for _, st := range w.NewStates {
		r.emit(StateEvent{State: st.State, Exec: st.Exec, Worker: w.Worker})
	}
	for _, d := range w.Distills {
		r.emit(DistillEvent{
			Worker:         w.Worker,
			SeedsKept:      d.SeedsKept,
			SeedsDropped:   d.SeedsDropped,
			PuzzlesDropped: d.PuzzlesDropped,
			Edges:          d.Edges,
		})
	}
	every := int64(r.cfg.StatsEvery)
	if every <= 0 {
		return
	}
	for {
		next := atomic.LoadInt64(&r.statsNext)
		if int64(w.FleetExecs) < next {
			return
		}
		// Jump past the current count so a burst of windows yields one
		// event, not a backlog.
		target := (int64(w.FleetExecs)/every + 1) * every
		if atomic.CompareAndSwapInt64(&r.statsNext, next, target) {
			r.emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
			return
		}
	}
}
