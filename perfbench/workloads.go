package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/rng"
	"repro/internal/targets"
	"repro/peachstar"
)

// sizes are the budgets of one campaign unit per workload. A run repeats
// units, each with its own seed split from the workload seed, until its
// measuring time is spent, and reports medians over them.
type sizes struct {
	serialExecs  int // per target, six targets per unit
	sessionExecs int // messages
	ckptEvery    int // execs between durable checkpoints
	fleetExecs   int // over both workers
	procExecs    int
}

var defaultSizes = sizes{
	serialExecs:  100_000,
	sessionExecs: 250_000,
	ckptEvery:    16_384,
	fleetExecs:   250_000,
	procExecs:    2_500,
}

const (
	procTimeout = 100 * time.Millisecond
	// statsEvery is the StatsEvent cadence the time-to-edges reading
	// samples at: one merge window, the finest a session reports.
	statsEvery = core.DefaultMergeEvery
	// A run sets a campaign up from nothing setupsPerUnit times after
	// every unit, and at least setupTrials times in all: a set-up takes
	// milliseconds, so one reading is mostly noise, and spreading the
	// readings over the run evens out the host's slow moments.
	setupsPerUnit = 3
	setupTrials   = 31
)

// serialTargets are the six registered projects, in the paper's order.
var serialTargets = []string{"libmodbus", "IEC104", "libiec61850", "lib60870", "libiccp", "opendnp3"}

// edgeTargets are the union edge counts whose first arrival
// time_to_edges_s reads, one per campaign. Each sits where the seed
// commit's campaigns reach it with little seed-to-seed spread in
// executions while coverage still climbs (after 2-25% of the budget).
// proc-toy's response-derived edges grow steadily and its time is mostly
// watchdog waits, a Poisson count of hangs: its target sits near the end
// of the budget, where the most hangs average out. They are constants so
// that every commit races to the same mark.
var edgeTargets = map[string]int{
	"libmodbus":   174,
	"IEC104":      73,
	"libiec61850": 175,
	"lib60870":    72,
	"libiccp":     67,
	"opendnp3":    178,
	"session":     65,   // session-ckpt
	"fleet":       175,  // fleet-mesh2
	"proc":        2000, // proc-toy, late in its budget: see below
}

type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	work    string
	server  string
	out     io.Writer // result and notes
	stderr  io.Writer // failed checks
	sz      sizes
}

// tally counts attempted and failed operations; a failed check also makes
// the result incorrect.
type tally struct {
	attempted int64
	failed    int64
	problems  []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// rep is one campaign unit's end-to-end outcome.
type rep struct {
	execs        int
	wall         time.Duration
	edges, paths int
	tte          time.Duration
	stats        []peachstar.Stats
}

func (r *rep) add(o rep) {
	r.execs += o.execs
	r.wall += o.wall
	r.edges += o.edges
	r.paths += o.paths
	r.tte += o.tte
	r.stats = append(r.stats, o.stats...)
}

// obs gathers the per-layer observations of a traced run: events of the
// untraced campaigns and the seams of the traced ones.
type obs struct {
	recs recSet

	step      hist
	steps     int64
	stepExecs int64
	stepSelf  time.Duration

	ckptMs, ckptBytes []float64
	ckptTime          time.Duration
	restoreMs         []float64

	syncUs        []float64
	syncTime      time.Duration
	windows       int // sync windows of the untraced campaigns
	tracedWindows int // ... and of the traced ones, which relayBytes spans
	relayBytes    int64

	plainCampaigns          int
	plainExecs, tracedExecs int
	plainWall, tracedWall   time.Duration
	tracedStats             []peachstar.Stats

	models map[string][]*datamodel.Model
}

func newObs() *obs { return &obs{models: map[string][]*datamodel.Model{}} }

type workload struct {
	name    string
	threads int // busy threads the workload needs, target processes included
	// races is how many extra time-to-edges readings an untraced run
	// takes after every unit, each from a campaign of its own seed that
	// stops once it reaches its edge target: the reading spans a small
	// share of a unit, so a race costs little and the median of
	// time_to_edges_s rests on many more seeds.
	races int
	// setup times one set-up from nothing to a campaign's first
	// execution per seed.
	setup func(e *env, seeds []uint64) ([]float64, error)
	// run is one untraced campaign unit; with race it stops each
	// campaign once it reaches its edge target.
	run func(e *env, seed uint64, race bool, t *tally, o *obs) (rep, error)
	// traced repeats the unit behind the tracing seams; want is the
	// untraced outcome for the same seed.
	traced func(e *env, seed uint64, t *tally, o *obs, want rep) error
}

var workloads = map[string]*workload{
	"packet-serial": {name: "packet-serial", threads: 1, races: 4, setup: serialSetup, run: serialRun, traced: serialTraced},
	"session-ckpt":  {name: "session-ckpt", threads: 1, races: 3, setup: sessionSetup, run: sessionRun, traced: sessionTraced},
	"fleet-mesh2":   {name: "fleet-mesh2", threads: 2, races: 3, setup: fleetSetup, run: fleetRun, traced: fleetTraced},
	"proc-toy":      {name: "proc-toy", threads: 2, setup: procSetup, run: procRun, traced: procTraced}, // fuzzer and server
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// timeSetups runs set-up trial f once per seed and returns the
// durations in seconds. Each trial starts on a collected heap, as a
// set-up in a fresh process would, instead of paying for an earlier
// trial's garbage.
func timeSetups(seeds []uint64, f func(seed uint64) error) ([]float64, error) {
	out := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		runtime.GC()
		t0 := time.Now()
		if err := f(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// firstExec starts a one-exec session of c and waits for it: a set-up
// trial ends once the campaign has executed.
func firstExec(c *peachstar.Campaign, cfg peachstar.RunConfig) error {
	cfg.Execs = 1
	r, err := c.Start(context.Background(), cfg)
	if err != nil {
		return err
	}
	return r.Wait()
}

// startAndDrain runs one session of c to its budget, reading its event
// stream, and reports the campaign's outcome. With race it stops the
// session once union edges reach edgeTarget.
func startAndDrain(c *peachstar.Campaign, cfg peachstar.RunConfig, edgeTarget int, race bool, t *tally, o *obs) (rep, error) {
	cfg.StatsEvery = statsEvery
	t0 := time.Now()
	r, err := c.Start(context.Background(), cfg)
	if err != nil {
		return rep{}, err
	}
	tte := time.Duration(-1)
	for ev := range r.Events() {
		switch ev := ev.(type) {
		case peachstar.StatsEvent:
			if tte < 0 && ev.Stats.Edges >= edgeTarget {
				tte = ev.Elapsed
				if race {
					r.Stop()
				}
			}
		case peachstar.CheckpointEvent:
			t.check(ev.Err == nil, "checkpoint write at %d execs: %v", ev.Execs, ev.Err)
			o.ckptMs = append(o.ckptMs, float64(ev.Elapsed)/1e6)
			o.ckptBytes = append(o.ckptBytes, float64(ev.Bytes))
			o.ckptTime += ev.Elapsed
		case peachstar.SyncWindowEvent:
			t.attempted++
			if ev.Err != nil {
				t.failed++
			}
			o.syncUs = append(o.syncUs, float64(ev.Elapsed)/1e3)
			o.syncTime += ev.Elapsed
			o.windows++
		}
	}
	err = r.Wait()
	wall := time.Since(t0)
	t.check(err == nil, "campaign Wait: %v", err)
	st := c.Stats()
	t.attempted += int64(st.Execs)
	if tte < 0 {
		tte = wall // never reached: censored at the campaign's end
	}
	o.plainCampaigns++
	o.plainExecs += st.Execs
	o.plainWall += wall
	return rep{
		execs: st.Execs, wall: wall, tte: tte, edges: st.Edges, paths: st.Paths,
		stats: []peachstar.Stats{st},
	}, nil
}

// stepTo drives a serial campaign by hand, one timed Step at a time,
// while more reports budget left: the same step sequence a session's
// serial run loop executes. between, when non-nil, runs after every step.
func stepTo(step func() int, more func() bool, rec *seamRec, o *obs, between func()) {
	for more() {
		busy := rec.busy
		t0 := time.Now()
		n := step()
		d := time.Since(t0)
		o.step.add(d)
		o.steps++
		o.stepExecs += int64(n)
		o.stepSelf += d - (rec.busy - busy)
		if between != nil {
			between()
		}
	}
}

// below reports whether c has executed fewer than budget times.
func below(c *peachstar.Campaign, budget int) func() bool {
	return func() bool { return c.Execs() < budget }
}

func (o *obs) tracedDone(execs int, wall time.Duration, st peachstar.Stats) {
	o.tracedExecs += execs
	o.tracedWall += wall
	o.tracedStats = append(o.tracedStats, st)
}

// --- packet-serial: six serial Peach* campaigns, one per target ---

func serialCampaign(name string, seed uint64, wrap func(targets.Target) targets.Target) (*peachstar.Campaign, error) {
	tg, err := peachstar.NewTarget(name)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		tg = wrap(tg)
	}
	return peachstar.NewCampaign(peachstar.Options{Target: tg, Strategy: peachstar.PeachStar, Seed: seed})
}

func serialSetup(e *env, seeds []uint64) ([]float64, error) {
	return timeSetups(seeds, func(seed uint64) error {
		for _, name := range serialTargets {
			c, err := serialCampaign(name, seed, nil)
			if err != nil {
				return err
			}
			if err := firstExec(c, peachstar.RunConfig{}); err != nil {
				return err
			}
		}
		return nil
	})
}

func serialRun(e *env, seed uint64, race bool, t *tally, o *obs) (rep, error) {
	var total rep
	for _, name := range serialTargets {
		c, err := serialCampaign(name, seed, nil)
		if err != nil {
			return rep{}, err
		}
		r, err := startAndDrain(c, peachstar.RunConfig{Execs: e.sz.serialExecs}, edgeTargets[name], race, t, o)
		if err != nil {
			return rep{}, fmt.Errorf("%s: %w", name, err)
		}
		total.add(r)
	}
	return total, nil
}

func serialTraced(e *env, seed uint64, t *tally, o *obs, want rep) error {
	for i, name := range serialTargets {
		rec := o.recs.add()
		c, err := serialCampaign(name, seed, func(tg targets.Target) targets.Target {
			o.models[name] = tg.Models()
			return wrapTarget(tg, rec)
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		stepTo(c.Step, below(c, e.sz.serialExecs), rec, o, nil)
		wall := time.Since(t0)
		st := c.Stats()
		t.check(reflect.DeepEqual(st, want.stats[i]), "%s seed %d: traced Stats differ from untraced", name, seed)
		o.tracedDone(st.Execs, wall, st)
	}
	return nil
}

// --- session-ckpt: IEC104 sessions, adaptive, durable checkpoints ---

func sessionCampaign(seed uint64, wrap func(targets.Target) targets.Target) (*peachstar.Campaign, error) {
	tg, err := peachstar.NewTarget("IEC104")
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		tg = wrap(tg)
	}
	return peachstar.NewCampaign(peachstar.Options{
		Target: tg, Strategy: peachstar.PeachStar, Seed: seed,
		Sessions: true, Adaptive: true,
	})
}

func sessionSetup(e *env, seeds []uint64) ([]float64, error) {
	return timeSetups(seeds, func(seed uint64) error {
		c, err := sessionCampaign(seed, nil)
		if err != nil {
			return err
		}
		return firstExec(c, peachstar.RunConfig{})
	})
}

func sessionRun(e *env, seed uint64, race bool, t *tally, o *obs) (rep, error) {
	c, err := sessionCampaign(seed, nil)
	if err != nil {
		return rep{}, err
	}
	path := filepath.Join(e.work, "session.ckpt")
	defer os.Remove(path)
	r, err := startAndDrain(c, peachstar.RunConfig{
		Execs: e.sz.sessionExecs, CheckpointPath: path, CheckpointEvery: e.sz.ckptEvery,
	}, edgeTargets["session"], race, t, o)
	if err != nil || race {
		return r, err
	}
	// A fresh campaign resumes from the last checkpoint, written after
	// the final window, and must come back with the same Stats.
	fresh, err := sessionCampaign(seed, nil)
	if err != nil {
		return rep{}, err
	}
	t0 := time.Now()
	err = fresh.RestoreCheckpoint(path)
	o.restoreMs = append(o.restoreMs, float64(time.Since(t0))/1e6)
	t.check(err == nil, "restore seed %d: %v", seed, err)
	if err == nil {
		t.check(reflect.DeepEqual(fresh.Stats(), r.stats[0]), "seed %d: restored Stats differ from the checkpointed campaign's", seed)
	}
	return r, nil
}

func sessionTraced(e *env, seed uint64, t *tally, o *obs, want rep) error {
	rec := o.recs.add()
	c, err := sessionCampaign(seed, func(tg targets.Target) targets.Target {
		o.models["IEC104"] = tg.Models()
		return wrapTarget(tg, rec)
	})
	if err != nil {
		return err
	}
	// Write the same checkpoints the untraced session wrote: at the first
	// step boundary past every ckptEvery executions, and after the end.
	path := filepath.Join(e.work, "session-traced.ckpt")
	defer os.Remove(path)
	next := e.sz.ckptEvery
	var ckptErr error
	write := func() {
		if err := c.Checkpoint(path); err != nil && ckptErr == nil {
			ckptErr = err
		}
	}
	t0 := time.Now()
	stepTo(c.Step, below(c, e.sz.sessionExecs), rec, o, func() {
		if n := c.Execs(); n >= next {
			write()
			next = (n/e.sz.ckptEvery + 1) * e.sz.ckptEvery
		}
	})
	write()
	wall := time.Since(t0)
	t.check(ckptErr == nil, "traced checkpoint: %v", ckptErr)
	st := c.Stats()
	t.check(reflect.DeepEqual(st, want.stats[0]), "seed %d: traced Stats differ from untraced", seed)
	o.tracedDone(st.Execs, wall, st)
	return nil
}

// --- fleet-mesh2: a two-worker campaign meshed with an in-process relay ---

// relayNode is a RelayOnly mesh node the fuzzing campaign syncs with.
type relayNode struct {
	c    *peachstar.Campaign
	node *peachstar.MeshNode
	run  *peachstar.Run
}

func startRelayNode(seed uint64) (*relayNode, error) {
	c, err := serialCampaign("libmodbus", seed, nil)
	if err != nil {
		return nil, err
	}
	node, err := c.JoinMesh(peachstar.MeshOptions{Listen: "127.0.0.1:0", StaticOnly: true})
	if err != nil {
		return nil, err
	}
	r, err := c.Start(context.Background(), peachstar.RunConfig{
		RelayOnly: true, Attach: []peachstar.Attachment{node.Attachment()},
	})
	if err != nil {
		node.Close()
		return nil, err
	}
	return &relayNode{c: c, node: node, run: r}, nil
}

// stop ends the relay session and closes the node.
func (n *relayNode) stop() error {
	n.run.Stop()
	err := n.run.Wait()
	if cerr := n.node.Close(); err == nil {
		err = cerr
	}
	return err
}

func fleetCampaign(seed uint64, wrap func(targets.Target) targets.Target) (*peachstar.Campaign, error) {
	newTarget := func() peachstar.Target {
		tg, err := peachstar.NewTarget("libmodbus")
		if err != nil {
			panic(err) // registered at init; cannot fail
		}
		if wrap != nil {
			tg = wrap(tg)
		}
		return tg
	}
	return peachstar.NewCampaign(peachstar.Options{
		Target: newTarget(), TargetFactory: newTarget,
		Strategy: peachstar.PeachStar, Seed: seed, Workers: 2,
	})
}

func meshTo(peer string) peachstar.Attachment {
	return peachstar.WithMesh(peachstar.MeshOptions{Listen: "127.0.0.1:0", Peers: []string{peer}, StaticOnly: true})
}

func fleetSetup(e *env, seeds []uint64) ([]float64, error) {
	relay, err := startRelayNode(e.seed)
	if err != nil {
		return nil, err
	}
	out, err := timeSetups(seeds, func(seed uint64) error {
		c, err := fleetCampaign(seed, nil)
		if err != nil {
			return err
		}
		return firstExec(c, peachstar.RunConfig{Attach: []peachstar.Attachment{meshTo(relay.node.Addr())}})
	})
	if serr := relay.stop(); err == nil && serr != nil {
		err = fmt.Errorf("relay: %w", serr)
	}
	return out, err
}

func fleetOnce(e *env, seed uint64, race bool, t *tally, o *obs, wrap func(targets.Target) targets.Target, count bool) (rep, error) {
	relay, err := startRelayNode(seed)
	if err != nil {
		return rep{}, err
	}
	peer := relay.node.Addr()
	var proxy *countingRelay
	if count {
		if proxy, err = startCountingRelay(peer); err != nil {
			relay.stop()
			return rep{}, err
		}
		peer = proxy.Addr()
	}
	c, err := fleetCampaign(seed, wrap)
	if err != nil {
		relay.stop()
		return rep{}, err
	}
	r, err := startAndDrain(c, peachstar.RunConfig{
		Execs: e.sz.fleetExecs, Attach: []peachstar.Attachment{meshTo(peer)},
	}, edgeTargets["fleet"], race, t, o)
	serr := relay.stop()
	if proxy != nil {
		proxy.Close()
		o.relayBytes += proxy.Bytes()
	}
	if err != nil {
		return rep{}, err
	}
	t.check(serr == nil, "relay session: %v", serr)
	rs := relay.c.Stats()
	t.check(rs.Edges == r.edges, "seed %d: relay node has %d edges, fuzzing node %d", seed, rs.Edges, r.edges)
	return r, nil
}

func fleetRun(e *env, seed uint64, race bool, t *tally, o *obs) (rep, error) {
	return fleetOnce(e, seed, race, t, o, nil, false)
}

func fleetTraced(e *env, seed uint64, t *tally, o *obs, want rep) error {
	// A two-worker fleet cannot be stepped from outside, so the traced
	// unit is a normal session with wrapped targets on both workers and a
	// byte-counting relay on the mesh link. Its events go to an obs of
	// their own: the untraced units already reported the sync windows.
	own := newObs()
	r, err := fleetOnce(e, seed, false, t, own, func(tg targets.Target) targets.Target {
		o.models["libmodbus"] = tg.Models()
		return wrapTarget(tg, o.recs.add())
	}, true)
	if err != nil {
		return err
	}
	o.relayBytes += own.relayBytes
	o.tracedWindows += own.windows
	o.tracedDone(r.execs, r.wall, r.stats[0])
	return nil
}

// --- proc-toy: the toy Modbus server as a supervised real process ---

// toyModel is the examples/realtarget model without its vendor branch,
// whose planted hang spins a CPU until the watchdog fires.
func toyModel() *peachstar.Model {
	return peachstar.NewModel("ToyModbus",
		peachstar.Num("txn", 2, 1),
		peachstar.Num("proto", 2, 0).AsToken(),
		peachstar.Num("length", 2, 0).WithRel(peachstar.SizeOf, "tail", 0),
		peachstar.Blk("tail",
			peachstar.Num("unit", 1, 0xFF),
			peachstar.Alt("pdu",
				peachstar.Blk("read",
					peachstar.Num("fc", 1, 3).AsToken(),
					peachstar.Num("addr", 2, 0).WithLegal(0, 0x10, 0x7F),
					peachstar.Num("qty", 2, 4).WithLegal(1, 4, 0x7D),
				),
				peachstar.Blk("write",
					peachstar.Num("fc", 1, 6).AsToken(),
					peachstar.Num("addr", 2, 0x10).WithLegal(0x10, 0x40, 0xDE10, 0xDE90),
					peachstar.Num("val", 2, 0x1234),
				),
			),
		),
	)
}

// freeAddr reserves a loopback port for a server to listen on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (e *env) procCmd() ([]string, error) {
	if e.server == "" {
		return nil, fmt.Errorf("proc-toy needs -server, the toy Modbus server binary")
	}
	return []string{e.server, "-listen", "{addr}"}, nil
}

func procCampaign(seed uint64) (*peachstar.Campaign, error) {
	tg, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		return nil, err
	}
	return peachstar.NewCampaign(peachstar.Options{
		Target: tg, Models: []*peachstar.Model{toyModel()},
		Strategy: peachstar.PeachStar, Seed: seed,
	})
}

func procBackend(e *env) (peachstar.ExecBackend, error) {
	cmd, err := e.procCmd()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return peachstar.WithProcOptions(cmd, addr, peachstar.ProcOptions{ExecTimeout: procTimeout}), nil
}

func procSetup(e *env, seeds []uint64) ([]float64, error) {
	return timeSetups(seeds, func(seed uint64) error {
		backend, err := procBackend(e)
		if err != nil {
			return err
		}
		c, err := procCampaign(seed)
		if err != nil {
			return err
		}
		return firstExec(c, peachstar.RunConfig{Exec: backend})
	})
}

func procRun(e *env, seed uint64, race bool, t *tally, o *obs) (rep, error) {
	backend, err := procBackend(e)
	if err != nil {
		return rep{}, err
	}
	c, err := procCampaign(seed)
	if err != nil {
		return rep{}, err
	}
	r, err := startAndDrain(c, peachstar.RunConfig{Execs: e.sz.procExecs, Exec: backend}, edgeTargets["proc"], race, t, o)
	if err != nil {
		return rep{}, err
	}
	for _, rec := range c.Crashes() {
		v, err := peachstar.ReplayCrash(backend, rec)
		t.check(err == nil && v.Match, "seed %d: crash %s at %s did not replay (%+v, %v)", seed, rec.Kind, rec.Site, v, err)
	}
	return r, nil
}

func procTraced(e *env, seed uint64, t *tally, o *obs, want rep) error {
	// The public API builds its process backend internally, so the traced
	// unit assembles the same campaign from the engine's own parts with
	// the backend behind a timing wrapper in core.Config.Executor.
	cmd, err := e.procCmd()
	if err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	proc, err := executor.NewProc(executor.ProcConfig{
		Cmd: cmd, Addr: addr, ExecTimeout: procTimeout,
		Seed: seed ^ 0x9e3779b97f4a7c15, // the public API's default backoff seed
	})
	if err != nil {
		return err
	}
	defer proc.Close()
	rec := o.recs.add()
	tg, err := targets.New("libmodbus")
	if err != nil {
		return err
	}
	models := []*datamodel.Model{toyModel()}
	o.models["toy"] = models
	f, err := core.NewFleet(core.Config{
		Models: models, Target: tg, Executor: wrapExec(proc, rec),
		Strategy: core.StrategyPeachStar, Seed: seed,
	}, core.ParallelConfig{Workers: 1})
	if err != nil {
		return err
	}
	t0 := time.Now()
	stepTo(f.Step, func() bool { return f.Execs() < e.sz.procExecs && f.ExecError() == nil }, rec, o, nil)
	wall := time.Since(t0)
	t.check(f.ExecError() == nil, "traced proc backend: %v", f.ExecError())
	st := f.Stats()
	o.tracedDone(st.Execs, wall, st)
	return nil
}

// campaignSeed is the seed of a run's i-th campaign unit, and
// setupSeed that of its i-th set-up trial: a trial's first execution
// depends on its seed (on proc-toy it may hang and wait out the
// watchdog), so the median runs over many seeds.
func campaignSeed(seed uint64, i int) uint64 { return rng.Split(seed, i) }

func setupSeed(seed uint64, i int) uint64 { return rng.Split(seed, 1<<30+i) }

// raceSeed is the seed of the j-th race after the unit of seed unit.
func raceSeed(unit uint64, j int) uint64 { return rng.Split(unit, 1+j) }
