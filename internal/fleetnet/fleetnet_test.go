package fleetnet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
	"repro/internal/mem"
	"repro/internal/sandbox"
	"repro/internal/targets"

	_ "repro/internal/targets/modbus"
)

// newLeafFleet builds a 1-worker fleet fuzzing RNG stream `stream` of the
// campaign seed — the distributed mirror of worker `stream` in a local
// multi-worker fleet.
func newLeafFleet(t *testing.T, seed uint64, stream int) (*core.Fleet, targets.Target) {
	t.Helper()
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFleet(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{Workers: 1, SeedStream: stream})
	if err != nil {
		t.Fatal(err)
	}
	return f, tgt
}

// newLocalFleet builds the single-process control: a 2-worker fleet over
// the same campaign seed.
func newLocalFleet(t *testing.T, seed uint64) *core.Fleet {
	t.Helper()
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFleet(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{
		Workers: 2,
		NewTarget: func() sandbox.Target {
			t2, err := targets.New("libmodbus")
			if err != nil {
				panic(err)
			}
			return t2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// listenHub makes a hub-shaped node over fleet: a mesh listening on addr
// with no peers of its own. The fleet stays idle; its State() is the
// campaign state the hub serves.
func listenHub(t *testing.T, fleet *core.Fleet, target string, models []*datamodel.Model, addr string) (*Mesh, error) {
	t.Helper()
	hub, err := NewMesh(MeshConfig{Fleet: fleet, Target: target, Models: models, NodeID: "hub", Logf: t.Logf})
	if err != nil {
		return nil, err
	}
	if err := hub.ListenAndServe(addr); err != nil {
		return nil, err
	}
	t.Cleanup(func() { hub.Close() })
	return hub, nil
}

// startHub starts a libmodbus hub over a fresh idle fleet on a free
// loopback port and returns it with that fleet.
func startHub(t *testing.T, models []*datamodel.Model) (*Mesh, *core.Fleet) {
	t.Helper()
	fleet, _ := newLeafFleet(t, 0, 0)
	hub, err := listenHub(t, fleet, "libmodbus", models, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return hub, fleet
}

// newLeaf makes a leaf-shaped node from cfg: a mesh that never listens,
// with addr as its one static peer.
func newLeaf(t *testing.T, cfg MeshConfig, addr string) *Mesh {
	t.Helper()
	cfg.Peers, cfg.StaticOnly = []string{addr}, true
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	leaf, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	return leaf
}

func newTestLeaf(t *testing.T, fleet *core.Fleet, tgt targets.Target, addr, id string) *Mesh {
	t.Helper()
	return newLeaf(t, MeshConfig{Fleet: fleet, Target: "libmodbus", Models: tgt.Models(), NodeID: id}, addr)
}

// link returns a leaf node's single uplink, creating it as the next sync
// round would.
func (m *Mesh) link() *uplink {
	m.ensureUplinks()
	for _, u := range m.uplinks {
		return u
	}
	return nil
}

// syncNow runs a sync round with the redial backoff cleared, so a test
// that just broke a link sees the redial on the very next round instead
// of a skipped one.
func syncNow(m *Mesh) error {
	for _, u := range m.uplinks {
		u.skip = 0
	}
	return m.Sync()
}

// runSynced drives fleet to execBudget total executions, calling sync
// every syncEvery executions and once more at the end: the window loop
// the public session API runs around a mesh node, reduced to what the
// component tests need. A failed window is logged and fuzzing continues;
// the final sync's error is returned.
func runSynced(t testing.TB, fleet *core.Fleet, sync func() error, execBudget, syncEvery int) error {
	for fleet.Execs() < execBudget {
		window := fleet.Execs() + syncEvery
		if window > execBudget {
			window = execBudget
		}
		fleet.Drive(nil, core.Budget{Execs: window}, nil)
		if err := sync(); err != nil {
			t.Logf("sync: %v (continuing locally)", err)
		}
	}
	return sync()
}

// TestLoopbackRealTargetSettles runs the hub + two leaves over the real
// libmodbus target and checks the settlement invariant the protocol does
// guarantee on a big target: after a final sync round, hub and both leaves
// agree on one union edge count, and it is no smaller than what either
// leaf found alone. (Exact equality with a single-process run is asserted
// on the saturable conformance target — see convergence_test.go.)
func TestLoopbackRealTargetSettles(t *testing.T) {
	const budget = 40000
	fleetA, tgtA := newLeafFleet(t, 99, 0)
	fleetB, tgtB := newLeafFleet(t, 99, 1)
	hub, hubFleet := startHub(t, tgtA.Models())
	state := hubFleet.State()
	leafA := newTestLeaf(t, fleetA, tgtA, hub.Addr(), "leaf-a")
	leafB := newTestLeaf(t, fleetB, tgtB, hub.Addr(), "leaf-b")

	var wg sync.WaitGroup
	for _, l := range []*Mesh{leafA, leafB} {
		wg.Add(1)
		go func(l *Mesh) {
			defer wg.Done()
			if err := runSynced(t, l.cfg.Fleet, l.Sync, budget/2, 1024); err != nil {
				t.Errorf("%v", err)
			}
		}(l)
	}
	wg.Wait()
	for _, l := range []*Mesh{leafA, leafB} {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	hubEdges := state.Edges()
	sa, sb := fleetA.Stats(), fleetB.Stats()
	if sa.Edges != hubEdges || sb.Edges != hubEdges {
		t.Fatalf("fleet did not settle: hub %d, leaf-a %d, leaf-b %d edges", hubEdges, sa.Edges, sb.Edges)
	}
	if execs := hub.RemoteExecs(); execs < budget {
		t.Fatalf("hub heard of %d remote execs, want >= %d", execs, budget)
	}
	if _, connected, _ := hub.PeerStats(); connected != 2 {
		t.Fatalf("hub reports %d connected leaves, want 2", connected)
	}
	if edges := hubFleet.Stats().Edges; edges != hubEdges {
		t.Fatalf("hub fleet reports %d edges, want the union's %d", edges, hubEdges)
	}
}

// TestLeafReconnectResumes drops the client side of the session mid-
// campaign and checks the next sync redials, resumes the journal cursor,
// and loses nothing.
func TestLeafReconnectResumes(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 7, 0)
	hub, hubFleet := startHub(t, tgt.Models())
	state := hubFleet.State()
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-r")

	fleet.Drive(nil, core.Budget{Execs: 4000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	up := leaf.link()
	if !up.connected() {
		t.Fatal("leaf should be connected after a successful sync")
	}
	edgesBefore := state.Edges()
	cursorBefore := up.session.remoteCursor

	up.close() // simulated connection loss
	fleet.Drive(nil, core.Budget{Execs: fleet.Execs() + 4000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatalf("sync after reconnect: %v", err)
	}
	if up.session.remoteCursor < cursorBefore {
		t.Fatalf("hub cursor went backwards across reconnect: %d -> %d", cursorBefore, up.session.remoteCursor)
	}
	if state.Edges() < edgesBefore {
		t.Fatalf("hub edges shrank across reconnect: %d -> %d", edgesBefore, state.Edges())
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("hub edges = %d, leaf edges = %d after resync", got, want)
	}
}

// TestHubRestartOnSameState restarts the hub process-equivalent (same
// shared state, same address) and checks a leaf session survives via
// reconnect: the leaf's resume cursor outruns the new hub's fresh
// connection state, which must degrade to a full replay, not an error.
func TestHubRestartOnSameState(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 11, 0)
	hub, hubFleet := startHub(t, tgt.Models())
	state := hubFleet.State()
	addr := hub.Addr()
	leaf := newTestLeaf(t, fleet, tgt, addr, "leaf-h")

	fleet.Drive(nil, core.Budget{Execs: 4000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	hub.Close()

	if _, err := listenHub(t, hubFleet, "libmodbus", tgt.Models(), addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}

	fleet.Drive(nil, core.Budget{Execs: fleet.Execs() + 4000}, nil)
	// First sync after the hub vanished fails (dead connection detected);
	// the one after reconnects against the restarted hub.
	var synced bool
	for attempt := 0; attempt < 3 && !synced; attempt++ {
		synced = syncNow(leaf) == nil
	}
	if !synced {
		t.Fatal("leaf failed to resync with the restarted hub")
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("restarted hub edges = %d, leaf edges = %d", got, want)
	}
}

// TestHandshakeRejectsMismatchedCampaigns: a leaf fuzzing another target,
// or the same target with different data models, must be refused with a
// reason, not silently merged.
func TestHandshakeRejectsMismatchedCampaigns(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 1, 0)
	hub, _ := startHub(t, tgt.Models())

	wrongTarget := newLeaf(t, MeshConfig{Fleet: fleet, Target: "IEC104", Models: tgt.Models()}, hub.Addr())
	if err := wrongTarget.Sync(); err == nil {
		t.Fatal("hub accepted a leaf fuzzing a different target")
	}

	altModels := []*datamodel.Model{{Name: "bogus", Fields: []*datamodel.Chunk{datamodel.Num("x", 1, 0)}}}
	wrongModels := newLeaf(t, MeshConfig{Fleet: fleet, Target: "libmodbus", Models: altModels}, hub.Addr())
	if err := wrongModels.Sync(); err == nil {
		t.Fatal("hub accepted a leaf with mismatched data models")
	}
}

// TestVersionNegotiationRule pins the min-of-maxima rule and the
// single supported version: v2 and older are refused.
func TestVersionNegotiationRule(t *testing.T) {
	for _, old := range []uint64{0, 1, 2} {
		if _, err := negotiate(old); err == nil {
			t.Fatalf("protocol %d must be refused", old)
		}
	}
	if v, err := negotiate(ProtocolVersion); err != nil || v != ProtocolVersion {
		t.Fatalf("negotiate(current) = %d, %v", v, err)
	}
	// A future leaf advertising a higher version is served at ours.
	if v, err := negotiate(ProtocolVersion + 7); err != nil || v != ProtocolVersion {
		t.Fatalf("negotiate(future) = %d, %v", v, err)
	}
}

// TestOldHelloRefusedWithVersion: a v1 dialer (no peer-exchange tail) or
// a v2 dialer gets an error frame naming the supported version, not a
// session.
func TestOldHelloRefusedWithVersion(t *testing.T) {
	_, tgt := newLeafFleet(t, 1, 0)
	hub, _ := startHub(t, tgt.Models())
	for _, v := range []uint64{1, 2} {
		hello := (&helloFrame{version: v, nodeID: "old", target: "libmodbus",
			digest: ModelDigest("libmodbus", tgt.Models())}).encode(nil)
		if v == 1 {
			hello = hello[:len(hello)-2] // empty advertise + zero peer count
		}
		conn, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("v%d hello: %v", v, err)
		}
		msg := (&wireReader{buf: payload}).str()
		if typ != frameError || !strings.Contains(msg, fmt.Sprintf("needs %d", ProtocolVersion)) {
			t.Fatalf("v%d hello answered with frame %d %q, want an error naming protocol %d", v, typ, msg, ProtocolVersion)
		}
	}
}

// TestCrashRecordsPropagateAcrossFleet: a fault known to one leaf must
// reach the hub bank and the other leaf, deduplicated, surviving resends.
func TestCrashRecordsPropagateAcrossFleet(t *testing.T) {
	fleetA, tgtA := newLeafFleet(t, 3, 0)
	fleetB, tgtB := newLeafFleet(t, 3, 1)
	hub, hubFleet := startHub(t, tgtA.Models())
	state := hubFleet.State()
	leafA := newTestLeaf(t, fleetA, tgtA, hub.Addr(), "leaf-a")
	leafB := newTestLeaf(t, fleetB, tgtB, hub.Addr(), "leaf-b")

	// Plant a fault in leaf A's shared state, as a worker sync would.
	rec := &crash.Record{Kind: mem.SEGV, Site: "modbus.test.site", Example: []byte{1, 2}, Count: 3, FirstExec: 17, PathSig: 99}
	fleetA.State().Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, _ *corpus.Corpus, b *crash.Bank) error {
		b.Absorb(rec)
		return nil
	}))

	fleetA.Drive(nil, core.Budget{Execs: 512}, nil)
	fleetB.Drive(nil, core.Budget{Execs: 512}, nil)
	if err := leafA.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leafB.Sync(); err != nil {
		t.Fatal(err)
	}
	found := func(recs []*crash.Record) bool {
		for _, r := range recs {
			if r.Site == "modbus.test.site" && r.Count == 3 && r.FirstExec == 17 {
				return true
			}
		}
		return false
	}
	if !found(state.CrashRecords()) {
		t.Fatal("hub bank missing the leaf's fault")
	}
	if !found(fleetB.State().CrashRecords()) {
		t.Fatal("second leaf missing the relayed fault")
	}
	// Resend round (reconnect simulation): nothing may double.
	leafA.link().close()
	if err := leafA.Sync(); err != nil {
		t.Fatal(err)
	}
	planted := 0
	for _, r := range state.CrashRecords() {
		if r.Site == "modbus.test.site" {
			planted++
			if r.Count != 3 {
				t.Fatalf("fault count inflated to %d after resend", r.Count)
			}
		}
	}
	// Exactly one instance of the planted fault; the short libmodbus runs
	// may legitimately contribute further records of their own.
	if planted != 1 {
		t.Fatalf("hub bank has %d copies of the planted fault, want 1", planted)
	}
}

// TestHubCompactsSharedJournal: with every leaf's cursor advanced, the hub
// journal must not retain consumed prefixes.
func TestHubCompactsSharedJournal(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 5, 0)
	hub, hubFleet := startHub(t, tgt.Models())
	state := hubFleet.State()
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-c")

	fleet.Drive(nil, core.Budget{Execs: 6000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Sync(); err != nil { // second window advances past round one's tail
		t.Fatal(err)
	}
	// The hub's own worker is a journal consumer too; its sync round
	// flushes it, as a running hub does every window.
	if err := hub.Sync(); err != nil {
		t.Fatal(err)
	}
	var base, length int
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		base, length = corp.JournalBase(), corp.JournalLen()
		return nil
	}))
	if base == 0 && length > 0 {
		t.Fatalf("hub journal never compacted: base %d, len %d", base, length)
	}
}

// TestHubRestartWithLostState is the README's hardest failure promise: a
// hub that restarts with a FRESH SyncState (everything lost) must serve a
// reconnecting leaf whose saved cursor now points past the end of the new
// hub's empty journal — degrading to a full replay, never crashing — and
// the fleet must re-converge.
func TestHubRestartWithLostState(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 13, 0)
	hub, _ := startHub(t, tgt.Models())
	addr := hub.Addr()
	leaf := newTestLeaf(t, fleet, tgt, addr, "leaf-lost")

	fleet.Drive(nil, core.Budget{Execs: 6000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if leaf.link().session.remoteCursor == 0 {
		t.Skip("campaign pushed no puzzles; cursor overrun not exercised")
	}
	hub.Close()

	// Restart with lost state: a fresh fleet, empty journal.
	freshFleet, _ := newLeafFleet(t, 0, 0)
	freshState := freshFleet.State()
	if _, err := listenHub(t, freshFleet, "libmodbus", tgt.Models(), addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}

	fleet.Drive(nil, core.Budget{Execs: fleet.Execs() + 2000}, nil)
	var synced bool
	for attempt := 0; attempt < 3 && !synced; attempt++ {
		synced = syncNow(leaf) == nil
	}
	if !synced {
		t.Fatal("leaf failed to resync with the state-lost hub")
	}
	// One more window: the leaf's stale cursor has been re-issued by the
	// new hub, and the fresh hub must have received the full replay.
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := freshState.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("state-lost hub re-converged to %d edges, leaf has %d", got, want)
	}
}

// TestClosedLeafDoesNotPinCompaction: after Close, a detached uplink must
// not block the fleet's shared-journal compaction while the campaign keeps
// fuzzing; a revived leaf re-registers and still converges.
func TestClosedLeafDoesNotPinCompaction(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 17, 0)
	hub, hubFleet := startHub(t, tgt.Models())
	state := hubFleet.State()
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-pin")

	fleet.Drive(nil, core.Budget{Execs: 3000}, nil)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	leaf.link().close()

	// Keep fuzzing detached; worker syncs keep feeding the shared journal.
	fleet.Drive(nil, core.Budget{Execs: fleet.Execs() + 5000}, nil)
	fleet.SyncAll()
	var base, length int
	fleet.State().Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		base, length = corp.JournalBase(), corp.JournalLen()
		return nil
	}))
	if base == 0 && length > 0 {
		t.Fatalf("closed uplink pinned the journal: base %d, len %d", base, length)
	}

	// Revival: the leaf re-registers (full replay if compacted past) and
	// the hub still converges to the fleet's state.
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("revived leaf: hub at %d edges, fleet at %d", got, want)
	}
}
