package fleetnet

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/datamodel"
)

// maxUplinks bounds a mesh node's outbound sessions. Convergence only
// needs the topology connected; past a point more links buy redundancy,
// not reach. Static peers are dialed first when the cap bites.
const maxUplinks = 16

// meshPeerFails is how many consecutive failed sync attempts a *learned*
// peer survives before the node forgets its address. Static peers are
// operator intent and are retried forever. Redials back off exponentially
// with jitter (see backoff.Policy.Steps): a failed attempt sits out
// roughly 2^(fails-1) windows, capped at meshPeerFails, plus a
// seed-jittered extra — so a dead peer costs one bounded dial every few
// windows, and nodes that watched the same peer die don't redial it in
// lockstep when it returns.
const meshPeerFails = 8

// dialTimeout bounds an uplink's TCP connect. Deliberately much tighter
// than the frame timeout: a blackholed peer (host down, SYN dropped) must
// not stall the node's whole sync round — and with it the fuzzing loop —
// for 30s.
const dialTimeout = 2 * time.Second

// MeshConfig parameterizes a Mesh node.
type MeshConfig struct {
	// Fleet is the local campaign this node contributes. Its shared state
	// is what every link — inbound and outbound — merges through.
	Fleet *core.Fleet
	// Target and Models identify the campaign for the handshake.
	Target string
	Models []*datamodel.Model
	// NodeID names this node in its peers' stats; defaults to
	// hostname/pid/sequence, distinct for several nodes in one process.
	NodeID string
	// Advertise is the address other nodes should dial to reach this
	// node's accept loop. Defaults to the listener address, which is
	// correct when listening on a routable interface (and on loopback
	// demos); override it when the bind address is not dialable from the
	// peers (":7712", a NAT, a container).
	Advertise string
	// Peers is the static bootstrap peer set: addresses this node always
	// keeps an uplink to. One seed address is enough to join a mesh — the
	// handshake peer exchange supplies the rest.
	Peers []string
	// StaticOnly disables dialing peers learned through the handshake
	// exchange: the node links only to its static set (inbound sessions
	// are still accepted, and learned addresses are still relayed onward).
	// For fixed topologies — rings, lines — where the experiment is the
	// shape.
	StaticOnly bool
	// Timeout bounds each frame read/write (0 = 30s). A peer that stalls
	// longer is dropped; it reconnects with its resume cursor.
	Timeout time.Duration
	// Logf receives lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
}

// Mesh is one fleetnet node. It may serve inbound peers from an accept
// loop (ListenAndServe), keep uplinks to every known peer address, or
// both, and every link merges through the node's own fleet state — so a
// fleet needs no designated hub, any node can vanish while the remaining
// links keep the campaign converging, and sync bandwidth scales with
// links, not through one box. The node holds a vector of peerSessions,
// one per link.
//
// A hub and a leaf are two shapes of this node: a hub listens and has no
// peers; a leaf dials one static peer and never listens.
//
// Sync and Close must be called from the fleet's driving goroutine; the
// accept loop and its handlers run in the background. The run loop lives
// in the public session driver, peachstar.Campaign.Start, which
// alternates core.Fleet.Drive windows with Mesh.SyncContext.
type Mesh struct {
	cfg    MeshConfig
	state  *core.SyncState
	digest uint64

	// mu guards the peer book (known, advertise) and the accept side
	// (ln, conns, remotes, closed), which handler goroutines share with
	// the driving goroutine.
	mu        sync.Mutex
	known     map[string]bool // address → static?
	advertise string
	ln        net.Listener
	conns     map[net.Conn]struct{}
	remotes   map[string]*remotePeer
	closed    bool
	// wg tracks the accept loop and its connection handlers.
	wg sync.WaitGroup

	// uplinks is touched only by the driving goroutine.
	uplinks map[string]*uplink
	// bk draws the redial-backoff jitter; seeded from the node ID so each
	// node jitters its own way (anti-thundering-herd) yet reproduces its
	// schedule across runs. Touched only by the driving goroutine.
	bk *backoff.Policy
	// closedTx/closedRx retain the traffic of dropped uplinks so Traffic
	// stays cumulative.
	closedTx, closedRx int

	// localExecs is the node's own execution count as of the last round,
	// published for handler goroutines building acks.
	localExecs atomic.Int64
	// pubUplinks is the connected-uplink count as of the last sync round,
	// published so PeerStats can be read from display goroutines without
	// touching the driving goroutine's uplink map.
	pubUplinks atomic.Int64
}

// nodeSeq disambiguates default node ids for several nodes in one process
// (the loopback examples and tests).
var nodeSeq uint32

// NewMesh validates the configuration and prepares the node. Nothing
// listens or dials until ListenAndServe and the first Sync.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("fleetnet: MeshConfig.Fleet is required")
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("fleetnet: MeshConfig.Target is required")
	}
	if cfg.NodeID == "" {
		host, _ := os.Hostname()
		cfg.NodeID = fmt.Sprintf("%s/%d/%d", host, os.Getpid(), atomic.AddUint32(&nodeSeq, 1))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Mesh{
		cfg:       cfg,
		state:     cfg.Fleet.State(),
		digest:    ModelDigest(cfg.Target, cfg.Models),
		known:     make(map[string]bool),
		advertise: cfg.Advertise,
		conns:     make(map[net.Conn]struct{}),
		remotes:   make(map[string]*remotePeer),
		uplinks:   make(map[string]*uplink),
		bk:        backoff.New(hashID(cfg.NodeID)),
	}
	for _, a := range cfg.Peers {
		if a != "" {
			m.known[a] = true
		}
	}
	return m, nil
}

// ModelDigest fingerprints a target's model set for the handshake: both
// ends of a link must be fuzzing the same target with structurally
// identical data models, or their rule signatures would disagree and
// donated puzzles would be garbage. The digest is an FNV-1a walk over the
// target name and every chunk's name, kind, and construction-rule
// signature in tree order.
func ModelDigest(target string, models []*datamodel.Model) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	var walk func(c *datamodel.Chunk)
	walk = func(c *datamodel.Chunk) {
		mix(c.Name)
		mix(fmt.Sprintf("%d", c.Kind))
		mix(datamodel.RuleSignature(c))
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	mix(target)
	for _, m := range models {
		mix(m.Name)
		for _, c := range m.Fields {
			walk(c)
		}
	}
	return h
}

// hashID folds a node ID into the 64-bit seed of the node's backoff
// jitter stream (FNV-1a).
func hashID(id string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}

// knownPeers snapshots the peer book for a handshake, sorted for
// determinism. Called from handler goroutines and uplink dials.
func (m *Mesh) knownPeers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.known))
	for a := range m.known {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// learnPeer folds one announced address into the peer book. Own address
// and known addresses are ignored. Called from handler goroutines and
// uplink dials.
func (m *Mesh) learnPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" || addr == m.advertise {
		return
	}
	if _, ok := m.known[addr]; !ok {
		m.known[addr] = false
		m.cfg.Logf("fleetnet mesh %s: learned peer %s", m.cfg.NodeID, addr)
	}
}

// AddPeer adds one address to the peer book at runtime as a static peer
// (dialed from the next Sync on, retried forever, never forgotten) — for
// topologies wired up after the nodes exist, like a ring of nodes that
// each had to listen before the next one could point at them.
func (m *Mesh) AddPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr != "" && addr != m.advertise {
		m.known[addr] = true
	}
}

// forgetPeer drops a learned address that stopped answering. Static
// addresses are never forgotten.
func (m *Mesh) forgetPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if static, ok := m.known[addr]; ok && !static {
		delete(m.known, addr)
		m.cfg.Logf("fleetnet mesh %s: forgot unreachable peer %s", m.cfg.NodeID, addr)
	}
}

// ensureUplinks creates uplinks for known peers that lack one: every
// static peer, plus — unless StaticOnly — every learned peer that does not
// already keep an inbound session to us (a link needs only one dialer; the
// exchange is bidirectional either way).
func (m *Mesh) ensureUplinks() {
	m.mu.Lock()
	type cand struct {
		addr   string
		static bool
	}
	var want []cand
	for addr, static := range m.known {
		if addr == m.advertise {
			continue
		}
		if static || !m.cfg.StaticOnly {
			want = append(want, cand{addr, static})
		}
	}
	m.mu.Unlock()
	// Static peers first: when maxUplinks bites, operator-configured links
	// must never be starved by alphabetically-earlier learned addresses.
	sort.Slice(want, func(i, j int) bool {
		if want[i].static != want[j].static {
			return want[i].static
		}
		return want[i].addr < want[j].addr
	})
	inbound := m.inboundAdvertised()
	for _, c := range want {
		if _, ok := m.uplinks[c.addr]; ok {
			continue
		}
		if !c.static && inbound[c.addr] {
			continue
		}
		if len(m.uplinks) >= maxUplinks {
			break
		}
		m.uplinks[c.addr] = m.newUplink(c.addr, c.static)
	}
}

// Sync runs one merge window with every peer: dial any known peer that
// lacks a link, then exchange deltas over each uplink in address order.
// Individual link failures are tolerated — the failing session resets and
// redials with capped exponential backoff and jitter, a learned peer that
// stays dead is eventually forgotten — and the first error is returned for
// logging; inbound sessions sync themselves through the accept loop. The
// node's fleet must not be running (call between Drive windows).
func (m *Mesh) Sync() error { return m.SyncContext(context.Background()) }

// SyncContext is Sync under a context: cancellation interrupts the uplink
// in flight (dial included) and skips the remaining uplinks of the round,
// so a canceled campaign leaves a mesh within one link exchange instead
// of finishing a full round against every peer. The context's error is
// returned once it fires; link errors keep their first-error-for-logging
// semantics.
func (m *Mesh) SyncContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.localExecs.Store(int64(m.cfg.Fleet.Execs()))
	// Flush the workers into the shared state before any uplink exchange:
	// a node whose links all point inward — a hub, or the seed node of a
	// freshly bootstrapped mesh — must still present its latest
	// discoveries to the peers that pull from it, and fold their pushes
	// back into its workers. Uplinks only move material between the
	// shared state and the wire, so one more flush after them, when any
	// exchanged, hands the workers everything the round pulled in.
	m.cfg.Fleet.SyncAll()
	m.ensureUplinks()
	m.pruneDuplicateLinks()
	addrs := make([]string, 0, len(m.uplinks))
	for a := range m.uplinks {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var firstErr, ctxErr error
	exchanged := false
	for _, addr := range addrs {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		u := m.uplinks[addr]
		if !u.connected() && u.skip > 0 {
			u.skip-- // back off a dead peer's redial; don't stall the round
			continue
		}
		err := u.exchange(ctx)
		if err == nil {
			exchanged = true
			u.fails, u.skip = 0, 0
			continue
		}
		if ctxErr = ctx.Err(); ctxErr != nil {
			// The campaign was canceled, not the peer: no failure is
			// charged against the link.
			break
		}
		u.fails++
		u.skip = m.bk.Steps(u.fails, meshPeerFails)
		m.cfg.Logf("fleetnet mesh %s: sync with %s: %v", m.cfg.NodeID, addr, err)
		if firstErr == nil {
			firstErr = err
		}
		if !u.static && u.fails >= meshPeerFails {
			m.dropUplink(addr, u)
			m.forgetPeer(addr)
		}
	}
	if exchanged {
		m.cfg.Fleet.SyncAll()
	}
	m.publishUplinks()
	if ctxErr != nil {
		return ctxErr
	}
	return firstErr
}

// publishUplinks refreshes the connected-uplink count PeerStats reads.
// Called from the driving goroutine at the end of a sync round (and on
// teardown), where the uplink map is safe to walk.
func (m *Mesh) publishUplinks() {
	n := 0
	for _, u := range m.uplinks {
		if u.connected() {
			n++
		}
	}
	m.pubUplinks.Store(int64(n))
}

// pruneDuplicateLinks resolves the bootstrap race where both sides of a
// pair learned each other in the same window and both dialed before either
// handshake landed: once a node sees a live inbound session from an
// address it also keeps a connected learned uplink to, the node with the
// lexically larger advertise address yields its uplink — deterministically
// one link per pair, bidirectional over whichever remains. Static uplinks
// are operator intent and never yielded.
func (m *Mesh) pruneDuplicateLinks() {
	m.mu.Lock()
	advertise := m.advertise
	m.mu.Unlock()
	var inbound map[string]bool
	for addr, u := range m.uplinks {
		if u.static || !u.connected() || advertise <= addr {
			continue
		}
		if inbound == nil {
			inbound = m.inboundAdvertised()
		}
		if !inbound[addr] {
			continue
		}
		m.dropUplink(addr, u)
		m.cfg.Logf("fleetnet mesh %s: yielded duplicate link to %s (peer keeps dialing)", m.cfg.NodeID, addr)
	}
}

// dropUplink closes one uplink, retaining its traffic counters. The
// address stays in the peer book unless the caller also forgets it.
func (m *Mesh) dropUplink(addr string, u *uplink) {
	m.closedTx += u.txBytes
	m.closedRx += u.rxBytes
	u.close()
	delete(m.uplinks, addr)
}

// PeerStats reports the node's connectivity: connected uplinks (as of
// the latest sync round), connected inbound sessions, and the size of
// the peer book (static + learned). Safe to call from any goroutine —
// progress displays consume it from event loops while the driving
// goroutine syncs.
func (m *Mesh) PeerStats() (uplinks, inbound, known int) {
	_, inbound = m.remoteStats()
	m.mu.Lock()
	known = len(m.known)
	m.mu.Unlock()
	return int(m.pubUplinks.Load()), inbound, known
}

// RemoteExecs sums the executions reported by peers over inbound sessions
// (absolute figures, surviving disconnects) — the node's window into work
// it did not do itself.
func (m *Mesh) RemoteExecs() int {
	execs, _ := m.remoteStats()
	return execs
}

// Traffic returns the cumulative bytes this node's uplinks have sent and
// received in sync frames, headers included and handshakes excluded
// (inbound sessions are accounted by their dialer's Traffic) — the
// measurement behind `make bench-fleetnet`.
func (m *Mesh) Traffic() (tx, rx int) {
	tx, rx = m.closedTx, m.closedRx
	for _, u := range m.uplinks {
		tx += u.txBytes
		rx += u.rxBytes
	}
	return tx, rx
}

// Close tears the node down: every uplink is closed (unregistering its
// journal consumers), the accept loop stops, every inbound peer is
// disconnected, and Close waits for the connection handlers to drain.
// The fleet and everything already merged stay intact — a mesh with a
// closed node keeps converging over its remaining links, and a
// replacement node on the same fleet resumes cleanly.
func (m *Mesh) Close() error {
	for addr, u := range m.uplinks {
		m.dropUplink(addr, u)
	}
	m.publishUplinks()
	m.mu.Lock()
	m.closed = true
	ln := m.ln
	for c := range m.conns {
		c.Close()
	}
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	m.wg.Wait()
	return nil
}
