package fleetnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
)

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

// HubConfig parameterizes a Hub.
type HubConfig struct {
	// State is the campaign state the hub serves — typically a running
	// Fleet's State(), so the hub's own workers and its remote leaves
	// converge on one campaign; a standalone aggregator passes
	// core.NewSyncState.
	State *core.SyncState
	// Target and Models identify the campaign for the handshake.
	Target string
	Models []*datamodel.Model
	// NodeID names this hub in handshakes; defaults to "hub".
	NodeID string
	// LocalExecs, when non-nil, reports the hub's own executions so leaf
	// progress displays can show a fleet-wide total. It is called from
	// connection-handler goroutines and must be safe for concurrent use
	// (core.Fleet.ExecsApprox is; Fleet.Execs is not).
	LocalExecs func() int
	// Timeout bounds each frame read/write (0 = 30s). A leaf that stalls
	// longer is dropped; it reconnects with its resume cursor.
	Timeout time.Duration
	// Logf receives connection lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
	// KnownPeers, when non-nil, supplies the peer addresses shared in
	// helloAcks — the acceptor half of the mesh peer exchange. Nil for a
	// plain hub. Called from handler goroutines.
	KnownPeers func() []string
	// LearnPeer, when non-nil, receives every peer address announced in a
	// hello (the dialer's advertise address plus its known peers). Nil
	// ignores them. Called from handler goroutines.
	LearnPeer func(addr string)
}

// Hub serves one campaign's shared state to remote peers. Every accepted
// connection merges through the same core.SyncPeer path local workers use,
// so a hub that also runs a local Fleet needs no extra coordination — the
// shared state's mutex serializes workers and remote sessions alike. In
// mesh mode every node embeds a Hub as its accept loop.
type Hub struct {
	cfg    HubConfig
	digest uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	leaves map[string]*remoteLeaf
	closed bool
	// done closes when the hub does — the signal context watchers and
	// other background observers select on.
	done chan struct{}
	wg   sync.WaitGroup
}

// remoteLeaf is the hub's per-peer accounting, keyed by the peer's
// self-chosen node id. Totals are absolute figures from the peer's latest
// sync, so reconnects and resends never double-count. gen counts sessions:
// a redial before the previous connection is reaped starts a new session
// under the same id, and only the *current* session's teardown may mark
// the peer disconnected (see Hub.handle).
type remoteLeaf struct {
	execs, hangs uint64
	connected    bool
	gen          uint64
	advertise    string // dial-back address from the latest handshake ("" for plain leaves)
}

// NewHub validates the configuration and returns a hub ready to Serve.
func NewHub(cfg HubConfig) (*Hub, error) {
	if cfg.State == nil {
		return nil, fmt.Errorf("fleetnet: HubConfig.State is required")
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("fleetnet: HubConfig.Target is required")
	}
	if cfg.NodeID == "" {
		cfg.NodeID = "hub"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Hub{
		cfg:    cfg,
		digest: ModelDigest(cfg.Target, cfg.Models),
		conns:  make(map[net.Conn]struct{}),
		leaves: make(map[string]*remoteLeaf),
		done:   make(chan struct{}),
	}, nil
}

// ListenAndServe listens on addr (host:port; ":0" picks a free port) and
// serves until Close. It returns once the listener is installed; the accept
// loop runs in the background. Addr reports the bound address.
func (h *Hub) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return fmt.Errorf("fleetnet: hub is closed")
	}
	h.ln = ln
	h.mu.Unlock()
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return nil
}

// Addr returns the listener's address, or "" before ListenAndServe.
func (h *Hub) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// Close stops accepting, disconnects every peer, and waits for the
// connection handlers to drain. Safe to call more than once (a
// context-scoped hub may race its watcher's Close against the caller's).
// The shared state keeps everything already merged; a restarted hub on
// the same state resumes cleanly.
func (h *Hub) Close() error {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
	ln := h.ln
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	h.wg.Wait()
	return nil
}

// RemoteStats sums the latest absolute figures reported by every peer ever
// seen (disconnected peers' contributions remain — the work happened) and
// reports how many are currently connected.
func (h *Hub) RemoteStats() (execs, hangs, connected int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.leaves {
		execs += int(l.execs)
		hangs += int(l.hangs)
		if l.connected {
			connected++
		}
	}
	return execs, hangs, connected
}

// InboundAdvertised lists the advertised dial-back addresses of currently
// connected inbound sessions. The mesh consults it to avoid duplicating a
// link that already exists in the other direction: a learned peer that
// keeps an uplink to us does not need one from us.
func (h *Hub) InboundAdvertised() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool)
	for _, l := range h.leaves {
		if l.connected && l.advertise != "" {
			out[l.advertise] = true
		}
	}
	return out
}

func (h *Hub) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if !closed {
				h.cfg.Logf("fleetnet hub: accept: %v", err)
			}
			return
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.conns[conn] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go h.handle(conn)
	}
}

// connPeer is the acceptor side of one session: the peerSession cursors
// that make deltas deltas, plus the frames of the window in flight. It
// implements core.SyncPeer for the window where a decoded sync frame is
// merged and the reply is built, so a remote peer takes exactly the merge
// path a local worker does.
type connPeer struct {
	hub     *Hub
	nodeID  string
	gen     uint64 // session generation under nodeID; see remoteLeaf.gen
	session *peerSession

	req *syncFrame    // current window's decoded push
	ack *syncAckFrame // reply being built
}

// Exchange merges one peer push into the shared state and builds the reply
// under the same lock — one atomic merge window, exactly like a worker's.
// The reply deltas are built BEFORE the push is absorbed: the journal tail
// then contains only other nodes' puzzles and the bitmap delta only other
// nodes' words, so nothing the peer already knows is echoed back.
func (p *connPeer) Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
	req, ack, s := p.req, p.ack, p.session
	// The dialer owns its cursor into our journal — it survives its own
	// session resets where our copy would not — so honor the one it sent.
	s.localCursor = int(req.cursor)
	ack.virginDelta, ack.puzzles = s.sendDelta(virgin, corp)
	// Absorbing the push advances localCursor over the entries it
	// journaled (nothing else can append inside this locked window), so
	// the cursor returned to the dialer skips exactly its own material.
	if err := s.absorbDelta(req.virginDelta, req.puzzles, req.crashes, virgin, corp, crashes); err != nil {
		return err
	}
	ack.crashes = s.crashDelta(crashes.Records())
	ack.newCursor = uint64(s.localCursor)
	corp.CompactJournal()
	ack.fleetEdges = uint64(virgin.Edges())
	return nil
}

// handle runs one peer session: handshake, then sync windows until the
// connection drops or the hub closes.
func (h *Hub) handle(conn net.Conn) {
	defer h.wg.Done()
	peer := &connPeer{hub: h, session: newPeerSession()}
	defer func() {
		conn.Close()
		// A gone peer must not pin journal compaction; if it resumes, the
		// handshake re-registers it at its resume cursor (or the journal
		// fallback replays the full corpus for it).
		if peer.session.journalID >= 0 {
			h.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
				peer.session.unregister(corp)
				return nil
			}))
		}
		h.mu.Lock()
		delete(h.conns, conn)
		// Only the session currently owning this node id may report it
		// disconnected: a peer that redialed before this stale connection
		// was reaped has already started generation gen+1, and its live
		// session must keep counting as connected.
		if l, ok := h.leaves[peer.nodeID]; ok && l.gen == peer.gen {
			l.connected = false
		}
		h.mu.Unlock()
	}()

	if err := h.handshake(conn, peer); err != nil {
		h.cfg.Logf("fleetnet hub: handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	h.cfg.Logf("fleetnet hub: peer %q connected from %s", peer.nodeID, conn.RemoteAddr())

	for {
		conn.SetDeadline(time.Now().Add(h.cfg.Timeout))
		typ, payload, err := readFrame(conn)
		if err != nil {
			h.cfg.Logf("fleetnet hub: peer %q: %v", peer.nodeID, err)
			return
		}
		switch typ {
		case frameSync:
		case frameError:
			r := &wireReader{buf: payload}
			h.cfg.Logf("fleetnet hub: peer %q sent error: %s", peer.nodeID, r.str())
			return
		default:
			sendError(conn, "unexpected frame type %d mid-session", typ)
			return
		}
		req, err := decodeSync(payload)
		if err != nil {
			sendError(conn, "%v", err)
			return
		}
		peer.req = req
		peer.ack = &syncAckFrame{}
		if err := h.cfg.State.Exchange(peer); err != nil {
			h.cfg.Logf("fleetnet hub: peer %q push rejected: %v", peer.nodeID, err)
			sendError(conn, "%v", err)
			return
		}
		h.noteLeaf(peer.nodeID, req)
		peer.ack.fleetExecs = uint64(h.fleetExecs())
		_, _, connected := h.RemoteStats()
		peer.ack.leaves = uint64(connected)
		if err := writeFrame(conn, frameSyncAck, peer.ack.encode(nil)); err != nil {
			h.cfg.Logf("fleetnet hub: peer %q: %v", peer.nodeID, err)
			return
		}
	}
}

// handshake validates a hello frame and replies. Only structural protocol
// errors are tolerated silently; mismatched target/models are answered with
// an error frame so the operator sees the reason on the dialing side.
func (h *Hub) handshake(conn net.Conn, peer *connPeer) error {
	conn.SetDeadline(time.Now().Add(h.cfg.Timeout))
	typ, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != frameHello {
		sendError(conn, "expected hello, got frame type %d", typ)
		return fmt.Errorf("expected hello, got type %d", typ)
	}
	hello, err := decodeHello(payload)
	if err != nil {
		sendError(conn, "%v", err)
		return err
	}
	version, err := negotiate(hello.version)
	if err != nil {
		sendError(conn, "%v", err)
		return err
	}
	if hello.target != h.cfg.Target {
		err := fmt.Errorf("peer fuzzes target %q, this node fuzzes %q", hello.target, h.cfg.Target)
		sendError(conn, "%v", err)
		return err
	}
	if hello.digest != h.digest {
		err := fmt.Errorf("model digest mismatch (peer %016x, local %016x): data models differ", hello.digest, h.digest)
		sendError(conn, "%v", err)
		return err
	}
	peer.nodeID = hello.nodeID
	h.mu.Lock()
	l, ok := h.leaves[peer.nodeID]
	if !ok {
		l = &remoteLeaf{}
		h.leaves[peer.nodeID] = l
	}
	l.gen++
	peer.gen = l.gen
	l.connected = true
	l.advertise = hello.advertise
	h.mu.Unlock()
	// Seed the journal registration from the resume cursor NOW, before the
	// ack releases the dialer: a resuming peer's tail is pinned against
	// compaction from the moment it connects, not from its first sync.
	h.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		peer.session.register(corp, int(hello.resumeCursor))
		return nil
	}))
	if h.cfg.LearnPeer != nil {
		if hello.advertise != "" {
			h.cfg.LearnPeer(hello.advertise)
		}
		for _, a := range hello.peers {
			h.cfg.LearnPeer(a)
		}
	}
	ack := &helloAckFrame{version: version, digest: h.digest, hubID: h.cfg.NodeID}
	if h.cfg.KnownPeers != nil {
		ack.peers = h.cfg.KnownPeers()
	}
	return writeFrame(conn, frameHelloAck, ack.encode(nil))
}

// noteLeaf records a peer's absolute progress figures.
func (h *Hub) noteLeaf(nodeID string, req *syncFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.leaves[nodeID]
	if l == nil {
		return // unreachable mid-session; handshake created the entry
	}
	if req.execs > l.execs {
		l.execs = req.execs
	}
	if req.hangs > l.hangs {
		l.hangs = req.hangs
	}
}

// fleetExecs is this node's best knowledge of total fleet executions.
func (h *Hub) fleetExecs() int {
	execs, _, _ := h.RemoteStats()
	if h.cfg.LocalExecs != nil {
		execs += h.cfg.LocalExecs()
	}
	return execs
}
