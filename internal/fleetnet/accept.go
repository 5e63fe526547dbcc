package fleetnet

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// This file is the acceptor side of a mesh node: the accept loop, one
// handler per inbound session, and the per-peer accounting behind
// PeerStats and RemoteExecs. Every accepted connection merges through the
// same core.SyncPeer path local workers use, so the shared state's mutex
// serializes workers and remote sessions alike.

// remotePeer is the acceptor's per-peer accounting, keyed by the peer's
// self-chosen node id. execs is the absolute figure from the peer's latest
// sync, so reconnects and resends never double-count. gen counts sessions:
// a redial before the previous connection is reaped starts a new session
// under the same id, and only the *current* session's teardown may mark
// the peer disconnected (see Mesh.handle).
type remotePeer struct {
	execs     uint64
	connected bool
	gen       uint64
	advertise string // dial-back address from the latest handshake ("" for a node without one)
}

// ListenAndServe starts the node's accept loop on addr (host:port; ":0"
// picks a free port) and serves until Close. It returns once the listener
// is installed; inbound peers are served in the background. The bound
// address becomes the advertised one unless MeshConfig.Advertise is set.
func (m *Mesh) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ln.Close()
		return fmt.Errorf("fleetnet: node is closed")
	}
	m.ln = ln
	if m.advertise == "" {
		m.advertise = ln.Addr().String()
	}
	m.mu.Unlock()
	m.wg.Add(1)
	go m.acceptLoop(ln)
	return nil
}

// Addr returns the accept loop's bound address, or "" before
// ListenAndServe.
func (m *Mesh) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// remoteStats sums the latest execution figures reported by every inbound
// peer ever seen (disconnected peers' contributions remain — the work
// happened) and counts the ones currently connected.
func (m *Mesh) remoteStats() (execs, connected int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.remotes {
		execs += int(p.execs)
		if p.connected {
			connected++
		}
	}
	return execs, connected
}

// inboundAdvertised lists the advertised dial-back addresses of currently
// connected inbound sessions, so the node does not duplicate a link that
// already exists in the other direction: a learned peer that keeps an
// uplink to us does not need one from us.
func (m *Mesh) inboundAdvertised() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool)
	for _, p := range m.remotes {
		if p.connected && p.advertise != "" {
			out[p.advertise] = true
		}
	}
	return out
}

func (m *Mesh) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		m.mu.Lock()
		closed := m.closed
		if err == nil && !closed {
			m.conns[conn] = struct{}{}
		}
		m.mu.Unlock()
		if err != nil {
			if !closed {
				m.cfg.Logf("fleetnet mesh %s: accept: %v", m.cfg.NodeID, err)
			}
			return
		}
		if closed {
			conn.Close()
			return
		}
		m.wg.Add(1)
		go m.handle(conn)
	}
}

// connPeer is the acceptor side of one session: the peerSession cursors
// that make deltas deltas, plus the frames of the window in flight. It
// implements core.SyncPeer for the window where a decoded sync frame is
// merged and the reply is built, so a remote peer takes exactly the merge
// path a local worker does.
type connPeer struct {
	nodeID  string
	gen     uint64 // session generation under nodeID; see remotePeer.gen
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

// handle runs one inbound session: handshake, then sync windows until the
// connection drops or the node closes.
func (m *Mesh) handle(conn net.Conn) {
	defer m.wg.Done()
	peer := &connPeer{session: newPeerSession()}
	defer func() {
		conn.Close()
		// A gone peer must not pin journal compaction; if it resumes, the
		// handshake re-registers it at its resume cursor (or the journal
		// fallback replays the full corpus for it).
		if peer.session.journalID >= 0 {
			m.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
				peer.session.unregister(corp)
				return nil
			}))
		}
		m.mu.Lock()
		delete(m.conns, conn)
		// Only the session currently owning this node id may report it
		// disconnected: a peer that redialed before this stale connection
		// was reaped has already started generation gen+1, and its live
		// session must keep counting as connected.
		if p, ok := m.remotes[peer.nodeID]; ok && p.gen == peer.gen {
			p.connected = false
		}
		m.mu.Unlock()
	}()

	if err := m.handshake(conn, peer); err != nil {
		m.cfg.Logf("fleetnet mesh %s: handshake from %s: %v", m.cfg.NodeID, conn.RemoteAddr(), err)
		return
	}
	m.cfg.Logf("fleetnet mesh %s: peer %q connected from %s", m.cfg.NodeID, peer.nodeID, conn.RemoteAddr())

	for {
		conn.SetDeadline(time.Now().Add(m.cfg.Timeout))
		typ, payload, err := readFrame(conn)
		if err != nil {
			m.cfg.Logf("fleetnet mesh %s: peer %q: %v", m.cfg.NodeID, peer.nodeID, err)
			return
		}
		switch typ {
		case frameSync:
		case frameError:
			r := &wireReader{buf: payload}
			m.cfg.Logf("fleetnet mesh %s: peer %q sent error: %s", m.cfg.NodeID, peer.nodeID, r.str())
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
		if err := m.state.Exchange(peer); err != nil {
			m.cfg.Logf("fleetnet mesh %s: peer %q push rejected: %v", m.cfg.NodeID, peer.nodeID, err)
			sendError(conn, "%v", err)
			return
		}
		m.notePeer(peer.nodeID, req.execs)
		execs, connected := m.remoteStats()
		peer.ack.fleetExecs = uint64(execs) + uint64(m.localExecs.Load())
		peer.ack.leaves = uint64(connected)
		if err := writeFrame(conn, frameSyncAck, peer.ack.encode(nil)); err != nil {
			m.cfg.Logf("fleetnet mesh %s: peer %q: %v", m.cfg.NodeID, peer.nodeID, err)
			return
		}
	}
}

// handshake validates a hello frame and replies. Only structural protocol
// errors are tolerated silently; mismatched versions, targets or models
// are answered with an error frame so the operator sees the reason on the
// dialing side.
func (m *Mesh) handshake(conn net.Conn, peer *connPeer) error {
	conn.SetDeadline(time.Now().Add(m.cfg.Timeout))
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
	if hello.target != m.cfg.Target {
		err := fmt.Errorf("peer fuzzes target %q, this node fuzzes %q", hello.target, m.cfg.Target)
		sendError(conn, "%v", err)
		return err
	}
	if hello.digest != m.digest {
		err := fmt.Errorf("model digest mismatch (peer %016x, local %016x): data models differ", hello.digest, m.digest)
		sendError(conn, "%v", err)
		return err
	}
	peer.nodeID = hello.nodeID
	m.mu.Lock()
	p, ok := m.remotes[peer.nodeID]
	if !ok {
		p = &remotePeer{}
		m.remotes[peer.nodeID] = p
	}
	p.gen++
	peer.gen = p.gen
	p.connected = true
	p.advertise = hello.advertise
	m.mu.Unlock()
	// Seed the journal registration from the resume cursor NOW, before the
	// ack releases the dialer: a resuming peer's tail is pinned against
	// compaction from the moment it connects, not from its first sync.
	m.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		peer.session.register(corp, int(hello.resumeCursor))
		return nil
	}))
	m.learnPeer(hello.advertise)
	for _, a := range hello.peers {
		m.learnPeer(a)
	}
	ack := &helloAckFrame{version: version, digest: m.digest, nodeID: m.cfg.NodeID, peers: m.knownPeers()}
	return writeFrame(conn, frameHelloAck, ack.encode(nil))
}

// notePeer records a peer's absolute execution total.
func (m *Mesh) notePeer(nodeID string, execs uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.remotes[nodeID]; p != nil && execs > p.execs {
		p.execs = execs
	}
}
