package fleetnet

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// uplink is one outbound link of a mesh node: a dialer-driven session
// with one remote accept loop, plus its retry accounting. Target, digest,
// node id, timeouts and logging come from the parent node. Every method
// runs on the node's driving goroutine. Disconnects are tolerated: the
// next exchange redials and resumes — the cursor into the remote journal
// survives locally, and everything re-pushed merges idempotently on the
// remote.
type uplink struct {
	m      *Mesh
	addr   string
	static bool
	fails  int // consecutive failed attempts; learned peers are forgotten past meshPeerFails
	skip   int // disconnected-redial backoff: windows to sit out before the next attempt

	conn net.Conn
	// session is the per-peer sync state for this link: the shadow of
	// what the remote holds, the cursors into both journals, and the
	// crash watermarks. Reset on reconnect (remoteCursor excepted) — the
	// replacement connection's far side may be a restarted process that
	// lost this session's context.
	session *peerSession
	// Cumulative wire traffic (frame payloads + headers).
	txBytes, rxBytes int
}

// newUplink registers a link to addr with the node's shared corpus
// journal. No connection is made until its first exchange.
func (m *Mesh) newUplink(addr string, static bool) *uplink {
	u := &uplink{m: m, addr: addr, static: static, session: newPeerSession()}
	m.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		u.session.register(corp, 0)
		return nil
	}))
	return u
}

// exchange runs one merge window with the remote: exchange deltas over
// the wire and fold the reply into the shared state. The caller flushes
// the fleet's workers around it. On any failure the session is reset (the
// next exchange redials and re-pushes from scratch; all exchanged state
// merges idempotently) and the error is returned for logging — the node
// keeps fuzzing regardless. A cancellation that lands mid-window
// interrupts the dial and any blocked frame I/O promptly instead of
// waiting out the frame timeout.
func (u *uplink) exchange(ctx context.Context) error {
	if u.conn == nil {
		if err := u.dial(ctx); err != nil {
			return err
		}
	}
	unwatch := watchContext(ctx, u.conn)
	defer unwatch()
	ack, err := u.roundTrip(ctx, u.buildPush())
	if err == nil {
		err = u.applyAck(ack)
	}
	if err != nil {
		u.reset()
	}
	return err
}

// buildPush assembles one push frame: everything the remote is not known
// to hold. The deltas are built under the state lock; network I/O stays
// outside it.
func (u *uplink) buildPush() *syncFrame {
	fleet := u.m.cfg.Fleet
	req := &syncFrame{
		execs:  uint64(fleet.Execs()),
		cursor: uint64(u.session.remoteCursor),
	}
	bank := fleet.Crashes()
	req.hangs = uint64(bank.Hangs())
	req.crashes = u.session.crashDelta(bank.Records())
	u.m.state.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		// A close released the journal registration so a dead link never
		// pins compaction; an exchange after close is a revival, so
		// re-register at the saved cursor (clamped into the live journal).
		u.session.register(corp, u.session.localCursor)
		req.virginDelta, req.puzzles = u.session.sendDelta(virgin, corp)
		corp.CompactJournal()
		return nil
	}))
	return req
}

// roundTrip ships one push and reads the reply, accounting wire traffic.
func (u *uplink) roundTrip(ctx context.Context, req *syncFrame) (*syncAckFrame, error) {
	u.conn.SetDeadline(time.Now().Add(u.m.cfg.Timeout))
	// The deadline store above can overwrite the context watcher's yank if
	// the cancellation landed while the push was being built; re-checking
	// after the store closes that window (a cancel after this check finds
	// the fresh deadline in place and yanks it normally).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	push := req.encode(nil)
	u.txBytes += len(push) + 5 // frame header + type byte
	if err := writeFrame(u.conn, frameSync, push); err != nil {
		return nil, fmt.Errorf("fleetnet: push to %s: %w", u.addr, err)
	}
	typ, payload, err := readFrame(u.conn)
	if err != nil {
		return nil, fmt.Errorf("fleetnet: read reply from %s: %w", u.addr, err)
	}
	u.rxBytes += len(payload) + 5
	if typ == frameError {
		r := &wireReader{buf: payload}
		return nil, fmt.Errorf("fleetnet: peer rejected sync: %s", r.str())
	}
	if typ != frameSyncAck {
		return nil, fmt.Errorf("fleetnet: expected syncAck, got frame type %d", typ)
	}
	return decodeSyncAck(payload)
}

// applyAck folds one reply into the shared state under the state lock and
// advances the remote-journal cursor.
func (u *uplink) applyAck(ack *syncAckFrame) error {
	err := u.m.state.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
		return u.session.absorbDelta(ack.virginDelta, ack.puzzles, ack.crashes, virgin, corp, crashes)
	}))
	if err != nil {
		return err
	}
	u.session.remoteCursor = int(ack.newCursor)
	return nil
}

// dial connects and handshakes. The context interrupts both the TCP
// connect and the handshake frames.
func (u *uplink) dial(ctx context.Context) error {
	m := u.m
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return fmt.Errorf("fleetnet: dial %s: %w", u.addr, err)
	}
	unwatch := watchContext(ctx, conn)
	defer unwatch()
	m.mu.Lock()
	advertise := m.advertise
	m.mu.Unlock()
	hello := &helloFrame{
		version:      ProtocolVersion,
		nodeID:       m.cfg.NodeID,
		target:       m.cfg.Target,
		digest:       m.digest,
		resumeCursor: uint64(u.session.remoteCursor),
		advertise:    advertise,
		peers:        m.knownPeers(),
	}
	ack, err := u.handshake(ctx, conn, hello)
	if err != nil {
		conn.Close()
		return err
	}
	for _, a := range ack.peers {
		m.learnPeer(a)
	}
	u.conn = conn
	m.cfg.Logf("fleetnet mesh %s: connected to %q at %s (protocol %d)", m.cfg.NodeID, ack.nodeID, u.addr, ack.version)
	return nil
}

// handshake sends hello on a fresh connection and validates the reply.
func (u *uplink) handshake(ctx context.Context, conn net.Conn, hello *helloFrame) (*helloAckFrame, error) {
	conn.SetDeadline(time.Now().Add(u.m.cfg.Timeout))
	// Same deadline-vs-cancel window as roundTrip: the store above could
	// have buried a cancellation that landed while hello was assembled.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := writeFrame(conn, frameHello, hello.encode(nil)); err != nil {
		return nil, fmt.Errorf("fleetnet: send hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("fleetnet: read hello reply: %w", err)
	}
	if typ == frameError {
		r := &wireReader{buf: payload}
		return nil, fmt.Errorf("fleetnet: peer refused connection: %s", r.str())
	}
	if typ != frameHelloAck {
		return nil, fmt.Errorf("fleetnet: expected helloAck, got frame type %d", typ)
	}
	ack, err := decodeHelloAck(payload)
	if err != nil {
		return nil, err
	}
	if ack.version != ProtocolVersion {
		return nil, fmt.Errorf("fleetnet: peer negotiated unsupported protocol %d (this build speaks %d)",
			ack.version, ProtocolVersion)
	}
	return ack, nil
}

// reset tears the session down so the next exchange starts fresh. The
// shadow bitmap, local cursor, and sent-crash set rewind to zero — the
// replacement connection's far side may not remember this session, so
// everything is re-pushed and merges idempotently. The remote cursor
// deliberately survives: it indexes remote state, and the remote
// downgrades a stale cursor to a full replay by itself.
func (u *uplink) reset() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
	u.session.resetWire()
}

// close ends the session and unregisters the link from the shared corpus
// journal, so a detached link does not pin journal compaction while the
// campaign keeps fuzzing. A later exchange revives it: it re-registers
// (falling back to a full journal replay if its tail was compacted away)
// and reconnects.
func (u *uplink) close() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
	if u.session.journalID >= 0 {
		u.m.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
			u.session.unregister(corp)
			return nil
		}))
	}
}

// connected reports whether a session is currently established.
func (u *uplink) connected() bool { return u.conn != nil }
