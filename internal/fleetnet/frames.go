package fleetnet

import (
	"repro/internal/corpus"
	"repro/internal/crash"
	"repro/internal/mem"
)

// This file defines the typed view of each frame payload and its
// encode/decode pair. Decoded blobs alias the frame buffer (one allocation
// per frame); everything downstream either copies on store (crash bank) or
// treats puzzle data as immutable (corpus), matching in-process semantics.

// helloFrame opens a session (dialer → acceptor).
type helloFrame struct {
	version uint64
	nodeID  string // stable per node process; keys the acceptor's per-peer stats
	target  string // protocol target name, must match the acceptor's
	digest  uint64 // model-set digest, must match the acceptor's
	// resumeCursor is the dialer's saved position in the acceptor's corpus
	// journal — how much of the acceptor's corpus it had consumed before a
	// disconnect. Zero for a fresh peer. The acceptor seeds its journal
	// registration from it at handshake time, so compaction is pinned
	// correctly from the moment a resuming peer connects.
	resumeCursor uint64
	// Peer exchange (protocol v2): the address other nodes can dial this
	// node at ("" for a node with no accept loop) and the mesh peer
	// addresses it knows, so one seed address bootstraps a whole mesh.
	advertise string
	peers     []string
}

func (f *helloFrame) encode(dst []byte) []byte {
	dst = append(dst, magic...)
	dst = appendUvarint(dst, f.version)
	dst = appendString(dst, f.nodeID)
	dst = appendString(dst, f.target)
	dst = appendU64(dst, f.digest)
	dst = appendUvarint(dst, f.resumeCursor)
	dst = appendString(dst, f.advertise)
	return appendAddrs(dst, f.peers)
}

func decodeHello(payload []byte) (*helloFrame, error) {
	r := &wireReader{buf: payload}
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		r.fail("bad magic (not a fleetnet client)")
		return nil, r.err
	}
	r.pos = len(magic)
	f := &helloFrame{
		version:      r.uvarint(),
		nodeID:       r.str(),
		target:       r.str(),
		digest:       r.u64(),
		resumeCursor: r.uvarint(),
	}
	// The peer-exchange tail was added in protocol v2; tolerate its absence
	// so a v1 hello still decodes far enough to be refused by version.
	if r.err == nil && r.pos < len(r.buf) {
		f.advertise = r.str()
		f.peers = readAddrs(r)
	}
	return f, r.done()
}

// helloAckFrame accepts a session (acceptor → dialer).
type helloAckFrame struct {
	version uint64 // negotiated session version
	digest  uint64 // acceptor's model digest, echoed for symmetric diagnostics
	nodeID  string
	// peers is the acceptor's known mesh peer set (protocol v2) — how a
	// node that bootstrapped from one address learns the rest of the mesh.
	peers []string
}

func (f *helloAckFrame) encode(dst []byte) []byte {
	dst = appendUvarint(dst, f.version)
	dst = appendU64(dst, f.digest)
	dst = appendString(dst, f.nodeID)
	return appendAddrs(dst, f.peers)
}

func decodeHelloAck(payload []byte) (*helloAckFrame, error) {
	r := &wireReader{buf: payload}
	f := &helloAckFrame{version: r.uvarint(), digest: r.u64(), nodeID: r.str()}
	if r.err == nil && r.pos < len(r.buf) {
		f.peers = readAddrs(r)
	}
	return f, r.done()
}

// appendAddrs / readAddrs encode the peer-address lists of the v2 peer
// exchange.
func appendAddrs(dst []byte, addrs []string) []byte {
	dst = appendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = appendString(dst, a)
	}
	return dst
}

// maxPeerAddrs bounds a peer-exchange list; any sane mesh is orders of
// magnitude smaller, so a bigger count means a corrupt frame.
const maxPeerAddrs = 1024

func readAddrs(r *wireReader) []string {
	n := r.count("peer", 1)
	if n == 0 {
		return nil
	}
	if n > maxPeerAddrs {
		r.fail("implausible peer count %d", n)
		return nil
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		addrs = append(addrs, r.str())
	}
	return addrs
}

// appendPuzzles / readPuzzles encode the corpus delta shared by both sync
// directions.
func appendPuzzles(dst []byte, ps []corpus.Puzzle) []byte {
	dst = appendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = appendString(dst, p.Signature)
		dst = appendString(dst, p.Model)
		dst = appendBlob(dst, p.Data)
	}
	return dst
}

func readPuzzles(r *wireReader) []corpus.Puzzle {
	n := r.count("puzzle", 3) // signature, model and data lengths
	if n == 0 {
		return nil
	}
	ps := make([]corpus.Puzzle, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ps = append(ps, corpus.Puzzle{
			Signature: r.str(),
			Model:     r.str(),
			Data:      r.blob(),
		})
	}
	return ps
}

// appendCrashes / readCrashes encode the crash-record delta shared by both
// sync directions.
func appendCrashes(dst []byte, rs []*crash.Record) []byte {
	dst = appendUvarint(dst, uint64(len(rs)))
	for _, rec := range rs {
		dst = appendString(dst, string(rec.Kind))
		dst = appendString(dst, rec.Site)
		dst = appendBlob(dst, rec.Example)
		dst = appendUvarint(dst, uint64(rec.Count))
		dst = appendUvarint(dst, uint64(rec.FirstExec))
		dst = appendU64(dst, rec.PathSig)
	}
	return dst
}

func readCrashes(r *wireReader) []*crash.Record {
	n := r.count("crash", 13) // three lengths, two varints, a fixed u64
	if n == 0 {
		return nil
	}
	rs := make([]*crash.Record, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		rs = append(rs, &crash.Record{
			Kind:      mem.FaultKind(r.str()),
			Site:      r.str(),
			Example:   r.blob(),
			Count:     int(r.uvarint()),
			FirstExec: int(r.uvarint()),
			PathSig:   r.u64(),
		})
	}
	return rs
}

// syncFrame is one push (dialer → acceptor).
type syncFrame struct {
	execs, hangs uint64 // sender totals, absolute (idempotent under resend)
	cursor       uint64 // where the receiver should read its own journal from
	virginDelta  []byte
	puzzles      []corpus.Puzzle
	crashes      []*crash.Record
}

func (f *syncFrame) encode(dst []byte) []byte {
	dst = appendUvarint(dst, f.execs)
	dst = appendUvarint(dst, f.hangs)
	dst = appendUvarint(dst, f.cursor)
	dst = appendBlob(dst, f.virginDelta)
	dst = appendPuzzles(dst, f.puzzles)
	return appendCrashes(dst, f.crashes)
}

func decodeSync(payload []byte) (*syncFrame, error) {
	r := &wireReader{buf: payload}
	f := &syncFrame{
		execs:       r.uvarint(),
		hangs:       r.uvarint(),
		cursor:      r.uvarint(),
		virginDelta: r.blob(),
		puzzles:     readPuzzles(r),
		crashes:     readCrashes(r),
	}
	return f, r.done()
}

// syncAckFrame is the acceptor's reply to one sync.
type syncAckFrame struct {
	virginDelta []byte
	puzzles     []corpus.Puzzle
	crashes     []*crash.Record
	newCursor   uint64 // the dialer's next cursor into the acceptor's journal
	// Fleet-wide figures for dialer-side progress display: total remote
	// executions the acceptor has heard of (its own workers included when
	// it runs a fleet), distinct edges in its union map, and the number of
	// currently connected inbound peers.
	fleetExecs, fleetEdges, leaves uint64
}

func (f *syncAckFrame) encode(dst []byte) []byte {
	dst = appendBlob(dst, f.virginDelta)
	dst = appendPuzzles(dst, f.puzzles)
	dst = appendCrashes(dst, f.crashes)
	dst = appendUvarint(dst, f.newCursor)
	dst = appendUvarint(dst, f.fleetExecs)
	dst = appendUvarint(dst, f.fleetEdges)
	return appendUvarint(dst, f.leaves)
}

func decodeSyncAck(payload []byte) (*syncAckFrame, error) {
	r := &wireReader{buf: payload}
	f := &syncAckFrame{
		virginDelta: r.blob(),
		puzzles:     readPuzzles(r),
		crashes:     readCrashes(r),
		newCursor:   r.uvarint(),
		fleetExecs:  r.uvarint(),
		fleetEdges:  r.uvarint(),
		leaves:      r.uvarint(),
	}
	return f, r.done()
}
