// Package fleetnet extends the fleet's batched merge protocol across
// hosts: nodes exchange deltas over TCP — virgin coverage bitmaps as
// dirty-word deltas, corpus puzzles as journal tails with resumable
// cursors, crash records as an idempotent dedup stream. The merge
// semantics are exactly the in-process Fleet's (every connection speaks to
// its local state through the same core.SyncPeer path worker engines use);
// this package only adds framing, transport, topology, and reconnect
// handling.
//
// One node type, Mesh, carries every topology. A node may serve inbound
// peers from an accept loop, keep uplinks to a peer set, or both, and
// every link merges through the node's own fleet state. Each link keeps
// its own peerSession (shadow bitmap, journal cursors, crash watermarks)
// — a vector of cursors per node, one per link — and the handshake
// exchanges peer addresses, so one seed address bootstraps a whole mesh.
// A star is two shapes of the same node: a hub listens and has no peers,
// a leaf dials one static peer and listens on nothing.
//
// # Wire protocol
//
// Every frame is length-prefixed: a 4-byte big-endian payload length, one
// type byte, then the payload. Integers inside payloads are unsigned
// varints unless noted; byte strings are a uvarint length followed by the
// bytes. The session is strictly request/response, dialer-driven:
//
//	dialer → acceptor   hello      magic, version, node id, target, model
//	                               digest, resume cursor into the
//	                               acceptor's journal, advertise address,
//	                               known peer addresses
//	acceptor → dialer   helloAck   negotiated version, acceptor model
//	                               digest, acceptor id, known peer
//	                               addresses
//	dialer → acceptor   sync       dialer stats, virgin delta, puzzle
//	                               delta, crash records, journal cursor
//	acceptor → dialer   syncAck    virgin delta, puzzle delta (from the
//	                               dialer's cursor), crash records, new
//	                               cursor, fleet stats
//	either side         error      human-readable reason; sender closes
//
// # Version negotiation
//
// A dialer sends the highest protocol version it speaks; the acceptor
// answers with min(its own, the dialer's). Both sides then require the
// negotiated version to be ProtocolVersion — otherwise they send an error
// frame naming the supported version and close. Version 2 added the
// peer-exchange fields to hello/helloAck; version 3 added session
// sequences to the corpus delta (as opaque puzzles — no layout change).
// This build speaks version 3 only, so a v1 or v2 peer is refused with a
// clear error rather than joining a fleet whose sequence entries it
// cannot interpret.
//
// # Determinism
//
// A networked campaign is not bit-for-bit reproducible — sync timing
// depends on the network — but it preserves the same convergence guarantee
// as the in-process fleet: all exchanged state is monotonic (bitmap union,
// never-evicting journal merges, idempotent crash absorption), so any
// interleaving, duplication, or replay of sync windows yields the same
// final merged state for the same executed work. That is also the mesh
// convergence argument: duplicate delivery over redundant links (a puzzle
// arriving via two paths) merges to the same state as single delivery, so
// any connected topology — ring, star, full mesh, or one healing after a
// partition — converges to the union of all nodes' work.
package fleetnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolVersion is the one protocol version this build speaks (see the
// package comment for the negotiation rule). v2 added the peer-exchange
// fields to hello/helloAck. v3 declares session-sequence corpus entries
// (reserved "seq\x00" signature namespace, versioned session-codec Data):
// sequences ride the generic puzzle delta with no frame-layout change, so
// the bump is a capability advertisement, not a wire change.
const ProtocolVersion = 3

// magic opens every hello frame; it rejects accidental connections from
// non-fleetnet clients before any allocation-heavy decoding.
const magic = "PSFN"

// maxFrame bounds a single frame's payload. The largest legitimate frame is
// a full-corpus replay after a reconnect; 64 MiB is far above any corpus
// this repository produces while still rejecting nonsense lengths from a
// corrupt stream.
const maxFrame = 64 << 20

// Frame types.
const (
	frameHello    = byte(1)
	frameHelloAck = byte(2)
	frameSync     = byte(3)
	frameSyncAck  = byte(4)
	frameError    = byte(5)
)

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the payload buffer readFrame starts from before the
// bytes that actually arrive justify growing it.
const frameChunk = 64 << 10

// readFrame reads one frame, returning its type and payload. The payload
// buffer grows with the bytes received rather than being presized from
// the header, so a corrupt length that claims maxFrame costs what the
// peer really sent, not 64 MiB up front.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("fleetnet: frame length %d out of range", n)
	}
	buf := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		k, err := io.ReadFull(r, buf[off:])
		if err != nil {
			return 0, nil, err
		}
		if off += k; off == n {
			return buf[0], buf[1:], nil
		}
		buf = append(buf, make([]byte, min(n-off, off))...)
	}
}

// appendUvarint appends v as an unsigned varint.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

// appendBlob appends a length-prefixed byte string.
func appendBlob(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendU64 appends a fixed-width little-endian 64-bit value.
func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

// wireReader decodes a frame payload with sticky error handling: after the
// first malformed field every subsequent read returns zero values and the
// error survives until checked by done.
type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fleetnet: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count and bounds it by the payload left: each
// element costs at least minSize encoded bytes, so a larger claim is a
// corrupt frame, refused before any slice is presized from it.
func (r *wireReader) count(what string, minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if left := len(r.buf) - r.pos; n > uint64(left/minSize) {
		r.fail("implausible %s count %d with %d bytes left", what, n, left)
		return 0
	}
	return int(n)
}

func (r *wireReader) blob() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.pos) < n {
		r.fail("blob of %d bytes overruns frame at offset %d", n, r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *wireReader) str() string { return string(r.blob()) }

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail("truncated u64 at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos : r.pos+8])
	r.pos += 8
	return v
}

// done returns the sticky decode error, or an error if the payload has
// undecoded trailing bytes.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("fleetnet: %d trailing bytes in frame", len(r.buf)-r.pos)
	}
	return nil
}

// sendError best-effort ships an error frame before the sender closes the
// connection, so the far side logs a reason instead of a bare EOF.
func sendError(w io.Writer, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	writeFrame(w, frameError, appendString(nil, msg)) //nolint:errcheck — already tearing down
}

// negotiate applies the version rule from the package comment to a peer's
// advertised version and returns the effective session version.
func negotiate(peer uint64) (uint64, error) {
	if peer < ProtocolVersion {
		return 0, fmt.Errorf("fleetnet: peer speaks protocol %d, this build needs %d", peer, ProtocolVersion)
	}
	return ProtocolVersion, nil
}
