package fleetnet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crash"
	"repro/internal/mem"
)

// blowUpPayloads are sync payloads that claim huge element counts in a
// handful of bytes. Presizing from the claim once cost 896 MB (puzzles)
// and 64 MB (crashes) before the decoder noticed the bytes were missing.
var blowUpPayloads = [][]byte{
	// execs, hangs, cursor, empty virgin delta, then maxFrame/4 puzzles
	appendUvarint([]byte{0, 0, 0, 0}, maxFrame/4),
	// ... zero puzzles, then maxFrame/8 crash records
	appendUvarint([]byte{0, 0, 0, 0, 0}, maxFrame/8),
}

// hugeFrame is a frame header claiming maxFrame bytes in front of four.
var hugeFrame = append(binary.BigEndian.AppendUint32(nil, maxFrame), frameSync, 1, 2, 3)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSyncDecodeBoundsClaimedCounts: a short sync payload claiming more
// puzzles or crash records than its bytes can hold is refused before any
// slice is sized from the claim.
func TestSyncDecodeBoundsClaimedCounts(t *testing.T) {
	for i, payload := range blowUpPayloads {
		if want := []int{8, 9}[i]; len(payload) != want {
			t.Fatalf("payload %d is %d bytes, want %d", i, len(payload), want)
		}
		var err error
		grew := allocated(func() { _, err = decodeSync(payload) })
		if err == nil {
			t.Fatalf("payload %x decoded without error", payload)
		}
		if grew >= 1<<20 {
			t.Fatalf("payload %x allocated %d bytes before failing (%v)", payload, grew, err)
		}
	}
}

// TestReadFrameGrowsWithArrivedBytes: a frame header claiming maxFrame in
// front of a few bytes fails without allocating the claimed length.
func TestReadFrameGrowsWithArrivedBytes(t *testing.T) {
	var err error
	grew := allocated(func() { _, _, err = readFrame(bytes.NewReader(hugeFrame)) })
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if grew >= 1<<20 {
		t.Fatalf("truncated frame allocated %d bytes before failing (%v)", grew, err)
	}
}

// seedFrames returns one real encoded frame of every type.
func seedFrames() [][]byte {
	puzzles := []corpus.Puzzle{{Signature: "sig", Model: "m", Data: []byte{1, 2, 3}}}
	crashes := []*crash.Record{{Kind: mem.SEGV, Site: "site", Example: []byte{9}, Count: 2, FirstExec: 7, PathSig: 42}}
	frames := []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, (&helloFrame{version: ProtocolVersion, nodeID: "n", target: "libmodbus", digest: 5,
			resumeCursor: 3, advertise: "127.0.0.1:1", peers: []string{"127.0.0.1:2"}}).encode(nil)},
		{frameHelloAck, (&helloAckFrame{version: ProtocolVersion, digest: 5, nodeID: "hub", peers: []string{"a:1"}}).encode(nil)},
		{frameSync, (&syncFrame{execs: 100, hangs: 1, cursor: 4, virginDelta: []byte{1, 0, 0xff, 0, 0, 0, 0, 0, 0, 0},
			puzzles: puzzles, crashes: crashes}).encode(nil)},
		{frameSyncAck, (&syncAckFrame{virginDelta: []byte{0}, puzzles: puzzles, crashes: crashes,
			newCursor: 9, fleetExecs: 200, fleetEdges: 30, leaves: 2}).encode(nil)},
		{frameError, appendString(nil, "bye")},
		{frameSync, blowUpPayloads[0]},
		{frameSync, blowUpPayloads[1]},
	}
	var out [][]byte
	for _, f := range frames {
		var b bytes.Buffer
		writeFrame(&b, f.typ, f.payload)
		out = append(out, b.Bytes())
	}
	return out
}

// encoder is a decoded frame that can re-encode itself.
type encoder interface{ encode([]byte) []byte }

// checkDecode runs one decoder on payload; anything it accepts must
// re-encode to bytes that decode to the same frame.
func checkDecode[F encoder](t *testing.T, name string, decode func([]byte) (F, error), payload []byte) {
	f, err := decode(payload)
	if err != nil {
		return
	}
	again, err := decode(f.encode(nil))
	if err != nil || !reflect.DeepEqual(f, again) {
		t.Fatalf("%s: accepted %x but its re-encoding decodes to %+v, %v", name, payload, again, err)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to readFrame and to every frame
// decoder, as a network peer can. Bad input must come back as an error —
// never a panic — and no decoder may allocate more than the bytes it was
// given can justify: the maxFrame cap bounds a frame, the remaining-bytes
// caps bound every element count inside one.
func FuzzFrameDecode(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
		f.Add(frame[5:]) // the bare payload
	}
	f.Add(hugeFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll := func(payload []byte) {
			checkDecode(t, "hello", decodeHello, payload)
			checkDecode(t, "helloAck", decodeHelloAck, payload)
			checkDecode(t, "sync", decodeSync, payload)
			checkDecode(t, "syncAck", decodeSyncAck, payload)
		}
		grew := allocated(func() {
			if _, payload, err := readFrame(bytes.NewReader(data)); err == nil {
				decodeAll(payload)
			}
			decodeAll(data)
		})
		// A decoded puzzle is a 56-byte struct per 3 input bytes; the
		// re-encode check decodes everything twice. 256 bytes per input
		// byte covers that with room to spare, and 1 MiB covers the
		// first frame buffer and runtime noise.
		if limit := uint64(256*len(data) + 1<<20); grew > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
	})
}
