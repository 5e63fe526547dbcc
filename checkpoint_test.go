package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetnet"
	"repro/internal/targets"
	"repro/peachstar"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// newCheckpointCampaign builds one campaign for the durable-checkpoint
// suite; every restore test builds the restoring campaign with the same
// options, which is the warm-restart contract.
func newCheckpointCampaign(tb testing.TB, target string, workers int, adaptive, sessions bool) *peachstar.Campaign {
	tb.Helper()
	tgt, err := peachstar.NewTarget(target)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := peachstar.NewCampaign(peachstar.Options{
		Target:   tgt,
		Strategy: peachstar.PeachStar,
		Seed:     1,
		Workers:  workers,
		Adaptive: adaptive,
		Sessions: sessions,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// runTo runs one blocking session of c to execs total executions.
func runTo(tb testing.TB, c *peachstar.Campaign, execs int) {
	tb.Helper()
	r, err := c.Start(context.Background(), peachstar.RunConfig{Execs: execs})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		tb.Fatal(err)
	}
}

// TestCheckpointRoundTripGolden pins the canonical-encoding half of the
// checkpoint contract, across every stateful layer at once: checkpoint →
// restore into a fresh campaign → checkpoint again must reproduce the
// identical byte string (coverage words, corpus journal, crash bank,
// scheduler tables, session state, RNG positions — any layer that loses
// or reorders state breaks the byte equality), and the restored campaign
// must report identical Stats.
func TestCheckpointRoundTripGolden(t *testing.T) {
	cases := []struct {
		name               string
		target             string
		workers            int
		adaptive, sessions bool
	}{
		{"serial", "libmodbus", 1, false, false},
		{"adaptive", "libmodbus", 1, true, false},
		{"sessions-adaptive", "IEC104", 1, true, true},
		{"fleet", "libmodbus", 4, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")

			orig := newCheckpointCampaign(t, tc.target, tc.workers, tc.adaptive, tc.sessions)
			runTo(t, orig, 20000)
			if err := orig.Checkpoint(first); err != nil {
				t.Fatal(err)
			}

			restored := newCheckpointCampaign(t, tc.target, tc.workers, tc.adaptive, tc.sessions)
			if err := restored.RestoreCheckpoint(first); err != nil {
				t.Fatal(err)
			}
			if err := restored.Checkpoint(second); err != nil {
				t.Fatal(err)
			}

			a, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("restore is not state-equal: re-checkpoint differs (%d vs %d bytes)", len(a), len(b))
			}
			if got, want := restored.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored stats diverged:\n got %+v\nwant %+v", got, want)
			}
			if got, want := len(restored.Crashes()), len(orig.Crashes()); got != want {
				t.Fatalf("restored %d crash records, want %d", got, want)
			}
		})
	}
}

// TestCheckpointWarmRestartContinuesExactly pins the strongest warm-restart
// property a serial campaign can have: kill at the halfway checkpoint,
// restore into a fresh campaign, spend the remaining budget — and land
// bit-for-bit where the uninterrupted campaign lands. This subsumes the
// acceptance bound (resumed final coverage >= an equal-remaining-budget
// cold start): the restored RNG stream, scheduler tables and retained
// seeds continue exactly, so nothing beyond the checkpoint interval is
// lost.
func TestCheckpointWarmRestartContinuesExactly(t *testing.T) {
	for _, tc := range []struct {
		name               string
		target             string
		adaptive, sessions bool
	}{
		{"plain", "libmodbus", false, false},
		{"adaptive", "libmodbus", true, false},
		{"sessions", "IEC104", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mid.ckpt")

			straight := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runTo(t, straight, 30000)

			interrupted := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runTo(t, interrupted, 15000)
			if err := interrupted.Checkpoint(path); err != nil {
				t.Fatal(err)
			}

			resumed := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			if err := resumed.RestoreCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			runTo(t, resumed, 30000) // absolute budget: spends only the remainder

			if got, want := resumed.Stats(), straight.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("warm restart diverged from the uninterrupted campaign:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCheckpointAllTargetsWarmRestart sweeps every registered in-process
// target through the interrupted-versus-straight comparison. Exactness here
// requires the target layer of the seam (sandbox.StateCheckpointer): each
// target's long-lived state — register banks, simulated heap wear,
// activation flags, file-transfer machines — must resume with the campaign,
// or state-dependent faults fire differently after the restore.
func TestCheckpointAllTargetsWarmRestart(t *testing.T) {
	for _, name := range targets.Names() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mid.ckpt")

			straight := newCheckpointCampaign(t, name, 1, true, false)
			runTo(t, straight, 12000)

			interrupted := newCheckpointCampaign(t, name, 1, true, false)
			runTo(t, interrupted, 6000)
			if err := interrupted.Checkpoint(path); err != nil {
				t.Fatal(err)
			}

			resumed := newCheckpointCampaign(t, name, 1, true, false)
			if err := resumed.RestoreCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			runTo(t, resumed, 12000)

			if got, want := resumed.Stats(), straight.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("warm restart diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCheckpointDigestMismatch: a checkpoint is sealed under the
// campaign's model digest, and restoring it into a campaign with
// different data models is refused — before any state is touched.
func TestCheckpointDigestMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "modbus.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	runTo(t, donor, 5000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	other := newCheckpointCampaign(t, "IEC104", 1, false, false)
	if err := other.RestoreCheckpoint(path); err == nil {
		t.Fatal("restoring a libmodbus checkpoint into an IEC104 campaign succeeded")
	}
}

// TestCheckpointWorkerMismatch: the checkpoint carries the fleet's worker
// count; a campaign built with different parallelism cannot restore it.
func TestCheckpointWorkerMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 2, false, false)
	runTo(t, donor, 4000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	serial := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	if err := serial.RestoreCheckpoint(path); err == nil {
		t.Fatal("restoring a 2-worker checkpoint into a serial campaign succeeded")
	}
}

// TestCheckpointAdaptiveMismatch: the adaptive mode is fixed when a
// campaign is built, so a checkpoint restores only into a campaign of the
// same mode — an adaptive checkpoint into a static campaign fails, and so
// does the reverse.
func TestCheckpointAdaptiveMismatch(t *testing.T) {
	for _, from := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "mode.ckpt")
		donor := newCheckpointCampaign(t, "libmodbus", 1, from, false)
		runTo(t, donor, 4000)
		if err := donor.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		other := newCheckpointCampaign(t, "libmodbus", 1, !from, false)
		if err := other.RestoreCheckpoint(path); err == nil {
			t.Fatalf("restoring an adaptive=%v checkpoint into an adaptive=%v campaign succeeded", from, !from)
		}
	}
}

// TestCheckpointCorruptRejected: header damage (magic, version, digest)
// and truncation anywhere must fail the restore with an error, never a
// panic or a silent partial state.
func TestCheckpointCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "good.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 1, true, false)
	runTo(t, donor, 5000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.ckpt")
	tryRestore := func(data []byte) error {
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newCheckpointCampaign(t, "libmodbus", 1, true, false)
		return c.RestoreCheckpoint(bad)
	}

	for _, i := range []int{0, 4, 5, 12} { // magic, version, digest
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		if tryRestore(mut) == nil {
			t.Errorf("restore accepted a checkpoint with byte %d flipped", i)
		}
	}
	for _, n := range []int{0, 3, 5, len(good) / 2, len(good) - 1} {
		if tryRestore(good[:n]) == nil {
			t.Errorf("restore accepted a checkpoint truncated to %d bytes", n)
		}
	}
}

// TestRunConfigCheckpointPath drives the in-session half: a session with
// CheckpointPath set writes periodic checkpoints at merge-window
// boundaries plus a final one, reports them as CheckpointEvents, and the
// file warm-restarts a fresh campaign.
func TestRunConfigCheckpointPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.ckpt")
	c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	run, err := c.Start(context.Background(), peachstar.RunConfig{
		Execs:           6000,
		CheckpointPath:  path,
		CheckpointEvery: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for ev := range run.Events() {
		if ck, ok := ev.(peachstar.CheckpointEvent); ok {
			if ck.Err != nil {
				t.Errorf("checkpoint at %d execs failed: %v", ck.Execs, ck.Err)
			}
			if ck.Path != path || ck.Bytes == 0 {
				t.Errorf("malformed checkpoint event: %+v", ck)
			}
			events++
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	// 6000 execs at a 2048 cadence: checkpoints at 2048, 4096, and the
	// final one after the last window.
	if events < 3 {
		t.Fatalf("saw %d checkpoint events, want >= 3", events)
	}

	restored := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint lands after the final window, so nothing is
	// lost: the restored campaign has the session's full exec count.
	if got, want := restored.Stats(), c.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final checkpoint does not capture the session's end state:\n got %+v\nwant %+v", got, want)
	}
}

// fuzzFleet is the shared restore target of FuzzCheckpointDecode: one
// small fleet per fuzz process, restored over and over from hostile
// bytes. Reuse across inputs is deliberate — a failed restore leaves
// partial state, and the next input must still decode without panicking.
var fuzzFleet struct {
	once   sync.Once
	fleet  *core.Fleet
	digest uint64
	seed   []byte
}

// FuzzCheckpointDecode pins the no-panic property of the whole restore
// path — envelope parsing, every layer's Restore, the cross-layer
// validation — over truncated, corrupt, bit-flipped and non-minimal-varint
// inputs. Errors are the expected outcome; panics and hangs are the bugs.
func FuzzCheckpointDecode(f *testing.F) {
	setup := func(tb testing.TB) {
		fuzzFleet.once.Do(func() {
			tgt, err := targets.New("libmodbus")
			if err != nil {
				tb.Fatal(err)
			}
			fleet, err := core.NewFleet(core.Config{
				Models:   tgt.Models(),
				Target:   tgt,
				Strategy: core.StrategyPeachStar,
				Seed:     1,
				Adaptive: true,
			}, core.ParallelConfig{Workers: 1})
			if err != nil {
				tb.Fatal(err)
			}
			fleet.Drive(nil, core.Budget{Execs: 3000}, nil)
			fuzzFleet.fleet = fleet
			fuzzFleet.digest = fleetnet.ModelDigest("libmodbus", tgt.Models())
			fuzzFleet.seed = fleet.Checkpoint(fuzzFleet.digest)
		})
	}
	setup(f)

	good := fuzzFleet.seed
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("PSCK"))
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	// Non-minimal varint: 0x80 0x00 spliced after the header.
	nonMin := append([]byte(nil), good[:13]...)
	nonMin = append(nonMin, 0x80, 0x00)
	nonMin = append(nonMin, good[13:]...)
	f.Add(nonMin)
	for _, i := range []int{0, 4, 5, 13, len(good) / 2, len(good) - 2} {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x81
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		setup(t)
		// Outcome is unspecified (garbage usually errors, the seed input
		// succeeds); what the fuzz pins is no panic, no unbounded
		// allocation, no hang.
		_ = fuzzFleet.fleet.RestoreCheckpoint(data, fuzzFleet.digest)
	})
}
