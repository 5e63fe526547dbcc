package peachstar

import (
	"context"
	"strings"
	"testing"
)

// TestSessionCampaignDeliversStateEvents pins the public session surface:
// Options.Sessions on a SessionTarget flips the campaign to sequence
// fuzzing, the event stream reports each protocol state the first time a
// worker reaches it, and the final stats carry the per-state coverage
// table alongside a non-zero sequence count.
func TestSessionCampaignDeliversStateEvents(t *testing.T) {
	tgt, err := NewTarget("IEC104")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tgt.(SessionTarget); !ok {
		t.Fatal("IEC104 target does not publish a session state model")
	}
	c := newTestCampaign(t, Options{Target: tgt, Strategy: PeachStar, Seed: 3, Sessions: true})
	r, err := c.Start(context.Background(), RunConfig{Execs: 10000})
	if err != nil {
		t.Fatal(err)
	}
	states := make(map[string]bool)
	for ev := range r.Events() {
		if st, ok := ev.(StateEvent); ok {
			states[st.State] = true
		}
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait = %v, want nil on a spent budget", err)
	}

	if !states["stopped"] || !states["started"] {
		t.Fatalf("StateEvents reported %v, want both IEC104 states", states)
	}
	s := c.Stats()
	if s.Sequences == 0 {
		t.Fatal("session campaign sent no sequences")
	}
	if s.StatesReached != 2 || len(s.StateCoverage) != 2 {
		t.Fatalf("stats report %d/%d states, want 2/2", s.StatesReached, len(s.StateCoverage))
	}
	for _, sc := range s.StateCoverage {
		if sc.Sent == 0 {
			t.Fatalf("state %q shows zero messages sent", sc.State)
		}
	}
}

// TestSessionOptionsValidation: Sessions without a state machine — the
// target is not a SessionTarget and Options.StateModel is nil — must fail
// at construction, not at run time.
func TestSessionOptionsValidation(t *testing.T) {
	tgt, err := NewTarget("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCampaign(Options{Target: tgt, Strategy: PeachStar, Seed: 1, Sessions: true})
	if err == nil || !strings.Contains(err.Error(), "SessionTarget") {
		t.Fatalf("NewCampaign = %v, want a SessionTarget error", err)
	}
}
