package peachstar

import (
	"context"
	"testing"
)

// newSyncCampaign builds a campaign on the given seed stream for the
// distributed-API tests.
func newSyncCampaign(t *testing.T, stream int) *Campaign {
	t.Helper()
	tgt, err := NewTarget("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(Options{
		Target:     tgt,
		Strategy:   PeachStar,
		Seed:       5,
		SeedStream: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runSynced runs one blocking session of c to execs total executions with
// node attached, syncing every syncEvery executions, and returns the
// session result (the final sync flush's error, if any).
func runSynced(t *testing.T, c *Campaign, node *MeshNode, execs, syncEvery int) error {
	t.Helper()
	r, err := c.Start(context.Background(), RunConfig{
		Execs: execs, SyncEvery: syncEvery, Attach: []Attachment{node.Attachment()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.Wait()
}

// TestJoinMeshLoopback is the public-API smoke test for hub-less
// campaigns: two mesh nodes on loopback — the second bootstrapping from
// the first's address — fuzz real libmodbus streams and settle on one
// union edge count with no hub anywhere.
func TestJoinMeshLoopback(t *testing.T) {
	campA := newSyncCampaign(t, 0)
	nodeA, err := campA.JoinMesh(MeshOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	campB := newSyncCampaign(t, 1)
	nodeB, err := campB.JoinMesh(MeshOptions{Listen: "127.0.0.1:0", Peers: []string{nodeA.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	if err := runSynced(t, campB, nodeB, 6000, 1024); err != nil {
		t.Fatal(err)
	}
	if err := runSynced(t, campA, nodeA, 6000, 1024); err != nil {
		t.Fatal(err)
	}
	// Settlement: one more window each so the last finisher's material
	// reaches the other node.
	for _, n := range []*MeshNode{nodeB, nodeA} {
		if err := n.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb := campA.Stats(), campB.Stats()
	if sa.Edges == 0 || sa.Edges != sb.Edges {
		t.Fatalf("mesh did not settle: node A %d edges, node B %d", sa.Edges, sb.Edges)
	}
	if nodeA.RemoteExecs() < 6000 {
		t.Fatalf("node A heard of %d remote execs, want >= 6000", nodeA.RemoteExecs())
	}
	_, inbound, _ := nodeA.PeerStats()
	uplinks, _, known := nodeB.PeerStats()
	if inbound < 1 || uplinks < 1 || known < 1 {
		t.Fatalf("mesh links missing: A inbound %d, B uplinks %d known %d", inbound, uplinks, known)
	}
}

// TestMeshHubRoleServesFuzzedEdges is the regression test for a hub that
// fuzzes: a serial campaign in the hub role (a listening node with no
// peers) runs a budgeted session, then a leaf-role node (one static peer,
// no listener) syncs once and must see everything the hub found. A serial
// fleet never syncs its lone worker into the shared state on its own, so
// the session's sync rounds must flush it even with no peer to dial.
func TestMeshHubRoleServesFuzzedEdges(t *testing.T) {
	hubCampaign := newSyncCampaign(t, 0)
	hub, err := hubCampaign.JoinMesh(MeshOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := runSynced(t, hubCampaign, hub, 20000, 0); err != nil {
		t.Fatal(err)
	}
	want := hubCampaign.Stats().Edges
	if want == 0 {
		t.Fatal("hub campaign found no coverage")
	}

	leafCampaign := newSyncCampaign(t, 1)
	leaf, err := leafCampaign.JoinMesh(MeshOptions{Peers: []string{hub.Addr()}, StaticOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if leaf.Addr() != "" {
		t.Fatalf("dial-only node listens on %q", leaf.Addr())
	}
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := leafCampaign.Stats().Edges; got < want {
		t.Fatalf("leaf sees %d edges after one sync, hub campaign has %d", got, want)
	}
	if _, inbound, _ := hub.PeerStats(); inbound != 1 {
		t.Fatalf("hub inbound sessions = %d, want 1", inbound)
	}
}

// TestDialOnlyNodeRejectsDeadAddress: a dial-only node pointed at a dead
// port fails on its first sync, not at JoinMesh time, and the campaign
// keeps its progress.
func TestDialOnlyNodeRejectsDeadAddress(t *testing.T) {
	c := newSyncCampaign(t, 0)
	node, err := c.JoinMesh(MeshOptions{Peers: []string{"127.0.0.1:1"}, StaticOnly: true}) // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	runTo(t, c, 512)
	if err := node.Sync(); err == nil {
		t.Fatal("sync against a dead peer should fail")
	}
	if c.Stats().Execs < 512 {
		t.Fatal("campaign lost progress over a failed sync")
	}
}
