// Distributed: a star fleet — one hub node plus two leaf campaigns, all
// on loopback in a single process — the smallest complete demonstration
// of a multi-host Peach* fleet on the session API. Hub and leaves are the
// same thing, a mesh node, in two shapes: the hub listens and has no
// peers, each leaf dials the hub and listens for nothing. Each node is
// one Campaign.Start call. On real hardware each block below runs as its
// own `peachstar` process on its own machine (`-serve` for the hub,
// `-connect` for the leaves); the protocol is identical.
//
//	go run ./examples/distributed [-execs N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/peachstar"
)

func newCampaign(seedStream int) *peachstar.Campaign {
	target, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:     target,
		Strategy:   peachstar.PeachStar,
		Seed:       1,
		SeedStream: seedStream,
	})
	if err != nil {
		log.Fatal(err)
	}
	return campaign
}

func main() {
	execs := flag.Int("execs", 30000, "total execution budget across both leaves")
	flag.Parse()
	ctx := context.Background()

	// --- Hub node -------------------------------------------------------
	// The hub owns the fleet-wide campaign state: a node that listens and
	// has no peers. Here it only aggregates (a RelayOnly session runs no
	// executions of its own), which is the `peachstar -serve :7712
	// -execs 0` configuration; giving the session an exec budget instead
	// would make it a fuzzing hub. The node handle is kept so the leaves
	// can learn its bound address and the summary can query RemoteExecs.
	hubCampaign := newCampaign(0)
	hub, err := hubCampaign.JoinMesh(peachstar.MeshOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer hub.Close()
	hubRun, err := hubCampaign.Start(ctx, peachstar.RunConfig{
		RelayOnly: true,
		Attach:    []peachstar.Attachment{hub.Attachment()},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hub: serving fleet sync on %s\n", hub.Addr())

	// --- Leaf nodes -----------------------------------------------------
	// Every leaf shares the campaign seed but fuzzes its own RNG stream
	// (SeedStream), so the fleet is one reproducible campaign with no
	// duplicated work. A leaf is a dial-only node with the hub as its one
	// static peer. Each leaf is a single session: budget, sync cadence,
	// and the node attachment in one RunConfig. On separate machines this
	// block is `peachstar -connect hub:7712 -seed 1 -seed-stream <k>`.
	type node struct {
		name     string
		campaign *peachstar.Campaign
		mesh     *peachstar.MeshNode
	}
	var leaves []*node
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		campaign := newCampaign(k)
		// The node handle outlives its session (it is attached borrowed,
		// not via WithMesh, which would close it with the session) so the
		// settlement round below can reuse this leaf's link to the hub. A
		// one-shot leaf session would just be
		// Attach: []Attachment{WithMesh(MeshOptions{Peers: ..., StaticOnly: true})}.
		leaf, err := campaign.JoinMesh(peachstar.MeshOptions{
			Peers:      []string{hub.Addr()},
			StaticOnly: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer leaf.Close()
		n := &node{name: fmt.Sprintf("leaf-%d", k), campaign: campaign, mesh: leaf}
		leaves = append(leaves, n)
		run, err := campaign.Start(ctx, peachstar.RunConfig{
			Execs:     *execs / 2,
			SyncEvery: 1024,
			Attach:    []peachstar.Attachment{leaf.Attachment()},
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(n *node, run *peachstar.Run) {
			defer wg.Done()
			if err := run.Wait(); err != nil {
				log.Printf("%s: %v", n.name, err)
			}
		}(n, run)
	}
	wg.Wait()

	// Settlement round: one more sync each, so the last leaf to finish
	// has its final discoveries propagated to everyone.
	for _, n := range leaves {
		if err := n.mesh.Sync(); err != nil {
			log.Fatal(err)
		}
	}

	// Stop the hub session gracefully; its state survives in the campaign.
	hubRun.Stop()
	if err := hubRun.Wait(); err != nil {
		log.Fatal(err)
	}

	// Every node now agrees on the campaign union.
	for _, n := range leaves {
		s := n.campaign.Stats()
		fmt.Printf("%s: %d execs locally, %d edges, %d unique crashes, corpus %d puzzles\n",
			n.name, s.Execs, s.Edges, s.UniqueCrashes, s.CorpusPuzzles)
	}
	fleetEdges := hubCampaign.Stats().Edges
	fmt.Printf("hub: %d remote execs aggregated, %d edges in the fleet union\n", hub.RemoteExecs(), fleetEdges)

	a, b := leaves[0].campaign.Stats(), leaves[1].campaign.Stats()
	if a.Edges == b.Edges && a.Edges == fleetEdges {
		fmt.Printf("fleet converged: all nodes report %d edges\n", fleetEdges)
	} else {
		fmt.Printf("fleet NOT converged: %d vs %d vs hub %d edges\n", a.Edges, b.Edges, fleetEdges)
	}
}
