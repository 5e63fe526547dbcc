// Command benchfleetnet measures the cost of a fleetnet sync window — the
// wire exchange a node performs with its peers every N executions — over
// TCP loopback on libmodbus, and emits the BENCH_fleetnet.json measurement
// fields as one JSON object on stdout. `make bench-fleetnet` runs it.
//
// Every node is a fleetnet.Mesh. The default run measures a star of two:
// a hub (a listening node with no peers, serving an idle fleet's state)
// and a leaf (a non-listening node with the hub as its one static peer,
// fuzzing). Three figures matter for sizing such a fleet:
//
//   - steady-window cost: wall time and bytes of a sync after `-window`
//     fresh executions (the per-window overhead a leaf actually pays);
//   - empty-window round trip: a sync with nothing new on either side
//     (the protocol floor: framing + one empty delta each way);
//   - full-resync cost: the first window of a fresh replacement leaf on
//     the same fleet, made after the first leaf is closed (shadow bitmap
//     empty, journal replayed).
//
// With -mesh it instead measures a 3-node hub-less mesh (one seed node,
// two nodes bootstrapped from its address): the per-node steady window
// cost across all of a node's links, and the mesh-wide wire bytes per
// round — the numbers that size -sync-every when sync bandwidth scales
// with links instead of flowing through one hub.
//
// Usage:
//
//	benchfleetnet [-windows 200] [-window 256] [-warmup 50000] [-seed 1] [-mesh]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fleetnet"
	"repro/internal/targets"

	_ "repro/internal/targets/modbus"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	windows := flag.Int("windows", 200, "sync windows to measure")
	window := flag.Int("window", 256, "executions per sync window")
	warmup := flag.Int("warmup", 50000, "executions before measuring (coverage near saturation)")
	seed := flag.Uint64("seed", 1, "campaign seed")
	meshMode := flag.Bool("mesh", false, "measure a 3-node hub-less mesh instead of hub/leaf")
	flag.Parse()

	if *meshMode {
		benchMesh(*windows, *window, *warmup, *seed)
		return
	}

	tgt, err := targets.New("libmodbus")
	if err != nil {
		die(err)
	}
	hub := newNode(newMeshFleet(*seed, 0), tgt, "bench-hub", nil)
	if err := hub.ListenAndServe("127.0.0.1:0"); err != nil {
		die(err)
	}
	defer hub.Close()

	fleet := newMeshFleet(*seed, 0)
	leaf := newNode(fleet, tgt, "bench-leaf", []string{hub.Addr()})
	defer leaf.Close()

	// Warm up: build coverage and corpus so measured windows carry the
	// trickle of novelty a long campaign's windows do, not cold-start floods.
	for fleet.Execs() < *warmup {
		fleet.Drive(nil, core.Budget{Execs: min(fleet.Execs()+*window, *warmup)}, nil)
		if err := leaf.Sync(); err != nil {
			die(err)
		}
	}

	// Steady windows: window execs of fuzzing, then one sync.
	tx0, rx0 := leaf.Traffic()
	var fuzzTotal, syncTotal, syncMax time.Duration
	for i := 0; i < *windows; i++ {
		start := time.Now()
		fleet.Drive(nil, core.Budget{Execs: fleet.Execs() + *window}, nil)
		fuzzTotal += time.Since(start)
		start = time.Now()
		if err := leaf.Sync(); err != nil {
			die(err)
		}
		d := time.Since(start)
		syncTotal += d
		if d > syncMax {
			syncMax = d
		}
	}
	tx1, rx1 := leaf.Traffic()

	// Empty windows: sync again with no new executions — protocol floor.
	var emptyTotal time.Duration
	const emptyRounds = 100
	for i := 0; i < emptyRounds; i++ {
		start := time.Now()
		if err := leaf.Sync(); err != nil {
			die(err)
		}
		emptyTotal += time.Since(start)
	}
	tx2, rx2 := leaf.Traffic()

	// Full resync: a replacement leaf process attaching the same campaign
	// state cold — fresh shadow bitmap and journal cursor on both sides,
	// so the entire bitmap and corpus cross the wire once, each way.
	leaf.Close()
	leaf2 := newNode(fleet, tgt, "bench-leaf-2", []string{hub.Addr()})
	defer leaf2.Close()
	start := time.Now()
	if err := leaf2.Sync(); err != nil {
		die(err)
	}
	resync := time.Since(start)
	rtx, rrx := leaf2.Traffic()

	s := fleet.Stats()
	out := map[string]any{
		"warmup_execs":            fleet.Execs(),
		"edges_at_measurement":    s.Edges,
		"corpus_puzzles":          s.CorpusPuzzles,
		"window_execs":            *window,
		"windows_measured":        *windows,
		"sync_us_avg":             float64(syncTotal.Microseconds()) / float64(*windows),
		"sync_us_max":             float64(syncMax.Microseconds()),
		"sync_tx_bytes_avg":       float64(tx1-tx0) / float64(*windows),
		"sync_rx_bytes_avg":       float64(rx1-rx0) / float64(*windows),
		"empty_sync_us_avg":       float64(emptyTotal.Microseconds()) / float64(emptyRounds),
		"empty_sync_tx_bytes_avg": float64(tx2-tx1) / float64(emptyRounds),
		"empty_sync_rx_bytes_avg": float64(rx2-rx1) / float64(emptyRounds),
		"full_resync_us":          float64(resync.Microseconds()),
		"full_resync_tx_bytes":    rtx,
		"full_resync_rx_bytes":    rrx,
		// Share of a leaf's wall clock spent syncing rather than fuzzing
		// at this window size — the number that sizes -sync-every.
		"sync_overhead_pct": 100 * float64(syncTotal) / float64(fuzzTotal+syncTotal),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		die(err)
	}
}

// newNode makes a mesh node over fleet with peers as its static peer set.
func newNode(fleet *core.Fleet, tgt targets.Target, id string, peers []string) *fleetnet.Mesh {
	m, err := fleetnet.NewMesh(fleetnet.MeshConfig{
		Fleet:      fleet,
		Target:     "libmodbus",
		Models:     tgt.Models(),
		NodeID:     id,
		Peers:      peers,
		StaticOnly: true,
	})
	if err != nil {
		die(err)
	}
	return m
}

// newMeshFleet builds one 1-worker libmodbus fleet on the given RNG stream
// of the campaign seed.
func newMeshFleet(seed uint64, stream int) *core.Fleet {
	tgt, err := targets.New("libmodbus")
	if err != nil {
		die(err)
	}
	fleet, err := core.NewFleet(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{Workers: 1, SeedStream: stream})
	if err != nil {
		die(err)
	}
	return fleet
}

// benchMesh measures the steady sync-window cost of a 3-node hub-less
// mesh: two nodes bootstrap from the seed node's address, the nodes are
// driven round-robin to saturation, then each measured round runs every
// node `window` executions and one Sync across all of its links.
func benchMesh(windows, window, warmup int, seed uint64) {
	const nodes = 3
	fleets := make([]*core.Fleet, nodes)
	meshes := make([]*fleetnet.Mesh, nodes)
	tgt, err := targets.New("libmodbus")
	if err != nil {
		die(err)
	}
	var seedAddr string
	for i := 0; i < nodes; i++ {
		fleets[i] = newMeshFleet(seed, i)
		cfg := fleetnet.MeshConfig{
			Fleet:  fleets[i],
			Target: "libmodbus",
			Models: tgt.Models(),
			NodeID: fmt.Sprintf("bench-%d", i),
		}
		if i > 0 {
			cfg.Peers = []string{seedAddr}
		}
		m, err := fleetnet.NewMesh(cfg)
		if err != nil {
			die(err)
		}
		if err := m.ListenAndServe("127.0.0.1:0"); err != nil {
			die(err)
		}
		defer m.Close()
		if i == 0 {
			seedAddr = m.Addr()
		}
		meshes[i] = m
	}

	// Warm up to saturation, interleaving the nodes so the mesh reaches
	// the same steady trickle a long concurrent campaign sees.
	perNode := warmup / nodes
	for done := 0; done < perNode; done += window {
		for i, m := range meshes {
			fleets[i].Drive(nil, core.Budget{Execs: fleets[i].Execs() + window}, nil)
			if err := m.Sync(); err != nil {
				die(err)
			}
		}
	}

	// Measured rounds: per node, one window of fuzzing and one Sync over
	// all of its links.
	type tr struct{ tx, rx int }
	before := make([]tr, nodes)
	for i, m := range meshes {
		before[i].tx, before[i].rx = m.Traffic()
	}
	var fuzzTotal, syncTotal, syncMax time.Duration
	for w := 0; w < windows; w++ {
		for i, m := range meshes {
			start := time.Now()
			fleets[i].Drive(nil, core.Budget{Execs: fleets[i].Execs() + window}, nil)
			fuzzTotal += time.Since(start)
			start = time.Now()
			if err := m.Sync(); err != nil {
				die(err)
			}
			d := time.Since(start)
			syncTotal += d
			if d > syncMax {
				syncMax = d
			}
		}
	}
	var tx, rx, uplinks int
	for i, m := range meshes {
		t, r := m.Traffic()
		tx += t - before[i].tx
		rx += r - before[i].rx
		u, _, _ := m.PeerStats()
		uplinks += u
	}

	nodeWindows := float64(windows * nodes)
	edges := 0
	for _, f := range fleets {
		if e := f.Stats().Edges; e > edges {
			edges = e
		}
	}
	out := map[string]any{
		"mesh_nodes":           nodes,
		"mesh_links":           uplinks,
		"warmup_execs":         fleets[0].Execs() + fleets[1].Execs() + fleets[2].Execs() - nodes*windows*window,
		"edges_at_measurement": edges,
		"window_execs":         window,
		"windows_measured":     windows,
		// Per node-window: one node's full sync across ALL of its links.
		"mesh_sync_us_avg": float64(syncTotal.Microseconds()) / nodeWindows,
		"mesh_sync_us_max": float64(syncMax.Microseconds()),
		// Mesh-wide wire bytes per round (uplink tx+rx summed over nodes;
		// inbound legs are the same bytes seen from the dialer side).
		"mesh_round_tx_bytes_avg": float64(tx) / float64(windows),
		"mesh_round_rx_bytes_avg": float64(rx) / float64(windows),
		"sync_overhead_pct":       100 * float64(syncTotal) / float64(fuzzTotal+syncTotal),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		die(err)
	}
}
