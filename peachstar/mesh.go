package peachstar

// This file is the public face of distributed campaigns
// (internal/fleetnet's Mesh), the one sync topology: a node may run the
// sync accept loop, keep uplinks to its peers, or both, so the fleet
// survives the loss of any single node and sync bandwidth scales with
// links instead of flowing through one box. A hub and a leaf are just
// two MeshOptions shapes. See ARCHITECTURE.md "Mesh topology" and the
// README "Distributed campaigns" section.

import (
	"repro/internal/fleetnet"
)

// MeshOptions configures a campaign's mesh membership. Two shapes cover
// the classic star: a hub is {Listen: addr} with no peers, and a leaf of
// it is {Peers: []string{addr}, StaticOnly: true} with no Listen.
type MeshOptions struct {
	// Listen is the accept-loop address (host:port; ":0" picks a free
	// port — see MeshNode.Addr). Empty means the node accepts nothing
	// and only dials its peers.
	Listen string
	// Peers are the bootstrap peer addresses. One live address is enough
	// to join an existing mesh: the handshake peer exchange supplies the
	// rest. Empty for the first node of a new mesh.
	Peers []string
	// Advertise is the address other nodes should dial to reach this
	// node. Defaults to the bound listener address, which is right when
	// Listen names a routable interface; override it when the bind
	// address is not what peers can dial (":7712", NAT, containers).
	Advertise string
	// StaticOnly restricts uplinks to the configured Peers — learned
	// addresses are relayed onward but not dialed — for fixed topologies
	// (rings, lines) where the shape is the experiment.
	StaticOnly bool
}

// MeshNode is one campaign's membership in a mesh fleet.
type MeshNode struct {
	mesh *fleetnet.Mesh
}

// JoinMesh makes this campaign a mesh node: it starts accepting peer
// connections on opts.Listen (unless empty) and will keep uplinks to
// every known peer. Drive the campaign with Start and the node's
// Attachment (or Start sessions interleaved with Sync); remote and local
// discoveries converge through the shared merge path, one session per
// link.
//
// Give each node of a mesh a distinct Options.SeedStream so no two hosts
// fuzz the same RNG streams of the shared campaign seed.
func (c *Campaign) JoinMesh(opts MeshOptions) (*MeshNode, error) {
	mesh, err := fleetnet.NewMesh(fleetnet.MeshConfig{
		Fleet:      c.fleet,
		Target:     c.cfg.Target.(Target).Name(),
		Models:     c.cfg.Models,
		Advertise:  opts.Advertise,
		Peers:      opts.Peers,
		StaticOnly: opts.StaticOnly,
	})
	if err != nil {
		return nil, err
	}
	if opts.Listen != "" {
		if err := mesh.ListenAndServe(opts.Listen); err != nil {
			return nil, err
		}
	}
	return &MeshNode{mesh: mesh}, nil
}

// Addr returns the node's bound accept-loop address, or "" for a node
// without one.
func (m *MeshNode) Addr() string { return m.mesh.Addr() }

// Sync runs one merge window with every linked peer: push local
// discoveries, pull theirs. Safe to call between sessions; individual
// link failures reset only that link's session, and the first error is
// returned for logging.
func (m *MeshNode) Sync() error { return m.mesh.Sync() }

// PeerStats reports the node's connectivity: connected uplinks, connected
// inbound peer sessions, and how many peer addresses it knows.
func (m *MeshNode) PeerStats() (uplinks, inbound, known int) {
	return m.mesh.PeerStats()
}

// RemoteExecs sums the executions peers have reported over inbound
// sessions — this node's window into work it did not do itself.
func (m *MeshNode) RemoteExecs() int { return m.mesh.RemoteExecs() }

// Close leaves the mesh: uplinks are closed, the accept loop stops. The
// campaign and everything already merged stay intact; the surviving nodes
// keep converging over their remaining links, and a replacement node can
// bootstrap back in from any live peer.
func (m *MeshNode) Close() error { return m.mesh.Close() }

// Attachment adapts a live mesh node into a session attachment: the
// session runs the node's sync rounds but does not close it, so the
// caller keeps the handle (Addr, PeerStats) across sessions.
func (m *MeshNode) Attachment() Attachment { return m }

func (m *MeshNode) attach(*Campaign) (*MeshNode, bool, error) { return m, false, nil }
