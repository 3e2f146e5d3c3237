package platform

import (
	"fmt"

	"bionicdb/internal/sim"
)

// Topology is how the sockets of a multi-socket platform are wired. It
// determines the hop count between any socket pair, and with it the
// latency and energy of every cross-socket message.
type Topology int

const (
	// TopoRing is a bidirectional ring: messages take the shorter way
	// around, so the worst pair of an n-socket machine is n/2 hops. This
	// is the default — large 2012-era multi-socket machines (and the
	// QPI glueless 8-socket designs) are rings or twisted rings.
	TopoRing Topology = iota
	// TopoFull is a full crossbar: every socket pair is one hop. Real up
	// to ~4 sockets, where every socket has a direct link to every other.
	TopoFull
	// TopoMesh is a 2D mesh on a near-square grid: hop count is the
	// Manhattan distance between the sockets' grid positions.
	TopoMesh
)

// String names the topology for tables and config dumps.
func (t Topology) String() string {
	switch t {
	case TopoRing:
		return "ring"
	case TopoFull:
		return "full"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// Hops returns the number of interconnect hops a message from socket a to
// socket b crosses on an n-socket machine (0 when a == b).
func (t Topology) Hops(a, b, n int) int {
	if a == b {
		return 0
	}
	switch t {
	case TopoFull:
		return 1
	case TopoMesh:
		w := meshWidth(n)
		dx := a%w - b%w
		if dx < 0 {
			dx = -dx
		}
		dy := a/w - b/w
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	default: // TopoRing
		d := a - b
		if d < 0 {
			d = -d
		}
		if rest := n - d; rest < d {
			d = rest
		}
		return d
	}
}

// meshWidth returns the row width of the near-square grid n sockets are
// laid out on (the largest w with w*w <= n).
func meshWidth(n int) int {
	w := 1
	for (w+1)*(w+1) <= n {
		w++
	}
	return w
}

// Interconnect is the modeled socket-to-socket fabric: one egress port per
// socket (a bandwidth channel) plus a pipelined per-hop latency. Senders
// serialize on their own socket's port and then experience hop latency
// without holding it, so concurrent senders from different sockets overlap
// fully and senders on one socket share its egress bandwidth — the same
// queueing model as every other Figure 2 device. Energy is charged per
// byte per hop.
type Interconnect struct {
	Topo  Topology
	plat  *Platform
	ports []*Device

	hopBytes int64 // sum over messages of bytes * hops, for energy
	hopLat   sim.Duration
}

// newInterconnect wires n socket ports. Only built for n > 1; one-socket
// platforms have no interconnect (Platform.IC is nil).
func newInterconnect(env *sim.Env, cfg *Config, n int) *Interconnect {
	ic := &Interconnect{Topo: cfg.ICTopology, hopLat: cfg.ICHopLat}
	for i := 0; i < n; i++ {
		ic.ports = append(ic.ports, NewDevice(env, fmt.Sprintf("ic-port%d", i), cfg.ICLinkGBps, 0, 1))
	}
	return ic
}

// AddTransfer appends to a script the caller is building the sending of a
// message of the given size from socket `from` to socket `to`:
// serialization on the sender's egress port, then one pipelined hop latency
// per topology hop. It appends nothing for a same-socket send, which is
// free.
func (ic *Interconnect) AddTransfer(sc *sim.Script, from, to, bytes int) {
	hops := ic.Topo.Hops(from, to, len(ic.ports))
	if hops == 0 {
		return
	}
	sc.Add(&ic.hopBytes, int64(bytes)*int64(hops))
	ic.ports[from].AddTransfer(sc, bytes) // ports carry zero pipelined latency
	sc.Wait(sim.Duration(hops) * ic.hopLat)
}

// HopBytes returns cumulative bytes x hops moved (the energy integrand).
func (ic *Interconnect) HopBytes() int64 { return ic.hopBytes }
