package platform

import (
	"testing"

	"bionicdb/internal/sim"
)

func TestTopologyHops(t *testing.T) {
	cases := []struct {
		topo    Topology
		a, b, n int
		want    int
	}{
		{TopoFull, 0, 0, 8, 0},
		{TopoFull, 0, 7, 8, 1},
		{TopoFull, 3, 5, 16, 1},
		{TopoRing, 0, 1, 8, 1},
		{TopoRing, 0, 4, 8, 4},   // antipode
		{TopoRing, 0, 7, 8, 1},   // shorter way around
		{TopoRing, 1, 15, 16, 2}, // wraps
		{TopoMesh, 0, 5, 16, 2},  // (0,0) -> (1,1) on a 4-wide grid
		{TopoMesh, 0, 15, 16, 6}, // corner to corner
		{TopoMesh, 0, 1, 2, 1},
	}
	for _, c := range cases {
		if got := c.topo.Hops(c.a, c.b, c.n); got != c.want {
			t.Errorf("%v.Hops(%d,%d,n=%d) = %d, want %d", c.topo, c.a, c.b, c.n, got, c.want)
		}
		// Hops must be symmetric: messages and replies cost the same.
		if got, back := c.topo.Hops(c.a, c.b, c.n), c.topo.Hops(c.b, c.a, c.n); got != back {
			t.Errorf("%v hops asymmetric: %d->%d=%d but %d->%d=%d", c.topo, c.a, c.b, got, c.b, c.a, back)
		}
	}
	if d := TopoRing.Diameter(16); d != 8 {
		t.Errorf("ring-16 diameter = %d, want 8", d)
	}
	if d := TopoFull.Diameter(16); d != 1 {
		t.Errorf("full-16 diameter = %d, want 1", d)
	}
}

func TestSocketLayout(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cfg := HC2Scaled(4)
	pl := New(env, cfg)
	if pl.NumSockets() != 4 || len(pl.Sockets) != 4 {
		t.Fatalf("expected 4 sockets, got %d", pl.NumSockets())
	}
	if len(pl.Cores) != 32 {
		t.Fatalf("expected 32 cores total, got %d", len(pl.Cores))
	}
	for i, c := range pl.Cores {
		if want := i / cfg.Cores; c.SocketID() != want {
			t.Errorf("core %d on socket %d, want %d", i, c.SocketID(), want)
		}
	}
	if pl.IC == nil {
		t.Fatal("4-socket platform has no interconnect")
	}

	// One socket: the paper's machine, no interconnect.
	single := New(env, HC2())
	if single.IC != nil {
		t.Error("single-socket platform built an interconnect")
	}
	if single.NumSockets() != 1 || len(single.Cores) != 8 {
		t.Errorf("single socket layout wrong: %d sockets, %d cores", single.NumSockets(), len(single.Cores))
	}
}

// TestPerSocketLLC proves each socket has a private LLC: the same line
// misses once per socket, not once per machine.
func TestPerSocketLLC(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pl := New(env, HC2Scaled(2))
	addr := pl.AllocHost(64)
	c0, c1 := pl.Cores[0], pl.Cores[8] // one per socket

	c0.access(addr, 8)
	stats := pl.CacheStats()
	if stats.L3Misses != 1 {
		t.Fatalf("first access: %d LLC misses, want 1", stats.L3Misses)
	}
	c1.access(addr, 8)
	stats = pl.CacheStats()
	if stats.L3Misses != 2 {
		t.Errorf("remote-socket access hit the other socket's LLC: %d misses, want 2", stats.L3Misses)
	}
}

// TestInterconnectTiming pins the fabric cost model: serialization on the
// sender's egress port plus one hop latency per topology hop.
func TestInterconnectTiming(t *testing.T) {
	cfg := HC2Scaled(8) // ring of 8
	env := sim.NewEnv()
	defer env.Close()
	pl := New(env, cfg)

	ser := func(bytes int) sim.Duration {
		return sim.Duration(float64(bytes) / cfg.ICLinkGBps * float64(sim.Nanosecond))
	}
	var oneHop, threeHop sim.Duration
	env.Spawn("sender", func(p *sim.Proc) {
		oneHop = pl.IC.Transfer(p, 0, 1, 64)
		threeHop = pl.IC.Transfer(p, 0, 3, 64)
		if d := pl.IC.Transfer(p, 2, 2, 64); d != 0 {
			t.Errorf("same-socket transfer cost %v, want free", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wantOne := ser(64) + cfg.ICHopLat
	wantThree := ser(64) + 3*cfg.ICHopLat
	if oneHop != wantOne {
		t.Errorf("1-hop 64B transfer took %v, want %v", oneHop, wantOne)
	}
	if threeHop != wantThree {
		t.Errorf("3-hop 64B transfer took %v, want %v", threeHop, wantThree)
	}
	if got := pl.IC.Messages(); got != 2 {
		t.Errorf("message count %d, want 2 (same-socket sends are not messages)", got)
	}
}

// TestInterconnectQueueing: two concurrent senders on one socket serialize
// on its egress port; senders on different sockets overlap fully.
func TestInterconnectQueueing(t *testing.T) {
	cfg := HC2Scaled(4)
	env := sim.NewEnv()
	defer env.Close()
	pl := New(env, cfg)

	ser := sim.Duration(float64(4096) / cfg.ICLinkGBps * float64(sim.Nanosecond))
	var sameEnd, crossEnd sim.Time
	env.Spawn("a", func(p *sim.Proc) { pl.IC.Transfer(p, 0, 1, 4096); sameEnd = p.Now() })
	env.Spawn("b", func(p *sim.Proc) { pl.IC.Transfer(p, 0, 1, 4096); sameEnd = p.Now() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(2*ser + cfg.ICHopLat); sameEnd != want {
		t.Errorf("same-port senders finished at %v, want serialized %v", sameEnd, want)
	}

	env2 := sim.NewEnv()
	defer env2.Close()
	pl2 := New(env2, cfg)
	env2.Spawn("a", func(p *sim.Proc) { pl2.IC.Transfer(p, 0, 1, 4096); crossEnd = p.Now() })
	env2.Spawn("b", func(p *sim.Proc) { pl2.IC.Transfer(p, 2, 1, 4096); crossEnd = p.Now() })
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(ser + cfg.ICHopLat); crossEnd != want {
		t.Errorf("distinct-port senders finished at %v, want overlapped %v", crossEnd, want)
	}
}

// TestInterconnectEnergy checks the bytes x hops energy integrand and that
// the idle-power term scales with the total core count.
func TestInterconnectEnergy(t *testing.T) {
	cfg := HC2Scaled(8)
	env := sim.NewEnv()
	defer env.Close()
	pl := New(env, cfg)

	before := pl.Snapshot()
	env.Spawn("sender", func(p *sim.Proc) {
		pl.IC.Transfer(p, 0, 1, 256) // 1 hop
		pl.IC.Transfer(p, 0, 4, 128) // 4 hops on a ring of 8
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	after := pl.Snapshot()

	wantHopBytes := int64(256*1 + 128*4)
	if got := after.ICHopBytes - before.ICHopBytes; got != wantHopBytes {
		t.Errorf("hop-bytes = %d, want %d", got, wantHopBytes)
	}
	rep := pl.Energy(before, after)
	wantJ := float64(wantHopBytes) * cfg.ICPJPerByte * 1e-12
	if rep.Interconnect != wantJ {
		t.Errorf("interconnect joules = %g, want %g", rep.Interconnect, wantJ)
	}
	if rep.Total() < rep.Interconnect {
		t.Error("total energy does not include the interconnect domain")
	}
	// Idle power covers all 64 cores, not one socket's 8.
	secs := rep.Window.Seconds()
	if want := cfg.CoreIdleW * 64 * secs; rep.CPUIdle != want {
		t.Errorf("CPU idle joules = %g, want %g (64 cores)", rep.CPUIdle, want)
	}
}

// Diameter returns the worst-case hop count on an n-socket machine.
func (t Topology) Diameter(n int) int {
	max := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if h := t.Hops(a, b, n); h > max {
				max = h
			}
		}
	}
	return max
}
