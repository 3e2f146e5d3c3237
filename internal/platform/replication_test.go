package platform

import (
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func TestReplLinkTiming(t *testing.T) {
	env := sim.NewEnv()
	cfg := HC2Replicated(1, 1, stats.ReplAsync)
	pl := New(env, cfg)
	if pl.ReplLink == nil {
		t.Fatal("replicated config built no ReplLink")
	}
	const chunk = 125000 // 100us of serialization at 1.25 GB/s
	serial := transferTime(chunk, cfg.ReplLinkGBps)
	var single, second sim.Duration
	env.Spawn("a", func(p *sim.Proc) {
		single = pl.ReplLink.Transfer(p, chunk)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := serial + cfg.ReplLinkLat
	if single != want {
		t.Errorf("uncontended transfer took %v, want serialization %v + latency %v", single, serial, cfg.ReplLinkLat)
	}
	// Burst: two streams on the one-channel NIC serialize — the second pays
	// the first's full serialization as queueing, but latency pipelines.
	env.Spawn("b1", func(p *sim.Proc) { pl.ReplLink.Transfer(p, chunk) })
	env.Spawn("b2", func(p *sim.Proc) {
		p.Wait(1 * sim.Nanosecond) // lose the channel race deterministically
		second = pl.ReplLink.Transfer(p, chunk)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wantSecond := 2*serial + cfg.ReplLinkLat - 1*sim.Nanosecond
	if second != wantSecond {
		t.Errorf("queued transfer took %v, want %v (own serialization + predecessor's)", second, wantSecond)
	}
}

func TestReplDevicesPerReplicaPerShard(t *testing.T) {
	env := sim.NewEnv()
	cfg := HC2Replicated(2, 2, stats.ReplSync)
	cfg.LogDevPerSocket = true
	pl := New(env, cfg)
	if pl.Replicas() != 2 {
		t.Fatalf("Replicas() = %d", pl.Replicas())
	}
	seen := map[*Device]bool{}
	for r := 0; r < 2; r++ {
		for s := 0; s < cfg.NumSockets(); s++ {
			d := pl.ReplSSD(r, s)
			if d == nil || seen[d] {
				t.Fatalf("replica %d shard %d: missing or shared device", r, s)
			}
			seen[d] = true
		}
	}
}

func TestReplEnergyDomain(t *testing.T) {
	env := sim.NewEnv()
	cfg := HC2Replicated(1, 1, stats.ReplAsync)
	pl := New(env, cfg)
	before := pl.Snapshot()
	const chunk = 1 << 20
	env.Spawn("ship", func(p *sim.Proc) {
		pl.ReplLink.Transfer(p, chunk)
		pl.ReplSSD(0, 0).Transfer(p, chunk)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	after := pl.Snapshot()
	if after.ReplBytes-before.ReplBytes != chunk {
		t.Errorf("ReplBytes delta %d, want %d", after.ReplBytes-before.ReplBytes, chunk)
	}
	if after.ReplSSDBusy <= before.ReplSSDBusy {
		t.Error("replica SSD busy time did not advance")
	}
	r := pl.Energy(before, after)
	wantLink := float64(chunk) * cfg.ReplPJPerByte * 1e-12
	if r.Replication <= wantLink {
		t.Errorf("Replication = %v J, want > link bytes alone (%v J: the replica device term is missing)",
			r.Replication, wantLink)
	}
	if total := r.Total(); total < r.Replication {
		t.Errorf("Total() %v excludes Replication %v", total, r.Replication)
	}
}

// TestUnreplicatedBuildsNothing is the no-feature guard at the platform
// layer: the paper machine must be byte-for-byte unchanged with replication
// off.
func TestUnreplicatedBuildsNothing(t *testing.T) {
	env := sim.NewEnv()
	cfg := HC2()
	if cfg.Replicated() {
		t.Fatal("HC2 is replicated by default")
	}
	pl := New(env, cfg)
	if pl.ReplLink != nil || pl.Replicas() != 0 {
		t.Error("unreplicated platform built replication devices")
	}
	s := pl.Snapshot()
	if s.ReplBytes != 0 || s.ReplSSDBusy != 0 {
		t.Error("unreplicated snapshot carries replication counters")
	}
	if r := pl.Energy(s, pl.Snapshot()); r.Replication != 0 {
		t.Errorf("unreplicated Replication energy = %v", r.Replication)
	}
}

func TestReplAckNeed(t *testing.T) {
	cases := []struct {
		mode     stats.ReplMode
		replicas int
		want     int
	}{
		{stats.ReplAsync, 2, 0},
		{stats.ReplSync, 1, 1},
		{stats.ReplSync, 2, 2},
		{stats.ReplSync, 3, 3},
		{stats.ReplQuorum, 1, 1}, // group of 2: majority is 2 votes, 1 replica ack
		{stats.ReplQuorum, 2, 1}, // group of 3: majority is 2 votes, 1 replica ack
		{stats.ReplQuorum, 3, 2}, // group of 4: majority is 3 votes, 2 replica acks
		{stats.ReplQuorum, 4, 2}, // group of 5: majority is 3 votes, 2 replica acks
	}
	for _, c := range cases {
		cfg := HC2Replicated(1, c.replicas, c.mode)
		if got := cfg.ReplAckNeed(); got != c.want {
			t.Errorf("%s x%d: need %d, want %d", c.mode, c.replicas, got, c.want)
		}
	}
	if got := HC2().ReplAckNeed(); got != 0 {
		t.Errorf("unreplicated need %d", got)
	}
}

// Replicas returns how many replica machines the platform ships its log to
// (zero with replication off).
func (pl *Platform) Replicas() int { return len(pl.replSSDs) }
