package wal

import (
	"bytes"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// replFixture builds a one-socket machine shipping its central log to the
// given replica count under mode, with one software log manager.
func replFixture(t *testing.T, replicas int, mode stats.ReplMode) (*sim.Env, *platform.Platform, *LogSet, *ReplicaSet) {
	t.Helper()
	env := sim.NewEnv()
	cfg := platform.HC2Replicated(1, replicas, mode)
	pl := platform.New(env, cfg)
	st := NewStore(pl.LogSSD(0))
	m := NewManager(pl, st, DefaultManagerConfig())
	ls := NewLogSet(pl, []LogShard{{App: m, Store: st, Socket: 0}})
	rs := NewReplicaSet(ls)
	ls.AttachReplication(rs)
	return env, pl, ls, rs
}

func appendOne(pl *platform.Platform, ls *LogSet, p *sim.Proc, txn uint64) LSN {
	task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
	rec := Record{Txn: txn, Type: RecInsert, Key: []byte{byte(txn)}, After: []byte("payload")}
	lsn := ls.Append(task, 0, &rec)
	task.Flush()
	return lsn
}

func TestReplicationShipsPrefixesAndAcks(t *testing.T) {
	env, pl, ls, rs := replFixture(t, 2, stats.ReplSync)
	env.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			appendOne(pl, ls, p, uint64(i+1))
			p.Wait(50 * sim.Microsecond)
		}
	})
	// Writes end ~1ms in; by 5ms the shippers have long caught up.
	if err := env.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	primary := ls.Store(0)
	durable := primary.Durable()
	if durable == 0 {
		t.Fatal("nothing became durable")
	}
	for r := 0; r < rs.Replicas(); r++ {
		rep := rs.ReplicaStore(r, 0)
		if !bytes.Equal(rep.Bytes(), primary.Bytes()[:durable]) {
			t.Errorf("replica %d is not the primary's durable prefix (%d vs %d bytes)",
				r, rep.Len(), int(durable))
		}
		if got := rs.AckedVector(r)[0]; got != durable {
			t.Errorf("replica %d acked %d, want %d", r, got, durable)
		}
	}
	st := rs.Stats()
	if len(st) != 1 {
		t.Fatalf("%d stat shards", len(st))
	}
	if st[0].Mode != stats.ReplSync || st[0].Shard != 0 {
		t.Errorf("stat identity %+v", st[0])
	}
	// Every shard byte ships once per replica.
	if st[0].ShippedBytes != 2*int64(durable) {
		t.Errorf("shipped %d bytes, want %d", st[0].ShippedBytes, 2*int64(durable))
	}
	if st[0].Ships == 0 || st[0].AckRTTs != st[0].Ships {
		t.Errorf("ships=%d ackRTTs=%d, want equal and nonzero", st[0].Ships, st[0].AckRTTs)
	}
	if st[0].LagBytesMax <= 0 {
		t.Error("no ship lag observed under a 50us write cadence")
	}
	// A round trip pays at least the transfer's propagation out and the
	// acknowledgement's propagation back.
	cfg := pl.Cfg
	if st[0].LagTimeMax < 2*cfg.ReplLinkLat {
		t.Errorf("max RTT %v under two link crossings (%v)", st[0].LagTimeMax, 2*cfg.ReplLinkLat)
	}
	if mean := st[0].LagTimeMean(); mean <= 0 || mean > st[0].LagTimeMax {
		t.Errorf("mean RTT %v outside (0, %v]", mean, st[0].LagTimeMax)
	}
}

// commitLatency measures one commit's wait from CommitDurable to signal
// fire under the given mode with two replicas.
func commitLatency(t *testing.T, mode stats.ReplMode) sim.Duration {
	t.Helper()
	env, pl, ls, _ := replFixture(t, 2, mode)
	var start, fired sim.Time
	env.Spawn("w", func(p *sim.Proc) {
		lsn := appendOne(pl, ls, p, 1)
		start = p.Now()
		done := sim.NewSignal(env)
		ls.CommitDurableIn(nil, []ShardLSN{{Shard: 0, LSN: lsn}}, done)
		done.Await(p)
		fired = p.Now()
	})
	if err := env.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatalf("%s commit never acknowledged", mode)
	}
	return fired.Sub(start)
}

// TestCommitWaitOrdering pins the replication tax ordering the modes exist
// for: async pays only the local flush, quorum adds the first replica's
// round trip, sync waits for the slower one (the two ships serialize on the
// primary's one egress NIC, so the second ack is strictly later).
func TestCommitWaitOrdering(t *testing.T) {
	async := commitLatency(t, stats.ReplAsync)
	quorum := commitLatency(t, stats.ReplQuorum)
	sync := commitLatency(t, stats.ReplSync)
	if !(async < quorum && quorum < sync) {
		t.Errorf("commit wait async=%v quorum=%v sync=%v, want async < quorum < sync", async, quorum, sync)
	}
}

func TestPartitionHoldsBacklogThenDrains(t *testing.T) {
	env, pl, ls, rs := replFixture(t, 2, stats.ReplAsync)
	rs.SetLinkDown(true)
	env.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			appendOne(pl, ls, p, uint64(i+1))
			p.Wait(20 * sim.Microsecond)
		}
	})
	if err := env.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	durable := ls.Store(0).Durable()
	for r := 0; r < 2; r++ {
		if rs.ReplicaStore(r, 0).Len() != 0 {
			t.Errorf("replica %d received bytes through a partitioned link", r)
		}
	}
	st := rs.Stats()
	if st[0].LagBytesMax != int64(durable) {
		t.Errorf("partition lag %d, want the full durable stream %d", st[0].LagBytesMax, int64(durable))
	}
	// Heal: the whole backlog drains, one burst per replica.
	rs.SetLinkDown(false)
	if err := env.RunUntil(sim.Time(3 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if got := LSN(rs.ReplicaStore(r, 0).Len()); got != durable {
			t.Errorf("replica %d drained to %d, want %d", r, got, durable)
		}
	}
	if st := rs.Stats(); st[0].Ships != 2 {
		t.Errorf("%d ships after heal, want one burst per replica", st[0].Ships)
	}
}

// TestShippingAcrossSegments grows a replicated two-shard log past several
// store segments on every shard, with a partition in the middle whose heal
// ships more than two segments in one burst per stream. Four shippers
// interleave on the shared link, each parked on its replica's SSD while the
// others copy their ranges; every replica must still hold a literal byte
// prefix of its primary shard.
func TestShippingAcrossSegments(t *testing.T) {
	env := sim.NewEnv()
	cfg := platform.HC2Replicated(2, 2, stats.ReplAsync)
	cfg.LogDevPerSocket = true
	pl := platform.New(env, cfg)
	var shards []LogShard
	for s := 0; s < 2; s++ {
		st := NewStore(pl.LogSSD(s))
		shards = append(shards, LogShard{App: NewManager(pl, st, DefaultManagerConfig()), Store: st, Socket: s})
	}
	ls := NewLogSet(pl, shards)
	rs := NewReplicaSet(ls)
	ls.AttachReplication(rs)

	written := 0
	writeRecords := func(n int) {
		for s := 0; s < 2; s++ {
			s, first := s, written
			env.Spawn("w", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Sockets[s].Cores[0], nil)
				for i := first; i < first+n; i++ {
					rec := Record{Txn: uint64(i), Type: RecInsert, Key: []byte{byte(s), byte(i)},
						After: logBytes(s<<20+131*i, 8<<10)}
					ls.Append(task, s, &rec)
					task.Flush()
				}
			})
		}
		written += n
	}
	replicaLens := func() (lens [2][2]int) {
		for r := range lens {
			for s := range lens[r] {
				lens[r][s] = rs.ReplicaStore(r, s).Len()
			}
		}
		return lens
	}

	writeRecords(130)
	if err := env.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rs.SetLinkDown(true)
	cut := replicaLens()
	writeRecords(270)
	if err := env.RunUntil(sim.Time(30 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := replicaLens(); got != cut {
		t.Fatalf("replicas moved %v -> %v through a partitioned link", cut, got)
	}
	for s := 0; s < 2; s++ {
		if backlog := ls.Store(s).Len() - cut[0][s]; backlog < 2*maxSegBytes {
			t.Fatalf("shard %d: partition backlog of %d bytes, want more than two segments", s, backlog)
		}
	}
	rs.SetLinkDown(false)
	if err := env.RunUntil(sim.Time(60 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		primary := ls.Store(s)
		if primary.Len() < 3<<20 || len(primary.segs) < 5 {
			t.Fatalf("shard %d: %d bytes in %d segments, want at least 3 MiB", s, primary.Len(), len(primary.segs))
		}
		durable := int(primary.Durable())
		for r := 0; r < 2; r++ {
			rep := rs.ReplicaStore(r, s)
			if rep.Len() != durable {
				t.Errorf("replica %d shard %d holds %d of %d durable bytes", r, s, rep.Len(), durable)
			}
			if !bytes.Equal(rep.Bytes(), primary.Bytes()[:rep.Len()]) {
				t.Errorf("replica %d shard %d is not a byte prefix of its primary", r, s)
			}
		}
	}
}

func TestReplicaStallAndSyncCommitBlocked(t *testing.T) {
	env, pl, ls, rs := replFixture(t, 2, stats.ReplSync)
	rs.SetStalled(0, true)
	done := sim.NewSignal(env)
	env.Spawn("w", func(p *sim.Proc) {
		lsn := appendOne(pl, ls, p, 1)
		ls.CommitDurableIn(nil, []ShardLSN{{Shard: 0, LSN: lsn}}, done)
	})
	if err := env.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	durable := ls.Store(0).Durable()
	if rs.ReplicaStore(0, 0).Len() != 0 {
		t.Error("stalled replica persisted bytes")
	}
	if got := LSN(rs.ReplicaStore(1, 0).Len()); got != durable {
		t.Errorf("healthy replica holds %d, want %d", got, durable)
	}
	if done.Fired() {
		t.Error("sync commit acknowledged with one replica stalled")
	}
	// The surviving image is still the healthy replica's full copy.
	logs, replicaBytes, lostTail := rs.CrashImage()
	if LSN(len(logs[0])) != durable || replicaBytes != int64(durable) || lostTail != 0 {
		t.Errorf("crash image %d bytes, lost %d, want %d and 0", replicaBytes, lostTail, int64(durable))
	}
	// Revive: the stalled replica catches up and the commit completes.
	rs.SetStalled(0, false)
	if err := env.RunUntil(sim.Time(3 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := LSN(rs.ReplicaStore(0, 0).Len()); got != durable {
		t.Errorf("revived replica holds %d, want %d", got, durable)
	}
	if !done.Fired() {
		t.Error("sync commit still blocked after the stalled replica caught up")
	}
}

// TestReplicatedPointCountsAcks pins a shard's replicated point to the
// need-th highest replica acknowledgement at three replicas, where quorum
// needs two acks and sync three: neither the highest ack (which one replica
// reaches alone) nor the lowest (which a single stalled replica holds at 0).
// Every commit fires once its stalled replicas revive.
func TestReplicatedPointCountsAcks(t *testing.T) {
	for _, c := range []struct {
		mode    stats.ReplMode
		stalled []int
		fires   bool
	}{
		{stats.ReplQuorum, []int{0, 1}, false}, // one ack of the two quorum needs
		{stats.ReplQuorum, []int{0}, true},     // two acks
		{stats.ReplSync, []int{0}, false},      // two acks of the three sync needs
	} {
		env, pl, ls, rs := replFixture(t, 3, c.mode)
		for _, r := range c.stalled {
			rs.SetStalled(r, true)
		}
		done := sim.NewSignal(env)
		var lsn LSN
		env.Spawn("w", func(p *sim.Proc) {
			lsn = appendOne(pl, ls, p, 1)
			ls.CommitDurableIn(nil, []ShardLSN{{Shard: 0, LSN: lsn}}, done)
		})
		if err := env.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		acks := 0
		for r := 0; r < rs.Replicas(); r++ {
			if rs.AckedVector(r)[0] >= lsn {
				acks++
			}
		}
		if acks != rs.Replicas()-len(c.stalled) {
			t.Fatalf("%s, stalled %v: %d replicas acked the commit, want %d",
				c.mode, c.stalled, acks, rs.Replicas()-len(c.stalled))
		}
		if done.Fired() != c.fires {
			t.Errorf("%s with %d of %d acks needed: commit fired = %v, want %v",
				c.mode, acks, rs.need, done.Fired(), c.fires)
		}
		for _, r := range c.stalled {
			rs.SetStalled(r, false)
		}
		if err := env.RunUntil(sim.Time(3 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if !done.Fired() {
			t.Errorf("%s, stalled %v: commit still blocked after the stalled replicas revived", c.mode, c.stalled)
		}
	}
}
