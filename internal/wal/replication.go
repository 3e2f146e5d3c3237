package wal

import (
	"fmt"

	"bionicdb/internal/obs"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// shipInterval is the shipper daemon's poll period: how often each
// (shard, replica) stream checks for new durable bytes to ship. Short
// against the group-commit flush interval (30 us) so a flushed batch is
// picked up promptly, long enough that idle polling stays cheap.
const shipInterval = 10 * sim.Microsecond

// ReplicaSet ships every shard of a LogSet's durable stream to R modeled
// replica machines and tracks, per shard, how far each replica has
// acknowledged — the state failover recovers from — and, per shard, the
// replicated point the commit path's sync/quorum waits join on: the highest
// LSN that need replicas have acknowledged, a Horizon like a shard's local
// durable point.
//
// One shipper daemon runs per (replica, shard) pair. Each tick it takes
// whatever the primary shard has made durable beyond the replica's copy,
// pushes it through the primary's one egress NIC (platform.ReplLink: all
// streams share its serialization), writes it to the replica's own log
// device, then waits one more link crossing for the acknowledgement.
// Shipping is prefix-ordered by construction — a replica's store is always
// a literal byte prefix of the primary shard's stream — which is what makes
// failover recovery a plain replay of the longest surviving copy.
//
// Fault hooks (SetLinkDown, SetLagFactor, SetStalled) model partitions,
// congestion and stuck replicas; a healed partition drains its backlog in
// one burst through the shared NIC.
type ReplicaSet struct {
	ls   *LogSet
	need int // replica acks a commit waits for (0 = async)

	// repl[r][s] is replica r's copy of shard s; acked[r][s] is how far
	// replica r has acknowledged shard s back to the primary.
	repl   [][]*Store
	acked  [][]LSN
	points []Horizon // per shard, the need-th highest acknowledgement

	st []stats.ReplicationStats

	linkDown  bool
	lagFactor float64 // link latency multiplier; 1 = nominal
	stalled   []bool  // per replica

	stopped bool

	// Flight-recorder hooks (SetObs): host-side only, nil when untraced.
	obsRec *obs.ShardRec
	obsAn  *stats.Anatomy
}

// NewReplicaSet builds the shipping machinery for ls on its platform's
// replica devices and spawns the shipper daemons. The platform must be
// replicated (Cfg.Replicated()); engines gate construction on that, so an
// unreplicated run never reaches here.
func NewReplicaSet(ls *LogSet) *ReplicaSet {
	pl := ls.pl
	cfg := pl.Cfg
	if !cfg.Replicated() {
		panic("wal: NewReplicaSet on an unreplicated platform")
	}
	nShards := ls.NumShards()
	rs := &ReplicaSet{
		ls:        ls,
		need:      cfg.ReplAckNeed(),
		points:    make([]Horizon, nShards),
		st:        make([]stats.ReplicationStats, nShards),
		lagFactor: 1,
		stalled:   make([]bool, cfg.Replicas),
	}
	for s := 0; s < nShards; s++ {
		rs.st[s] = stats.ReplicationStats{Shard: ls.shards[s].Socket, Mode: cfg.ReplMode}
	}
	// The shipper reads every primary byte and failover replays a replica's
	// whole copy, so every store of the set keeps its log from 0.
	if err := ls.Register(make([]LSN, nShards)); err != nil {
		panic(fmt.Sprintf("wal: NewReplicaSet on a log that already dropped bytes: %v", err))
	}
	for r := 0; r < cfg.Replicas; r++ {
		stores := make([]*Store, nShards)
		lsns := make([]LSN, nShards)
		for s := 0; s < nShards; s++ {
			stores[s] = NewStore(pl.ReplSSD(r, s))
			_ = stores[s].Register(0) // cannot fail: an empty store keeps from 0
		}
		rs.repl = append(rs.repl, stores)
		rs.acked = append(rs.acked, lsns)
	}
	for r := 0; r < cfg.Replicas; r++ {
		for s := 0; s < nShards; s++ {
			r, s := r, s
			pl.Env.Spawn(fmt.Sprintf("repl%d.ship%d", r, s), func(p *sim.Proc) {
				rs.ship(p, r, s)
			})
		}
	}
	return rs
}

// ship is the (replica r, shard s) shipper daemon body.
func (rs *ReplicaSet) ship(p *sim.Proc, r, s int) {
	pl := rs.ls.pl
	primary := rs.ls.shards[s].Store
	replica := rs.repl[r][s]
	// buf is this stream's own copy of the range in flight. It cannot be
	// shared with the other shippers: replica.Write parks on the replica
	// SSD's transfer before it copies, and another shipper would refill a
	// shared buffer in between.
	var buf []byte
	for {
		p.Wait(shipInterval)
		if rs.stopped {
			return
		}
		durable := primary.Durable()
		sent := LSN(replica.Len())
		if lag := int64(durable - sent); lag > rs.st[s].LagBytesMax {
			rs.st[s].LagBytesMax = lag
		}
		if durable <= sent || rs.linkDown || rs.stalled[r] {
			continue
		}
		var err error
		if buf, err = primary.AppendRange(buf[:0], int(sent), int(durable)); err != nil {
			panic(err) // the set registered the primary at 0
		}
		pickup := p.Now()
		pl.ReplLink.Transfer(p, len(buf))
		if rs.lagFactor > 1 {
			// Congestion stretches the link's propagation delay; the extra
			// one-way latency is charged on top of the nominal transfer.
			p.Wait(sim.Duration((rs.lagFactor - 1) * float64(pl.Cfg.ReplLinkLat)))
		}
		replica.Write(p, buf)
		rs.st[s].ShippedBytes += int64(len(buf))
		rs.st[s].Ships++
		// The acknowledgement crosses the link back; a 64-byte ack pays
		// propagation, not serialization.
		p.Wait(sim.Duration(rs.lagFactor * float64(pl.Cfg.ReplLinkLat)))
		if rs.stopped {
			return
		}
		rtt := p.Now().Sub(pickup)
		rs.st[s].AckRTTs++
		rs.st[s].LagTimeSum += rtt
		if rtt > rs.st[s].LagTimeMax {
			rs.st[s].LagTimeMax = rtt
		}
		rs.advanceAck(r, s, durable)
	}
}

// advanceAck records replica r's acknowledgement of shard s up to lsn and
// moves the shard's replicated point, which wakes every commit it reaches in
// registration order (deterministic).
func (rs *ReplicaSet) advanceAck(r, s int, lsn LSN) {
	if lsn <= rs.acked[r][s] {
		return
	}
	rs.acked[r][s] = lsn
	rs.points[s].Advance(rs.replicated(s))
}

// replicated returns shard s's replicated point: the highest LSN at least
// need replicas have acknowledged, which is the need-th highest of their
// acknowledgements.
func (rs *ReplicaSet) replicated(s int) LSN {
	var point LSN
	for r := range rs.acked {
		c := rs.acked[r][s]
		if c <= point {
			continue
		}
		n := 0
		for q := range rs.acked {
			if rs.acked[q][s] >= c {
				n++
			}
		}
		if n >= rs.need {
			point = c
		}
	}
	return point
}

// recordAckWait records a commit's replica-ack wait, from t0 to now, into
// the flight recorder's hooks. A wait satisfied at once records nothing.
func (rs *ReplicaSet) recordAckWait(t0 sim.Time) {
	end := rs.ls.pl.Env.Now()
	if end <= t0 {
		return
	}
	if rs.obsAn != nil {
		rs.obsAn.Record(stats.PhaseRepl, end.Sub(t0))
	}
	rs.obsRec.Record(obs.Span{Start: t0, End: end, Kind: obs.KindReplWait})
}

// SetLinkDown partitions (true) or heals (false) the inter-machine link.
// While down nothing ships; on heal the backlog drains in one burst.
func (rs *ReplicaSet) SetLinkDown(down bool) { rs.linkDown = down }

// SetLagFactor stretches the link's propagation latency by f (1 = nominal).
func (rs *ReplicaSet) SetLagFactor(f float64) {
	if f < 1 {
		f = 1
	}
	rs.lagFactor = f
}

// SetStalled freezes (true) or revives (false) replica r: a stalled
// replica neither persists nor acknowledges shipped bytes.
func (rs *ReplicaSet) SetStalled(r int, stalled bool) { rs.stalled[r] = stalled }

// Replicas returns the replica machine count.
func (rs *ReplicaSet) Replicas() int { return len(rs.repl) }

// CrashImage returns the log image failover recovers from after losing the
// primary: per shard, the longest replica copy — every copy is a byte
// prefix of the same stream, so the longest one subsumes any acknowledged
// prefix (sync and quorum commits therefore survive in full). It also
// returns the surviving byte count and the lost tail: primary-durable
// bytes no replica had yet persisted.
func (rs *ReplicaSet) CrashImage() (logs [][]byte, replicaBytes, lostTail int64) {
	nShards := rs.ls.NumShards()
	logs = make([][]byte, nShards)
	for s := 0; s < nShards; s++ {
		best := rs.repl[0][s]
		for r := 1; r < len(rs.repl); r++ {
			if rs.repl[r][s].Len() > best.Len() {
				best = rs.repl[r][s]
			}
		}
		logs[s] = best.Bytes()
		replicaBytes += int64(best.Len())
		lostTail += int64(rs.ls.shards[s].Store.Len() - best.Len())
	}
	return logs, replicaBytes, lostTail
}

// SetObs attaches the flight recorder's hooks: commit-path ack waits are
// recorded as KindReplWait spans into rec and PhaseRepl anatomy samples
// into an. Both are host-side observers; attaching them changes no
// simulated behavior. Either may be nil.
func (rs *ReplicaSet) SetObs(rec *obs.ShardRec, an *stats.Anatomy) {
	rs.obsRec = rec
	rs.obsAn = an
}

// CurLagBytes returns the instantaneous worst replication lag: the largest
// primary-durable lead over any replica's acknowledged horizon, across
// shards, in log bytes — the telemetry sampler's replica-lag gauge.
func (rs *ReplicaSet) CurLagBytes() int64 {
	var worst int64
	for s := range rs.ls.shards {
		durable := int64(rs.ls.shards[s].Store.Durable())
		for r := range rs.acked {
			if lag := durable - int64(rs.acked[r][s]); lag > worst {
				worst = lag
			}
		}
	}
	return worst
}

// Stats reports per-shard cumulative shipping counters.
func (rs *ReplicaSet) Stats() []stats.ReplicationStats {
	out := make([]stats.ReplicationStats, len(rs.st))
	copy(out, rs.st)
	return out
}

// Stop halts the shipper daemons; each exits at its next tick. Called from
// engine Close so the post-drain event queue runs dry.
func (rs *ReplicaSet) Stop() { rs.stopped = true }
