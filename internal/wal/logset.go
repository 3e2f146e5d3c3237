package wal

import (
	"fmt"
	"sort"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// ShardLSN names one log shard's durability horizon: records appended to
// shard Shard are durable there once the shard's Durable() reaches LSN.
// A transaction's durable point is a vector of these, one per shard it
// logged to.
type ShardLSN struct {
	Shard int
	LSN   LSN
}

// LogShard is one stream of the sharded log: an appender (software manager
// or hardware log engine), its durable store, and the socket it serves.
type LogShard struct {
	App    Appender
	Store  *Store
	Socket int
}

// LogSet is the sharded durable log: one LogShard per socket (or exactly
// one, the classic central log). It is the layer between transaction
// management and the appenders — it routes appends to the caller's
// socket-local shard and turns per-shard durability into the vector durable
// point: a commit is durable only when every shard the transaction touched
// has reached its vector entry.
//
// A single-shard LogSet adds nothing to the simulation: appends route to
// shard 0 with no extra charges and durability waits pass straight through
// to the one appender, so non-sharded runs are bit-identical to the
// pre-LogSet code.
type LogSet struct {
	pl     *platform.Platform
	shards []LogShard
	// repl is the attached replication machinery; nil on an unreplicated
	// machine, where the commit path below is exactly the single-machine
	// code.
	repl *ReplicaSet
}

// NewLogSet builds a log set over the given shards. Shard i must serve
// socket i when there is more than one (appends route by the caller's
// socket).
func NewLogSet(pl *platform.Platform, shards []LogShard) *LogSet {
	if len(shards) == 0 {
		panic("wal: LogSet needs at least one shard")
	}
	for i, sh := range shards {
		if len(shards) > 1 && sh.Socket != i {
			panic(fmt.Sprintf("wal: shard %d serves socket %d; sharded sets must be socket-indexed", i, sh.Socket))
		}
	}
	return &LogSet{pl: pl, shards: shards}
}

// NumShards returns the shard count.
func (ls *LogSet) NumShards() int { return len(ls.shards) }

// Store returns shard i's durable store.
func (ls *LogSet) Store(i int) *Store { return ls.shards[i].Store }

// ShardFor returns the shard a task's appends route to: the task's socket
// on a sharded set, shard 0 otherwise.
func (ls *LogSet) ShardFor(t *platform.Task) int {
	if len(ls.shards) == 1 {
		return 0
	}
	return t.Core().SocketID()
}

// logMsgBytes is the modeled size of a remote log append descriptor: the
// record header plus a pointer to the payload, one cache line.
const logMsgBytes = 64

// Append routes rec to the given shard, charging the caller's task. On a
// sharded set an append to another socket's shard (a coordinator writing
// its commit record to the transaction's anchor shard) additionally pays
// one interconnect message to carry the record descriptor there;
// socket-local appends — every data record, by construction — pay nothing
// new.
func (ls *LogSet) Append(t *platform.Task, shard int, rec *Record) LSN {
	sh := ls.shards[shard]
	if len(ls.shards) > 1 && ls.pl.IC != nil {
		if from := t.Core().SocketID(); from != sh.Socket {
			sc := t.Script()
			ls.pl.IC.AddTransfer(sc, from, sh.Socket, logMsgBytes)
			sc.Run()
		}
	}
	return sh.App.Append(t, rec)
}

// DurableVector returns every shard's current durable horizon.
func (ls *LogSet) DurableVector() []LSN {
	out := make([]LSN, len(ls.shards))
	for i, sh := range ls.shards {
		out[i] = sh.App.Durable()
	}
	return out
}

// AttachReplication wires rs into the commit path: under sync/quorum
// modes CommitDurableIn waits for replica acknowledgements after the local
// vector durable point. Engines attach at construction, gated on
// Config.Replicated().
func (ls *LogSet) AttachReplication(rs *ReplicaSet) { ls.repl = rs }

// Replication returns the attached replica set (nil when unreplicated).
func (ls *LogSet) Replication() *ReplicaSet { return ls.repl }

// CommitDurableIn fires done once every entry of vec is durable on its shard
// — the vector durable point. done is armed with one completion per entry
// and registered directly on each shard's durable point, so the last shard
// to get there completes it with no extra processes or events.
//
// With replication attached under a waiting mode (sync/quorum), the vector
// durable point extends across machines: once it holds locally, the commit
// waits the same way for every entry on its shard's replicated point (the
// LSN enough replicas have acknowledged, ReplicaSet) and only then fires
// done. That two-step wait runs through j, which it re-arms first; it
// returns the join to pass to the owner's next commit: j, or a new one when
// j is nil. Async mode (and no replication) keeps the local-only wait and
// no join: it returns j untouched, nil for a caller that passed none.
func (ls *LogSet) CommitDurableIn(j *DurableJoin, vec []ShardLSN, done *sim.Signal) *DurableJoin {
	if ls.repl == nil || ls.repl.need == 0 {
		ls.waitVec(vec, done, false)
		return j
	}
	if j == nil {
		j = &DurableJoin{ls: ls, durable: sim.NewSignal(ls.pl.Env)}
		j.onDurable = j.durableHere
	} else {
		j.durable.Reset()
	}
	j.vec, j.done = vec, done
	j.durable.OnFire(j.onDurable)
	ls.waitVec(vec, j.durable, false)
	return j
}

// waitVec fires target once every entry of vec has reached its shard's
// durable point, or with acks its shard's replicated point: target is armed
// with one completion per entry.
func (ls *LogSet) waitVec(vec []ShardLSN, target *sim.Signal, acks bool) {
	if len(vec) == 0 {
		target.Fire() // nothing was logged; durable by definition
		return
	}
	target.Arm(len(vec))
	for _, e := range vec {
		if acks {
			ls.repl.points[e.Shard].Wait(e.LSN, target)
		} else {
			ls.shards[e.Shard].App.CommitDurable(e.LSN, target)
		}
	}
}

// DurableJoin is a replicated commit's two-step wait: the commit's local
// vector durable point fires durable, whose callback starts the wait over
// the shards' replicated points, which fires the commit signal done. An
// owner that commits one transaction at a time keeps the join its first
// replicated commit got back from CommitDurableIn (txn.Txn does) and passes
// it to every later one, which re-arms it, so a commit builds no signal or
// closure. The previous commit's signal must have fired before the next
// commit re-arms the join: its Reset of durable panics otherwise.
type DurableJoin struct {
	ls        *LogSet
	durable   *sim.Signal
	onDurable func() // durableHere, bound once
	vec       []ShardLSN
	done      *sim.Signal
	start     sim.Time // when the ack wait began, traced only
	onAcked   func()   // acked, bound once traced
}

// durableHere starts the replica-ack wait once vec is durable locally.
// Traced, it hooks done to record the wait; the hook runs inline as done
// fires, so it adds no event and cannot change the schedule.
func (j *DurableJoin) durableHere() {
	if rs := j.ls.repl; rs.obsRec != nil || rs.obsAn != nil {
		if j.onAcked == nil {
			j.onAcked = j.acked
		}
		j.start = j.ls.pl.Env.Now()
		j.done.OnFire(j.onAcked)
	}
	j.ls.waitVec(j.vec, j.done, true)
}

func (j *DurableJoin) acked() { j.ls.repl.recordAckWait(j.start) }

// Datas returns every shard's durable byte stream, shard-indexed — the
// crash image recovery replays. Shard i's image starts at its store's kept
// point (Kept()[i]); a shard no reader registered on has an empty one.
func (ls *LogSet) Datas() [][]byte {
	out := make([][]byte, len(ls.shards))
	for i, sh := range ls.shards {
		out[i] = sh.Store.Bytes()
	}
	return out
}

// Register records a reader on every shard: shard i keeps its bytes from
// from[i] on (Store.Register). core.Checkpoint registers its start vector.
func (ls *LogSet) Register(from []LSN) error {
	for i, sh := range ls.shards {
		if err := sh.Store.Register(from[i]); err != nil {
			return fmt.Errorf("log shard %d: %w", i, err)
		}
	}
	return nil
}

// Kept returns every shard's kept point: where its Datas image starts.
func (ls *LogSet) Kept() []LSN {
	out := make([]LSN, len(ls.shards))
	for i, sh := range ls.shards {
		out[i] = sh.Store.Kept()
	}
	return out
}

// Backlog returns shard i's appended-but-not-yet-flushed byte count — the
// telemetry sampler's flush-backlog gauge.
func (ls *LogSet) Backlog(i int) int { return ls.shards[i].App.Backlog() }

// Stop quiesces every shard's flush daemon, in shard order, then the
// replication stream. Engines call it from Close.
func (ls *LogSet) Stop() {
	for _, sh := range ls.shards {
		sh.App.Stop()
	}
	if ls.repl != nil {
		ls.repl.Stop()
	}
}

// Stats reports per-shard cumulative activity counters (socket, durable
// bytes, syncs, arbitration epochs).
func (ls *LogSet) Stats() []stats.LogShardStats {
	out := make([]stats.LogShardStats, len(ls.shards))
	for i, sh := range ls.shards {
		st := stats.LogShardStats{Shard: sh.Socket, Bytes: int64(sh.Store.Len())}
		st.Syncs, st.Epochs = sh.App.ShardStats()
		out[i] = st
	}
	return out
}

// --- Shard vectors on commit records ---
//
// A cross-shard transaction's commit record carries its shard vector (the
// durability horizon of its data records on every shard it wrote), encoded
// in the record's After field. Recovery validates the vector against each
// shard's recovered length: if any entry lies beyond what survived the
// crash, the transaction was never acknowledged — its commit waited on the
// vector durable point — and is treated as uncommitted. This is what lets
// the prepare phase stay free: the phase RVPs already collected the votes,
// and the vector makes partial durability detectable, so no per-shard
// prepare record or extra log force is ever written.

// shardVecEntrySize is the wire size of one vector entry: u16 shard + u64 LSN.
const shardVecEntrySize = 10

// EncodeShardVec appends the wire form of vec to dst, sorted by shard so
// the bytes are a pure function of the vector's content.
func EncodeShardVec(dst []byte, vec []ShardLSN) []byte {
	// Transactions keep their vectors sorted; only a caller's unsorted one
	// pays for a sorted copy.
	for i := 1; i < len(vec); i++ {
		if vec[i].Shard < vec[i-1].Shard {
			vec = append([]ShardLSN(nil), vec...)
			sort.Slice(vec, func(i, j int) bool { return vec[i].Shard < vec[j].Shard })
			break
		}
	}
	for _, e := range vec {
		dst = append(dst, byte(e.Shard), byte(e.Shard>>8))
		v := uint64(e.LSN)
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return dst
}

// DecodeShardVec parses a commit record's shard vector payload.
func DecodeShardVec(b []byte) ([]ShardLSN, error) {
	if len(b)%shardVecEntrySize != 0 {
		return nil, fmt.Errorf("wal: shard vector payload of %d bytes", len(b))
	}
	out := make([]ShardLSN, 0, len(b)/shardVecEntrySize)
	for off := 0; off < len(b); off += shardVecEntrySize {
		shard := int(b[off]) | int(b[off+1])<<8
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[off+2+i]) << (8 * i)
		}
		out = append(out, ShardLSN{Shard: shard, LSN: LSN(v)})
	}
	return out, nil
}
