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

// Shard returns shard i's appender.
func (ls *LogSet) Shard(i int) Appender { return ls.shards[i].App }

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

// Durable returns shard i's durable horizon.
func (ls *LogSet) Durable(i int) LSN { return ls.shards[i].App.Durable() }

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
// — the vector durable point — joining the per-shard completions in j, which
// it re-arms first. It returns the join to pass to the owner's next commit:
// j, or a new one when j is nil and this commit needs one, so a caller whose
// commits never do keeps none (a caller with no join passes nil). A
// single-entry vector waits on its shard's durable point directly; a
// multi-entry vector joins the per-shard completions with no extra
// processes or events.
//
// With replication attached under a waiting mode (sync/quorum), the vector
// durable point extends across machines: once it holds locally, the join
// waits the same way for every entry on its shard's replicated point (the
// LSN enough replicas have acknowledged, ReplicaSet) and only then fires
// done. Async mode (and no replication) keeps the local-only wait.
func (ls *LogSet) CommitDurableIn(j *DurableJoin, vec []ShardLSN, done *sim.Signal) *DurableJoin {
	replicated := ls.repl != nil && ls.repl.need > 0
	if j == nil {
		if !replicated && len(vec) < 2 {
			ls.waitVec(nil, vec, done, false)
			return nil
		}
		j = &DurableJoin{}
	}
	j.rearm()
	if !replicated {
		ls.waitVec(&j.local, vec, done, false)
		return j
	}
	if j.repl == nil {
		j.repl = &replJoin{ls: ls, durable: sim.NewSignal(ls.pl.Env)}
		j.repl.onDurable = j.repl.durableHere
	}
	r := j.repl
	r.vec, r.done = vec, done
	r.durable.OnFire(r.onDurable)
	ls.waitVec(&j.local, vec, r.durable, false)
	return j
}

// waitVec fires target once every entry of vec has reached its shard's
// durable point, or with acks its shard's replicated point. f joins a
// multi-entry vector; it may be nil for a shorter one.
func (ls *LogSet) waitVec(f *fanIn, vec []ShardLSN, target *sim.Signal, acks bool) {
	switch len(vec) {
	case 0:
		target.Fire(nil) // nothing was logged; durable by definition
		return
	case 1:
		ls.wait(vec[0], target, acks)
		return
	}
	if f.arrive == nil {
		f.arrive = f.arrived
	}
	f.target, f.left = target, len(vec)
	for i, e := range vec {
		if i == len(f.subs) {
			f.subs = append(f.subs, sim.NewSignal(ls.pl.Env))
		}
		f.armed = i + 1
		f.subs[i].OnFire(f.arrive)
		ls.wait(e, f.subs[i], acks)
	}
}

// wait fires done once e is durable on its shard, or with acks once enough
// replicas have acknowledged it.
func (ls *LogSet) wait(e ShardLSN, done *sim.Signal, acks bool) {
	if acks {
		ls.repl.points[e.Shard].Wait(e.LSN, done)
		return
	}
	ls.shards[e.Shard].App.CommitDurable(e.LSN, done)
}

// DurableJoin joins one commit's per-shard completions into its commit
// signal. An owner that commits one transaction at a time keeps the join its
// first cross-shard or replicated commit got back from CommitDurableIn
// (txn.Txn does) and passes it to every later one, which re-arms it, so a
// commit builds no signal or closure per shard. The previous commit's signal
// must have fired, and its Await returned, before the next commit re-arms
// the join: its Reset of a sub-signal panics otherwise. The join must not be
// re-armed from inside a sub-signal's callback, where the firing signal's
// Fire has not yet finished with its callback list.
type DurableJoin struct {
	local fanIn     // over the shards' local durable points
	repl  *replJoin // built by the join's first replicated commit
}

// replJoin is a replicated DurableJoin's second wait: the local fan-in fires
// durable, whose callback starts acks over the shards' replicated points,
// which fires the commit signal done.
type replJoin struct {
	ls        *LogSet
	acks      fanIn
	durable   *sim.Signal
	onDurable func(any) // durableHere, bound once
	vec       []ShardLSN
	done      *sim.Signal
	start     sim.Time  // when the ack wait began, traced only
	onAcked   func(any) // acked, bound once traced
}

// fanIn fires target once left sub-signals have fired: one sub-signal per
// vector entry, kept across commits, and a callback bound on first use.
type fanIn struct {
	subs   []*sim.Signal
	armed  int // subs the last commit registered on
	left   int // entries not yet reached
	target *sim.Signal
	arrive func(any) // arrived, bound once
}

func (f *fanIn) arrived(any) {
	f.left--
	if f.left == 0 {
		f.target.Fire(nil)
	}
}

// rearm resets the sub-signals the previous commit used.
func (f *fanIn) rearm() {
	for _, sub := range f.subs[:f.armed] {
		sub.Reset()
	}
	f.armed = 0
}

// rearm resets the signals the previous commit used. A join with a
// replicated half commits only on a replicated machine, so every commit
// armed its durable signal.
func (j *DurableJoin) rearm() {
	j.local.rearm()
	if j.repl != nil {
		j.repl.acks.rearm()
		j.repl.durable.Reset()
	}
}

// durableHere starts the replica-ack wait once vec is durable locally.
// Traced, it hooks done to record the wait; the hook runs inline as done
// fires, so it adds no event and cannot change the schedule.
func (r *replJoin) durableHere(any) {
	if rs := r.ls.repl; rs.obsRec != nil || rs.obsAn != nil {
		if r.onAcked == nil {
			r.onAcked = r.acked
		}
		r.start = r.ls.pl.Env.Now()
		r.done.OnFire(r.onAcked)
	}
	r.ls.waitVec(&r.acks, r.vec, r.done, true)
}

func (r *replJoin) acked(any) { r.ls.repl.recordAckWait(r.start) }

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
