package core

import (
	"sort"

	"bionicdb/internal/btree"
	"bionicdb/internal/bufferpool"
	"bionicdb/internal/dora"
	"bionicdb/internal/hw/logengine"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/hw/queueengine"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/txn"
	"bionicdb/internal/wal"
)

// DORAEngine is the data-oriented engine: logical partitions, per-partition
// workers, RVPs, entity locks. With no offloads it is the Figure 3 software
// baseline; Offloads layer the paper's hardware units on top, turning it
// into the bionic engine of Figure 4.
type DORAEngine struct {
	name   string
	pl     *platform.Platform
	defs   map[uint16]TableDef
	scheme PartitionScheme
	off    Offloads
	window int

	// Software data path (Overlay off).
	trees map[uint16]*btree.Tree
	pool  *bufferpool.Pool

	// Hardware data path (Overlay on).
	ov    *overlay.Store
	probe *treeprobe.Engine

	qeng *queueengine.Engine

	reg   *dora.Registry
	parts []*dora.Partition

	tm      *txn.Manager
	logSet  *wal.LogSet
	logMgrs []*wal.Manager      // per-shard software managers (Log offload off)
	hwLogs  []*logengine.Engine // per-shard hardware engines (Log offload on)
	sharded bool                // more than one log shard (cfg.ShardedLog())
	dm      *storage.DiskManager

	bd     *stats.Breakdown
	ctr    *stats.Counter
	traces btree.TracePool
	kvs    sim.ScratchPool[kvPair]
}

// NewDORA builds the software data-oriented baseline (window 1, no
// offloads).
func NewDORA(env *sim.Env, cfg *platform.Config, tables []TableDef, scheme PartitionScheme) *DORAEngine {
	return newDataOriented(env, cfg, tables, scheme, Offloads{}, 1, "dora")
}

// NewBionic builds the bionic engine: DORA plus the selected hardware
// offloads and an in-flight window per partition so asynchronous hardware
// requests overlap.
func NewBionic(env *sim.Env, cfg *platform.Config, tables []TableDef, scheme PartitionScheme, off Offloads, window int) *DORAEngine {
	name := "bionic[" + off.String() + "]"
	if window < 1 {
		window = 8
	}
	return newDataOriented(env, cfg, tables, scheme, off, window, name)
}

func newDataOriented(env *sim.Env, cfg *platform.Config, tables []TableDef, scheme PartitionScheme, off Offloads, window int, name string) *DORAEngine {
	pl := platform.New(env, cfg)
	e := &DORAEngine{
		name:   name,
		pl:     pl,
		defs:   make(map[uint16]TableDef),
		scheme: scheme,
		off:    off,
		window: window,
		reg:    dora.NewRegistry(),
		bd:     &stats.Breakdown{},
		ctr:    stats.NewCounter(),
	}
	e.dm = storage.NewDiskManager(pl.Disk, cfg.PageSize)
	// Durable log: one shard per socket when the machine shards its log
	// (per-socket managers or hardware engine shards, each on its own
	// device), otherwise the classic single central stream — structurally
	// identical to the pre-sharding engine.
	e.sharded = cfg.ShardedLog()
	nShards := 1
	if e.sharded {
		nShards = pl.NumSockets()
	}
	shards := make([]wal.LogShard, nShards)
	for s := 0; s < nShards; s++ {
		st := wal.NewStore(pl.LogSSD(s))
		var app wal.Appender
		if off.Log {
			var hw *logengine.Engine
			if e.sharded {
				hw = logengine.NewShard(pl, st, logengine.DefaultConfig(), s)
			} else {
				hw = logengine.New(pl, st, logengine.DefaultConfig())
			}
			e.hwLogs = append(e.hwLogs, hw)
			app = hw
		} else {
			m := wal.NewManager(pl, st, wal.DefaultManagerConfig())
			e.logMgrs = append(e.logMgrs, m)
			app = m
		}
		shards[s] = wal.LogShard{App: app, Store: st, Socket: s}
	}
	e.logSet = wal.NewLogSet(pl, shards)
	if cfg.Replicated() {
		e.logSet.AttachReplication(wal.NewReplicaSet(e.logSet))
	}
	e.tm = txn.NewManager(env, e.logSet, txn.DefaultConfig())

	if off.Overlay || off.Tree {
		e.probe = treeprobe.New(pl, treeprobe.DefaultConfig())
	}
	if off.Overlay {
		e.ov = overlay.New(pl, e.probe, overlay.DefaultConfig())
		for _, def := range tables {
			e.defs[def.ID] = def
			e.ov.CreateTable(def.ID, def.Order)
		}
	} else {
		e.pool = bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(1<<18, cfg.PageSize))
		e.trees = make(map[uint16]*btree.Tree)
		for _, def := range tables {
			def := def
			e.defs[def.ID] = def
			e.trees[def.ID] = btree.New(btree.Config{
				Order:  def.Order,
				NextID: e.dm.Allocate,
				AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocHost(cfg.PageSize) },
			})
		}
	}

	if off.Queue {
		e.qeng = queueengine.New(pl, queueengine.DefaultConfig())
	}
	// Partition placement: round-robin over the flat core list, which
	// blocks consecutive partitions onto consecutive sockets (cores are
	// listed socket 0 first). With partitions == total cores, partition i
	// owns core i and socket i/CoresPerSocket — the shard layout the
	// cross-shard commit path and the scaling sweep assume.
	for i := 0; i < scheme.Partitions; i++ {
		core := pl.Cores[i%len(pl.Cores)]
		pt := dora.NewPartition(pl, e.reg, i, core, dora.DefaultCosts(), window, e.bd)
		if e.qeng != nil {
			pt.HWQueue = e.qeng.Unit
			pt.HWQueueCycles = e.qeng.OpCycles()
		}
		pt.Start()
		e.parts = append(e.parts, pt)
	}
	return e
}

// Name implements Engine.
func (e *DORAEngine) Name() string { return e.name }

// Platform implements Engine.
func (e *DORAEngine) Platform() *platform.Platform { return e.pl }

// Breakdown implements Engine.
func (e *DORAEngine) Breakdown() *stats.Breakdown { return e.bd }

// Counters implements Engine.
func (e *DORAEngine) Counters() *stats.Counter { return e.ctr }

// Offloads reports the enabled hardware units.
func (e *DORAEngine) Offloads() Offloads { return e.off }

// Overlay exposes the overlay store (nil when the offload is off).
func (e *DORAEngine) Overlay() *overlay.Store { return e.ov }

// ProbeEngine exposes the tree-probe unit (nil when unused).
func (e *DORAEngine) ProbeEngine() *treeprobe.Engine { return e.probe }

// LogSet implements Engine.
func (e *DORAEngine) LogSet() *wal.LogSet { return e.logSet }

// LogStats reports per-shard log activity (bytes, syncs, epochs); the
// benchmark's crash harness windows it.
func (e *DORAEngine) LogStats() []stats.LogShardStats { return e.logSet.Stats() }

// DiskManager implements Engine.
func (e *DORAEngine) DiskManager() *storage.DiskManager { return e.dm }

// Tables implements Engine: the overlay's trees or the host trees.
func (e *DORAEngine) Tables() map[uint16]*btree.Tree {
	if e.ov == nil {
		return e.trees
	}
	out := make(map[uint16]*btree.Tree, len(e.defs))
	for id := range e.defs {
		out[id] = e.ov.TableByID(id).Tree
	}
	return out
}

// TableSets is Tables as the one-element slice CheckpointAllSets and
// ContentDigestSets take.
func (e *DORAEngine) TableSets() []map[uint16]*btree.Tree {
	return []map[uint16]*btree.Tree{e.Tables()}
}

// Registry exposes the waits-for registry (deadlock statistics).
func (e *DORAEngine) Registry() *dora.Registry { return e.reg }

// Warm implements Engine: every tree page becomes buffer-pool resident on
// the software data path; the overlay is resident by construction.
func (e *DORAEngine) Warm() {
	if e.pool == nil {
		return
	}
	for _, id := range sortedKeys(e.trees) {
		e.trees[id].Pages(func(id storage.PageID, leaf bool) { e.pool.Prewarm(id) })
	}
}

// sortedKeys returns a map's keys in ascending order. Simulation-visible
// iteration must never follow Go's randomized map order: the event
// schedule it produces has to be a pure function of the seed, or runs stop
// being reproducible and parallel sweeps stop matching serial ones.
func sortedKeys[K interface {
	~int | ~uint16 | ~uint64
}, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Load implements Engine.
func (e *DORAEngine) Load(table uint16, key, val []byte) {
	if e.ov != nil {
		e.ov.LoadRaw(table, key, val)
		return
	}
	e.trees[table].Put(key, val, nil)
}

// ReadRaw implements Engine.
func (e *DORAEngine) ReadRaw(table uint16, key []byte) ([]byte, bool) {
	return e.Tables()[table].Get(key, nil)
}

// ScanRaw implements Engine.
func (e *DORAEngine) ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	e.Tables()[table].Scan(from, to, nil, fn)
}

// Close implements Engine.
func (e *DORAEngine) Close() {
	for _, pt := range e.parts {
		pt.Close()
	}
	for _, m := range e.logMgrs {
		m.Stop()
	}
	for _, hw := range e.hwLogs {
		hw.Stop()
	}
	if rs := e.logSet.Replication(); rs != nil {
		rs.Stop()
	}
	if e.ov != nil {
		e.ov.Stop()
	}
}

// Submit implements Engine.
func (e *DORAEngine) Submit(term *Terminal, logic TxnLogic) bool {
	term.Ph = [stats.NumPhases]sim.Duration{}
	start := term.P.Now()
	committed, txid := e.submit(term, logic)
	if end := term.P.Now(); end > start {
		term.Rec.Record(obs.Span{Start: start, End: end, Kind: obs.KindSubmit,
			Socket: int32(term.Core.SocketID()), Txn: txid})
	}
	return committed
}

func (e *DORAEngine) submit(term *Terminal, logic TxnLogic) (bool, uint64) {
	ctr := e.ctr
	dtx := e.frame(term)
	task, tx := dtx.task, &dtx.tx
	for term.Retries = 0; ; term.Retries++ {
		task.Reset()
		task.Exec(stats.CompFrontEnd, frontEndInstr)
		e.tm.BeginIn(task, tx)
		dtx.involved, dtx.refused = dtx.involved[:0], false
		// The previous attempt's fan-outs have all fired their RVP and
		// BeginIn dropped its undo list, the last holder of its keys.
		dtx.arena.Reset()
		for _, s := range dtx.slots {
			s.arena.Reset()
		}
		ok := logic(dtx)
		if dtx.refused {
			e.rollback(term, task, dtx)
			ctr.Inc("aborts.deadlock", 1)
			if term.Retries < maxRetries {
				continue
			}
			ctr.Inc("aborts.giveup", 1)
			return false, tx.ID
		}
		if !ok {
			e.rollback(term, task, dtx)
			ctr.Inc("aborts.user", 1)
			return false, tx.ID
		}
		sig := dtx.commit
		e.tm.CommitTo(task, tx, sig)
		task.Flush()
		// Sharded log, cross-shard write set: the decision round must not
		// acknowledge (and locks must not release) before the vector
		// durable point. With per-shard streams there is no global LSN
		// ordering dependent commits across sockets, so a remote shard's
		// entity locks anchor the ordering instead: they hold until every
		// shard of this transaction's vector is durable, and only then
		// does the decision broadcast let dependents proceed. Transactions
		// whose writes stay on one shard keep the early-release fast path
		// — same-shard group commit orders their dependents for free.
		tDur0 := term.P.Now()
		if e.sharded && len(tx.Shards) > 1 {
			sig.Await(term.P)
		}
		tCross0 := term.P.Now()
		e.crossShardDecision(term, task, dtx, true)
		tCross1 := term.P.Now()
		e.releaseLocks(task, dtx)
		tWait0 := term.P.Now()
		sig.Await(term.P)
		sig.Reset() // that was its last observer: armed for the next commit
		tWait1 := term.P.Now()
		soc := int32(term.Core.SocketID())
		if tCross0 > tDur0 {
			term.Ph[stats.PhaseDur] += tCross0.Sub(tDur0)
			term.Rec.Record(obs.Span{Start: tDur0, End: tCross0, Kind: obs.KindDurability, Socket: soc, Txn: tx.ID})
		}
		if tCross1 > tCross0 {
			term.Ph[stats.PhaseCross] += tCross1.Sub(tCross0)
			term.Rec.Record(obs.Span{Start: tCross0, End: tCross1, Kind: obs.KindCross, Socket: soc, Txn: tx.ID})
		}
		if tWait1 > tWait0 {
			term.Ph[stats.PhaseDur] += tWait1.Sub(tWait0)
			term.Rec.Record(obs.Span{Start: tWait0, End: tWait1, Kind: obs.KindDurability, Socket: soc, Txn: tx.ID})
		}
		ctr.Inc("commits", 1)
		return true, tx.ID
	}
}

// frame returns term's transaction frame on this engine, building it on the
// terminal's first Submit here.
func (e *DORAEngine) frame(term *Terminal) *doraTx {
	if f := term.dora; f != nil && f.e == e {
		return f
	}
	term.dora = &doraTx{e: e, term: term, task: e.pl.NewTask(term.P, term.Core, e.bd),
		commit: sim.NewSignal(e.pl.Env)}
	return term.dora
}

// crossShardSockets returns the distinct sockets of the transaction's
// involved partitions when they span more than one — a genuinely
// cross-shard transaction. Single-socket transactions (including every
// transaction on a single-socket platform) return nil: they pay nothing.
func (e *DORAEngine) crossShardSockets(dtx *doraTx) []int {
	if e.pl.IC == nil {
		return nil
	}
	sockets := dtx.sockets[:0]
	for _, pidx := range dtx.involved {
		s := e.parts[pidx].Socket()
		found := false
		for _, v := range sockets {
			if v == s {
				found = true
				break
			}
		}
		if !found {
			sockets = append(sockets, s) // involved is sorted, so this order is deterministic
		}
	}
	dtx.sockets = sockets
	if len(sockets) < 2 {
		return nil
	}
	return sockets
}

// crossShardDecision is the decision phase of the RVP-based cross-shard
// commit protocol. The prepare votes were already collected by the phase
// RVPs (every action voted before the coordinator reached this point), so
// what remains of two-phase commit is the decision broadcast: the
// coordinator sends the outcome to one representative partition per
// involved socket other than its own and awaits their acknowledgements
// through one more RVP before any entity lock is released. Transactions
// confined to one socket skip all of it.
func (e *DORAEngine) crossShardDecision(term *Terminal, task *platform.Task, dtx *doraTx, commit bool) {
	sockets := e.crossShardSockets(dtx)
	if sockets == nil {
		return
	}
	home := term.Core.SocketID()
	reps := dtx.reps[:0] // one involved partition per remote socket, in involved order
	for _, s := range sockets {
		if s == home {
			continue
		}
		for _, pidx := range dtx.involved {
			if e.parts[pidx].Socket() == s {
				reps = append(reps, pidx)
				break
			}
		}
	}
	dtx.reps = reps
	if commit {
		e.ctr.Inc("crossshard.commits", 1)
	} else {
		e.ctr.Inc("crossshard.aborts", 1)
	}
	if len(reps) == 0 {
		return // every involved socket is the coordinator's own
	}
	rvp := dtx.arm(len(reps))
	for i, pidx := range reps {
		dtx.send(i, pidx, dora.Entity{}, true, applyDecision)
	}
	task.Flush()
	rvp.Await(term.P)
}

// decisionApplyInstr is the shard-side cost of recording a cross-shard
// commit/abort decision.
const decisionApplyInstr = 120

// applyDecision is the body of a decision action: mark the outcome in the
// shard-local transaction table (a constant bookkeeping charge).
func applyDecision(c AccessCtx) bool {
	c.(*doraCtx).task.Exec(stats.CompDora, decisionApplyInstr)
	return true
}

// rollback routes undo records back to their owning partitions (reverse
// order within each), appends the abort record, and releases entity locks.
func (e *DORAEngine) rollback(term *Terminal, task *platform.Task, dtx *doraTx) {
	undo := dtx.tx.Undo
	if len(undo) > 0 {
		groups := make(map[int][]txn.UndoRec)
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			pidx := e.scheme.Route(u.Table, u.Key)
			groups[pidx] = append(groups[pidx], u)
		}
		rvp := dtx.arm(len(groups))
		for i, pidx := range sortedKeys(groups) {
			recs := groups[pidx]
			dtx.send(i, pidx, dora.Entity{}, true, func(c AccessCtx) bool {
				wc := c.(*doraCtx)
				for _, u := range recs {
					e.applyUndoRaw(wc.task, u)
				}
				return true
			})
		}
		task.Flush()
		rvp.Await(term.P)
	}
	e.tm.Abort(task, &dtx.tx, func(u txn.UndoRec) {}) // undo already applied above
	task.Flush()
	// Cross-shard transactions broadcast the abort decision and collect
	// acks before locks release, mirroring the commit path.
	e.crossShardDecision(term, task, dtx, false)
	e.releaseLocks(task, dtx)
}

// releaseLocks sends fire-and-forget release messages (nobody awaits them)
// to every involved partition, in partition order.
func (e *DORAEngine) releaseLocks(task *platform.Task, dtx *doraTx) {
	for _, pidx := range dtx.involved {
		e.parts[pidx].Release(task, dtx.tx.ID)
	}
	task.Flush()
}

// applyUndoRaw reverses one operation without logging, charged on the
// partition worker.
func (e *DORAEngine) applyUndoRaw(task *platform.Task, u txn.UndoRec) {
	if e.ov != nil {
		switch u.Type {
		case wal.RecInsert:
			e.ov.Delete(task, u.Table, u.Key)
		case wal.RecUpdate, wal.RecDelete:
			e.ov.Put(task, u.Table, u.Key, u.Before)
		}
		return
	}
	tree := e.trees[u.Table]
	tr := e.traces.Get()
	switch u.Type {
	case wal.RecInsert:
		tree.Delete(u.Key, tr)
	case wal.RecUpdate, wal.RecDelete:
		tree.Put(u.Key, u.Before, tr)
	}
	e.chargeVisits(task, tr, true)
	e.traces.Put(tr)
}

// chargeVisits is the software data path (no page latches — PLP): a
// buffer-pool fix plus the node search per visit. A binary search over a
// wide node touches several cache lines, one per probe pair.
func (e *DORAEngine) chargeVisits(task *platform.Task, tr *btree.Trace, write bool) {
	for _, v := range tr.Visits {
		e.pool.Fix(task, v.ID)
		task.Access(stats.CompBtree, v.Addr, 64)
		for i := 1; i < (v.Cmps+1)/2; i++ {
			task.Access(stats.CompBtree, v.Addr+uint64(64*i), 16)
		}
		task.Exec(stats.CompBtree, 60+14*v.Cmps)
		if v.Leaf {
			// Record locate/copy and slot bookkeeping at the leaf.
			task.Exec(stats.CompBtree, 110)
		}
		e.pool.Unfix(task, v.ID, write && v.Leaf)
	}
	for _, id := range tr.NewPages {
		// Pages born by splits enter the pool without I/O.
		e.pool.Prewarm(id)
	}
	if tr.Splits > 0 {
		task.Exec(stats.CompBtree, 1500*tr.Splits)
	}
	if tr.Merges+tr.Borrows > 0 {
		task.Exec(stats.CompBtree, 900*(tr.Merges+tr.Borrows))
	}
}

// swProbeFPGA is the Tree-off/Overlay-on ablation read path: the CPU walks
// a tree whose nodes live in SG-DRAM, paying a PCIe round trip per node —
// the paper's warning that the units only pay off co-designed.
func (e *DORAEngine) swProbeFPGA(task *platform.Task, tr *btree.Trace) {
	for _, v := range tr.Visits {
		task.Exec(stats.CompBtree, 40+8*v.Cmps)
		sc := task.Script()
		e.pl.PCIe.AddTransfer(sc, 64)
		e.pl.PCIe.AddTransfer(sc, v.Bytes)
		sc.Run()
	}
}

// hwProbeHost is the Tree-on/Overlay-off ablation read path: the probe
// engine walks host-resident nodes, paying the PCIe NUMA penalty per node
// instead of local SG-DRAM.
func (e *DORAEngine) hwProbeHost(task *platform.Task, tr *btree.Trace) {
	task.Exec(stats.CompBtree, 80)
	sc := task.Script()
	e.pl.PCIe.AddTransfer(sc, 64)
	for _, v := range tr.Visits {
		e.pl.PCIe.AddTransfer(sc, 64)
		e.pl.PCIe.AddTransfer(sc, v.Bytes)
	}
	e.pl.PCIe.AddTransfer(sc, 64)
	sc.Run()
	task.Exec(stats.CompBtree, 60)
}

// doraTx coordinates one transaction's phases from the terminal process. It
// is the terminal's transaction frame on this engine: built on the
// terminal's first Submit and re-armed per attempt, it owns every object an
// attempt hands to the partitions, the log and the kernel — the task, the
// transaction, the rendezvous, the action slots, the commit signal — because
// a terminal runs one transaction at a time and each of those objects has
// been awaited, voted on or fired before Submit returns. The one rule (see
// DESIGN.md, "Pools above the kernel"): only the terminal's process re-arms
// them, and only after the kernel edge that orders their last foreign use.
type doraTx struct {
	e        *DORAEngine
	term     *Terminal
	task     *platform.Task
	tx       txn.Txn
	involved []int // partitions touched, kept sorted and unique
	refused  bool

	// commit is re-armed when Submit's final Await on it returns; rvp (built
	// by arm) when the next fan-out starts, its Await having returned; a
	// slot when the fan-out it served has fired rvp (the partition's last
	// touch of an action precedes its Arrive). sockets and reps are
	// crossShardDecision's scratch. arena holds the keys the logic builds
	// (Action.Key, keys it hands to bodies) and a slot's arena the keys its
	// body builds; submit resets them all when the next attempt starts, the
	// undo list that held some of them dropped.
	commit  *sim.Signal
	rvp     *dora.RVP
	slots   []*actionSlot
	sockets []int
	reps    []int
	arena   storage.Arena
}

// Arena implements Tx.
func (t *doraTx) Arena() *storage.Arena { return &t.arena }

// actionSlot is one reusable action of a fan-out: the dora.Action that
// travels to the partition, the AccessCtx its body runs against, the arena
// the body builds its keys in (the actions of one fan-out run on different
// partitions, interleaved, so they cannot share one). da.Run is bound to run
// once, when the slot is built.
type actionSlot struct {
	da    dora.Action
	ctx   doraCtx
	arena storage.Arena
	body  func(c AccessCtx) bool
}

func (s *actionSlot) run(wt *platform.Task, pt *dora.Partition) bool {
	s.ctx.task = wt
	return s.body(&s.ctx)
}

// arm readies the frame's rendezvous for a fan-out of n actions.
func (t *doraTx) arm(n int) *dora.RVP {
	if t.rvp == nil {
		t.rvp = dora.NewRVP(t.e.pl.Env, n)
	} else {
		t.rvp.Reset(n)
	}
	return t.rvp
}

// send arms slot i as one action of the fan-out arm readied and enqueues it
// on partition pidx, charging the coordinator's task.
func (t *doraTx) send(i, pidx int, lockKey dora.Entity, priority bool, body func(c AccessCtx) bool) {
	for len(t.slots) <= i {
		s := &actionSlot{}
		s.da.Run = s.run
		t.slots = append(t.slots, s)
	}
	e, s := t.e, t.slots[i]
	s.body = body
	s.ctx = doraCtx{e: e, tx: &t.tx, arena: &s.arena}
	s.da = dora.Action{
		TxnID:       t.tx.ID,
		LockKey:     lockKey,
		RVP:         t.rvp,
		ReplySocket: t.term.Core.SocketID(),
		Priority:    priority,
		Run:         s.da.Run,
	}
	e.parts[pidx].Enqueue(t.task, &s.da)
}

// involve records pidx in the sorted involved set. Releases iterate this
// set, so its order must be a pure function of the partitions touched —
// sorted insertion keeps it identical to the map+sort it replaces without
// the per-transaction map allocation.
func (t *doraTx) involve(pidx int) {
	for i, v := range t.involved {
		if v == pidx {
			return
		}
		if v > pidx {
			t.involved = append(t.involved, 0)
			copy(t.involved[i+1:], t.involved[i:])
			t.involved[i] = pidx
			return
		}
	}
	t.involved = append(t.involved, pidx)
}

// Phase implements Tx: fan the actions out to their partitions and await
// the rendezvous.
func (t *doraTx) Phase(actions ...Action) bool {
	if len(actions) == 0 {
		return true
	}
	e := t.e
	rvp := t.arm(len(actions))
	for i, a := range actions {
		pidx := e.scheme.Route(a.Table, a.Key)
		t.involve(pidx)
		var lockKey dora.Entity
		if !a.NoLock {
			lockKey = e.scheme.Entity(a.Table, a.Key)
		}
		t.send(i, pidx, lockKey, false, a.Body)
	}
	t.task.Flush()
	ok := rvp.Await(t.term.P)
	// The actions are all complete: fold the partition-side stamps into the
	// transaction's anatomy.
	for _, s := range t.slots[:len(actions)] {
		t.term.Ph[stats.PhaseQueue] += s.da.QueueWait
		t.term.Ph[stats.PhaseLock] += s.da.LockWait
		t.term.Ph[stats.PhaseExec] += s.da.ExecTime
		if s.da.Refused {
			t.refused = true
		}
	}
	return ok
}

// doraCtx is the partition-side AccessCtx. No hierarchical locks, no page
// latches: isolation came from routing plus the entity lock already held.
type doraCtx struct {
	e    *DORAEngine
	task *platform.Task
	tx   *txn.Txn

	arena *storage.Arena // the action slot's
}

// Arena implements AccessCtx.
func (c *doraCtx) Arena() *storage.Arena { return c.arena }

// Read implements AccessCtx.
func (c *doraCtx) Read(table uint16, key []byte) ([]byte, bool) {
	e := c.e
	switch {
	case e.off.Overlay && e.off.Tree:
		return e.ov.Get(c.task, table, key)
	case e.off.Overlay:
		tr := e.traces.Get()
		val, ok := e.ov.TableByID(table).Tree.Get(key, tr)
		e.swProbeFPGA(c.task, tr)
		e.traces.Put(tr)
		return val, ok
	case e.off.Tree:
		tr := e.traces.Get()
		val, ok := e.trees[table].Get(key, tr)
		e.hwProbeHost(c.task, tr)
		e.traces.Put(tr)
		return val, ok
	default:
		tr := e.traces.Get()
		val, ok := e.trees[table].Get(key, tr)
		e.chargeVisits(c.task, tr, false)
		e.traces.Put(tr)
		return val, ok
	}
}

// ReadForUpdate implements AccessCtx: the entity lock the action runs under
// is already exclusive, so there is nothing to strengthen.
func (c *doraCtx) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	return c.Read(table, key)
}

// Update implements AccessCtx.
func (c *doraCtx) Update(table uint16, key, val []byte) bool {
	e := c.e
	if e.off.Overlay {
		prev, existed := e.ov.Put(c.task, table, key, val)
		if !existed {
			e.ov.Delete(c.task, table, key)
			return false
		}
		e.tm.LogUpdate(c.task, c.tx, table, key, prev, val)
		return true
	}
	tr := e.traces.Get()
	tree := e.trees[table]
	prev, existed := tree.Put(key, val, tr)
	e.chargeVisits(c.task, tr, true)
	e.traces.Put(tr)
	if !existed {
		tree.Delete(key, nil)
		return false
	}
	e.tm.LogUpdate(c.task, c.tx, table, key, prev, val)
	return true
}

// Insert implements AccessCtx.
func (c *doraCtx) Insert(table uint16, key, val []byte) bool {
	e := c.e
	if e.off.Overlay {
		prev, existed := e.ov.Put(c.task, table, key, val)
		if existed {
			e.ov.Put(c.task, table, key, prev)
			return false
		}
		e.tm.LogInsert(c.task, c.tx, table, key, val)
		return true
	}
	tr := e.traces.Get()
	tree := e.trees[table]
	prev, existed := tree.Put(key, val, tr)
	e.chargeVisits(c.task, tr, true)
	e.traces.Put(tr)
	if existed {
		tree.Put(key, prev, nil)
		return false
	}
	e.tm.LogInsert(c.task, c.tx, table, key, val)
	return true
}

// Delete implements AccessCtx.
func (c *doraCtx) Delete(table uint16, key []byte) bool {
	e := c.e
	if e.off.Overlay {
		val, ok := e.ov.Delete(c.task, table, key)
		if !ok {
			return false
		}
		e.tm.LogDelete(c.task, c.tx, table, key, val)
		return true
	}
	tr := e.traces.Get()
	val, ok := e.trees[table].Delete(key, tr)
	e.chargeVisits(c.task, tr, true)
	e.traces.Put(tr)
	if !ok {
		return false
	}
	e.tm.LogDelete(c.task, c.tx, table, key, val)
	return true
}

// Scan implements AccessCtx.
func (c *doraCtx) Scan(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	e := c.e
	if e.off.Overlay {
		e.ov.ScanRange(c.task, table, from, to, fn)
		return
	}
	tr := e.traces.Get()
	rows := e.kvs.Get()
	defer func() { e.kvs.Put(rows) }()
	e.trees[table].Scan(from, to, tr, func(k, v []byte) bool {
		rows = append(rows, kvPair{k, v})
		return true
	})
	e.chargeVisits(c.task, tr, false)
	e.traces.Put(tr)
	for _, r := range rows {
		c.task.Exec(stats.CompBtree, 20)
		if !fn(r.k, r.v) {
			return
		}
	}
}

// Partitions exposes the partition set (diagnostics).
func (e *DORAEngine) Partitions() []*dora.Partition { return e.parts }

// SetRecorder attaches the flight recorder to every layer this engine
// owns: the partitions (queue-wait, lock-wait, action and flow-edge spans)
// and the overlay merge daemon. Host-side only; Run calls it after Open,
// before any event runs. It is one of Engine's two optional capabilities.
func (e *DORAEngine) SetRecorder(rec *obs.Recorder) {
	for _, pt := range e.parts {
		pt.SetRecorder(rec)
	}
	if e.ov != nil {
		e.ov.SetRecorder(rec.Shard(0))
	}
}

// ObsGauges implements Engine: partition input-queue depth and deferred
// actions summed over the socket's partitions, the socket's log-shard flush
// backlog, and (socket 0, where replication lives) the worst replica lag.
func (e *DORAEngine) ObsGauges(socket int) obs.Gauges {
	var g obs.Gauges
	for _, pt := range e.parts {
		if pt.Socket() != socket {
			continue
		}
		g.QueueDepth += pt.QueueLen()
		g.Deferred += pt.DeferredActions()
	}
	if e.sharded {
		g.LogBacklog = e.logSet.Backlog(socket)
	} else if socket == 0 {
		g.LogBacklog = e.logSet.Backlog(0)
	}
	if socket == 0 {
		if rs := e.logSet.Replication(); rs != nil {
			g.ReplLag = rs.CurLagBytes()
		}
	}
	return g
}
