package core

import (
	"slices"

	"bionicdb/internal/btree"
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
	engineBase // over host trees behind the buffer pool, or the overlay

	name   string
	scheme PartitionScheme
	parts  []*dora.Partition
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
	if window < 1 {
		window = 8
	}
	return newDataOriented(env, cfg, tables, scheme, off, window, "bionic["+off.String()+"]")
}

func newDataOriented(env *sim.Env, cfg *platform.Config, tables []TableDef, scheme PartitionScheme, off Offloads, window int, name string) *DORAEngine {
	e := &DORAEngine{engineBase: newEngineBase(env, cfg), name: name, scheme: scheme}
	pl := e.pl
	// Durable log: one shard per socket when the machine shards its log
	// (per-socket managers or hardware engine shards, each on its own
	// device), otherwise the classic single central stream — structurally
	// identical to the pre-sharding engine.
	sharded := cfg.ShardedLog()
	nShards := 1
	if sharded {
		nShards = pl.NumSockets()
	}
	shards := make([]wal.LogShard, nShards)
	for s := 0; s < nShards; s++ {
		st := wal.NewStore(pl.LogSSD(s))
		var app wal.Appender
		switch {
		case off.Log && sharded:
			app = logengine.NewShard(pl, st, logengine.DefaultConfig(), s)
		case off.Log:
			app = logengine.New(pl, st, logengine.DefaultConfig())
		default:
			app = wal.NewManager(pl, st, wal.DefaultManagerConfig())
		}
		shards[s] = wal.LogShard{App: app, Store: st, Socket: s}
	}
	e.logSet, e.tm = newLog(pl, shards)

	if off.Overlay {
		e.rowStore = newOverlayRows(overlay.New(pl, treeprobe.New(pl, treeprobe.DefaultConfig()), overlay.DefaultConfig()), tables)
	} else {
		e.rowStore = newHostRows(pl, e.dm, newBufferPool(pl), tables, 0)
	}

	var qeng *queueengine.Engine
	if off.Queue {
		qeng = queueengine.New(pl, queueengine.DefaultConfig())
	}
	// Partition placement: round-robin over the flat core list, which
	// blocks consecutive partitions onto consecutive sockets (cores are
	// listed socket 0 first). With partitions == total cores, partition i
	// owns core i and socket i/CoresPerSocket — the shard layout the
	// cross-shard commit path and the scaling sweep assume.
	reg := dora.NewRegistry()
	for i := 0; i < scheme.Partitions; i++ {
		core := pl.Cores[i%len(pl.Cores)]
		pt := dora.NewPartition(pl, reg, i, core, dora.DefaultCosts(), window, e.bd)
		if qeng != nil {
			pt.HWQueue = qeng.Unit
			pt.HWQueueCycles = qeng.OpCycles()
		}
		pt.Start()
		e.parts = append(e.parts, pt)
	}
	return e
}

// Name implements Engine.
func (e *DORAEngine) Name() string { return e.name }

// Overlay exposes the overlay store (nil when the offload is off).
func (e *DORAEngine) Overlay() *overlay.Store { return e.ov }

// LogStats reports per-shard log activity (bytes, syncs, epochs); the
// benchmark's crash harness windows it.
func (e *DORAEngine) LogStats() []stats.LogShardStats { return e.logSet.Stats() }

// TableSets is Tables as the one-element slice CheckpointAllSets and
// ContentDigestSets take.
func (e *DORAEngine) TableSets() []map[uint16]*btree.Tree {
	return []map[uint16]*btree.Tree{e.Tables()}
}

// Close implements Engine.
func (e *DORAEngine) Close() {
	for _, pt := range e.parts {
		pt.Close()
	}
	e.logSet.Stop()
	if e.ov != nil {
		e.ov.Stop()
	}
}

// Submit implements Engine.
func (e *DORAEngine) Submit(term *Terminal, logic TxnLogic) bool {
	t, ok := term.fr.(*doraTx)
	if !ok || t.e != e {
		t = &doraTx{e: e, term: term, task: e.pl.NewTask(term.P, term.Core, e.bd),
			commitSig: sim.NewSignal(e.pl.Env)}
		term.fr = t
	}
	return submit(term, &e.engineBase, t, logic)
}

func (t *doraTx) state() (*platform.Task, *txn.Txn) { return t.task, &t.tx }

func (t *doraTx) run(logic TxnLogic) (ok, refused bool) {
	t.involved, t.refused = t.involved[:0], false
	// The previous attempt's fan-outs have all fired their RVP and BeginIn
	// dropped its undo list, the last holder of its keys.
	t.arena.Reset()
	for _, s := range t.slots {
		s.arena.Reset()
	}
	ok = logic(t)
	return ok, t.refused
}

func (t *doraTx) commit() {
	t.e.tm.CommitTo(t.task, &t.tx, t.commitSig)
	// Cross-shard write set (only a sharded log gives the vector more
	// than one entry): the decision round must not acknowledge (and
	// locks must not release) before the vector durable point. With
	// per-shard streams there is no global LSN ordering dependent
	// commits across sockets, so a remote shard's entity locks anchor
	// the ordering instead: they hold until every shard of this
	// transaction's vector is durable, and only then does the decision
	// broadcast let dependents proceed. Transactions whose writes stay
	// on one shard keep the early-release fast path — same-shard group
	// commit orders their dependents for free.
	t.tail(true)
}

// stampCommit folds a commit's phases into the terminal's anatomy and trace
// once its signal has fired, at now: the wait for a cross-shard write set's
// vector durable point, the decision round, and the wait for the signal.
// The chain takes each edge at its instant (edges).
func (t *doraTx) stampCommit(now sim.Time) {
	term := t.term
	soc := int32(term.Core.SocketID())
	for _, ph := range [...]struct {
		ph       stats.Phase
		kind     obs.Kind
		from, to sim.Time
	}{
		{stats.PhaseDur, obs.KindDurability, t.edges[0], t.edges[1]},
		{stats.PhaseCross, obs.KindCross, t.edges[1], t.edges[2]},
		{stats.PhaseDur, obs.KindDurability, t.edges[3], now},
	} {
		if ph.to > ph.from {
			term.Ph[ph.ph] += ph.to.Sub(ph.from)
			term.Rec.Record(obs.Span{Start: ph.from, End: ph.to, Kind: ph.kind, Socket: soc, Txn: t.tx.ID})
		}
	}
}

// tail runs what follows a commit's CommitTo or a rollback's Abort as one
// chain (Continue): the flush; for a commit with a cross-shard write set the
// wait for the vector durable point; the cross-shard decision round; the
// release messages to every involved partition and the flush; and for a
// commit the wait for the commit signal, which it then re-arms and stamps
// (stampCommit).
func (t *doraTx) tail(commit bool) {
	t.committing, t.pc = commit, coFlush
	t.task.RunChain(t)
}

// crossShardSockets returns the distinct sockets of the transaction's
// involved partitions when they span more than one — a genuinely
// cross-shard transaction. Single-socket transactions (including every
// transaction on a single-socket platform) return nil: they pay nothing.
func (t *doraTx) crossShardSockets() []int {
	if t.e.pl.IC == nil {
		return nil
	}
	sockets := t.sockets[:0]
	for _, pidx := range t.involved {
		if s := t.e.parts[pidx].Socket(); !slices.Contains(sockets, s) {
			sockets = append(sockets, s) // involved is sorted, so this order is deterministic
		}
	}
	t.sockets = sockets
	if len(sockets) < 2 {
		return nil
	}
	return sockets
}

// crossShardReps arms the decision phase of the RVP-based cross-shard
// commit protocol and returns its fan-out's size. The prepare votes were
// already collected by the phase RVPs (every action voted before the
// coordinator reached this point), so what remains of two-phase commit is
// the decision broadcast: the coordinator sends the outcome to one
// representative partition per involved socket other than its own and
// awaits their acknowledgements through one more RVP before any entity lock
// is released. Transactions confined to one socket skip all of it.
func (t *doraTx) crossShardReps(commit bool) int {
	e := t.e
	sockets := t.crossShardSockets()
	if sockets == nil {
		return 0
	}
	home := t.term.Core.SocketID()
	n := len(sockets) // one representative per remote socket
	if slices.Contains(sockets, home) {
		n--
	}
	if commit {
		e.ctr.Inc("crossshard.commits", 1)
	} else {
		e.ctr.Inc("crossshard.aborts", 1)
	}
	if n == 0 {
		return 0 // every involved socket is the coordinator's own
	}
	t.arm(n)
	i := 0
	for _, s := range sockets {
		if s == home {
			continue
		}
		// The socket's first involved partition, in involved order.
		for _, pidx := range t.involved {
			if e.parts[pidx].Socket() == s {
				t.slot(i, pidx, dora.Entity{}, true, applyDecision, nil)
				i++
				break
			}
		}
	}
	return n
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

// rollback routes undo records back to their owning partitions — in
// ascending partition order, in reverse record order within each — appends
// the abort record, and releases entity locks. The routed records live in
// the frame's undo scratch, which the fan-out has finished reading when its
// rendezvous returns.
func (t *doraTx) rollback() {
	e := t.e
	if n := len(t.tx.Undo); n > 0 {
		routed := t.undo[:0]
		for i := n - 1; i >= 0; i-- {
			u := t.tx.Undo[i]
			routed = append(routed, routedUndo{pidx: e.scheme.Route(u.Table, u.Key), u: u})
		}
		// Stable, so each partition keeps its records in reverse order.
		slices.SortStableFunc(routed, func(a, b routedUndo) int { return a.pidx - b.pidx })
		t.undo = routed
		groups := 1
		for i := 1; i < len(routed); i++ {
			if routed[i].pidx != routed[i-1].pidx {
				groups++
			}
		}
		t.arm(groups)
		for g, lo := 0, 0; lo < len(routed); g++ {
			hi := lo + 1
			for hi < len(routed) && routed[hi].pidx == routed[lo].pidx {
				hi++
			}
			t.slot(g, routed[lo].pidx, dora.Entity{}, true, applyUndo, routed[lo:hi])
			lo = hi
		}
		t.fanOut(groups)
	}
	e.tm.Abort(t.task, &t.tx, func(u txn.UndoRec) {}) // undo already applied above
	// Cross-shard transactions broadcast the abort decision and collect
	// acks before locks release, mirroring the commit path.
	t.tail(false)
}

// routedUndo is one undo record and the partition that owns its row.
type routedUndo struct {
	pidx int
	u    txn.UndoRec
}

// applyUndo is the body of a rollback action: reverse the partition's share
// of the undo records, in the order rollback routed them.
func applyUndo(c AccessCtx) bool {
	wc := c.(*doraCtx)
	for _, r := range wc.undo {
		wc.rows.applyUndoRaw(wc.task, r.u)
	}
	return true
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

	// The coordinator's chain (Continue): where it is, what follows the
	// rendezvous of the fan-out it sends, whether the tail it runs is a
	// commit's, and the progress of the enqueue it makes (declared beside
	// refused so that they share its word). n, i, msg and edges below are
	// the chain's too.
	pc         coPC
	after      coPC
	committing bool
	enq        dora.EnqueueOp

	// commitSig is re-armed when commit's final Await on it returns; rvp
	// (built by arm) when the next fan-out starts, its Await having returned;
	// a slot when the fan-out it served has fired rvp (the partition's last
	// touch of an action precedes its Arrive). sockets is the decision
	// round's scratch, undo is rollback's. arena holds the keys
	// the logic builds (Action.Key, keys it hands to bodies) and a slot's
	// arena the keys its body builds; run resets them all when the next
	// attempt starts, the undo list that held some of them dropped.
	commitSig *sim.Signal
	rvp       *dora.RVP
	slots     []*actionSlot
	sockets   []int
	undo      []routedUndo
	arena     storage.Arena

	// The fan-out the chain sends (slots[:n], or a release message to each
	// involved partition), the next one (i), the release message in
	// progress, and the commit tail's edges: when the durability wait, the
	// cross-shard round and the final wait began, and when the round ended.
	n, i  int32
	msg   *dora.Action
	edges [4]sim.Time
}

// Arena implements Tx.
func (t *doraTx) Arena() *storage.Arena { return &t.arena }

// actionSlot is one reusable action of a fan-out: the dora.Action that
// travels to the partition, the partition it travels to, the AccessCtx its body runs against, the arena
// the body builds its keys in (the actions of one fan-out run on different
// partitions, interleaved, so they cannot share one). da.Run is bound to run
// once, when the slot is built.
type actionSlot struct {
	da    dora.Action
	pt    *dora.Partition
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

// slot arms slot i as one action of the fan-out arm readied, bound for
// partition pidx; undo is the records a rollback action reverses.
func (t *doraTx) slot(i, pidx int, lockKey dora.Entity, priority bool, body func(c AccessCtx) bool, undo []routedUndo) {
	for len(t.slots) <= i {
		s := &actionSlot{}
		s.da.Run = s.run
		t.slots = append(t.slots, s)
	}
	e, s := t.e, t.slots[i]
	s.pt = e.parts[pidx]
	s.body = body
	s.ctx = doraCtx{rowTx: rowTx{rows: e.rowStore, tm: e.tm, tx: &t.tx}, arena: &s.arena, undo: undo}
	s.da = dora.Action{
		TxnID:       t.tx.ID,
		LockKey:     lockKey,
		RVP:         t.rvp,
		ReplySocket: t.term.Core.SocketID(),
		Priority:    priority,
		Run:         s.da.Run,
	}
}

// fanOut enqueues slots[:n] on their partitions, charging the coordinator's
// task, and waits at the rendezvous, as one chain: the coordinator parks
// once.
func (t *doraTx) fanOut(n int) {
	t.n, t.i, t.after, t.pc = int32(n), 0, coOver, coSend
	t.task.RunChain(t)
}

// coPC is what the coordinator's chain does next.
type coPC uint8

const (
	coSend      coPC = iota // enqueue slots[i] while i < n, then the flush and the rendezvous
	coVoted                 // the rendezvous has fired: go on to after
	coFlush                 // a tail's first flush
	coDurable               // a commit waits for a cross-shard vector's durable point
	coDecide                // the cross-shard decision round
	coCrossed               // the round is over: the release messages begin
	coRelease               // a release message to involved[i], then the flush
	coAwait                 // a commit waits for its commit signal
	coCommitted             // the signal is re-armed
	coOver
)

// Continue implements sim.Continuation: it runs the coordinator's chain
// until it has appended steps to wait on, then appends itself behind them,
// or until the chain is over. Each enqueue, charge, stamp and await happens
// at the instant the coordinator making the calls one by one would make it.
func (t *doraTx) Continue(sc *sim.Script) {
	for !sc.Pending() {
		if t.step(sc) {
			return
		}
	}
	sc.Then(t)
}

// step does the chain's next thing and reports whether the chain is over.
func (t *doraTx) step(sc *sim.Script) (over bool) {
	task := t.task
	now := task.P.Now()
	switch t.pc {
	case coSend:
		if t.i == t.n {
			task.Flush()
			t.rvp.AddAwait(sc)
			t.pc = coVoted
			return false
		}
		if s := t.slots[t.i]; t.enq.Step(sc, task, s.pt, &s.da) {
			t.i++
		}
	case coVoted:
		t.pc = t.after
	case coFlush:
		task.Flush()
		t.pc = coDecide
		if t.committing {
			t.pc = coDurable
		}
	case coDurable:
		t.edges[0] = now
		if len(t.tx.Shards) > 1 {
			sc.Await(t.commitSig)
		}
		t.pc = coDecide
	case coDecide:
		t.edges[1] = now
		t.pc = coCrossed
		if n := t.crossShardReps(t.committing); n > 0 {
			t.n, t.i, t.after, t.pc = int32(n), 0, coCrossed, coSend
		}
	case coCrossed:
		t.edges[2] = now
		t.i, t.pc = 0, coRelease
	case coRelease:
		// Fire-and-forget release messages (nobody awaits them) to every
		// involved partition, in partition order.
		if int(t.i) == len(t.involved) {
			task.Flush()
			t.pc = coOver
			if t.committing {
				t.pc = coAwait
			}
			return false
		}
		pt := t.e.parts[t.involved[t.i]]
		if t.msg == nil {
			t.msg = pt.ReleaseMessage(t.tx.ID)
		}
		if t.enq.Step(sc, task, pt, t.msg) {
			t.msg = nil
			t.i++
		}
	case coAwait:
		t.edges[3] = now
		sc.Await(t.commitSig)
		t.pc = coCommitted
	case coCommitted:
		t.commitSig.Reset() // that was its last observer: armed for the next commit
		t.stampCommit(now)
		t.pc = coOver
	case coOver:
		return true
	}
	return false
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
// the rendezvous, parking once.
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
		t.slot(i, pidx, lockKey, false, a.Body, nil)
	}
	t.fanOut(len(actions))
	ok := rvp.OK()
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

// doraCtx is the partition-side AccessCtx: the row store as it is. No
// hierarchical locks, no page latches: isolation came from routing plus the
// entity lock already held, which is exclusive, so ReadForUpdate has nothing
// to strengthen.
type doraCtx struct {
	rowTx // task is the partition worker's, set when the action runs

	arena *storage.Arena // the action slot's
	undo  []routedUndo   // a rollback action's records
}

// Arena implements AccessCtx.
func (c *doraCtx) Arena() *storage.Arena { return c.arena }

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
	if socket < e.logSet.NumShards() {
		g.LogBacklog = e.logSet.Backlog(socket)
	}
	if socket == 0 {
		if rs := e.logSet.Replication(); rs != nil {
			g.ReplLag = rs.CurLagBytes()
		}
	}
	return g
}
