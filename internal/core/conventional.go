package core

import (
	"fmt"

	"bionicdb/internal/btree"
	"bionicdb/internal/bufferpool"
	"bionicdb/internal/lockmgr"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/txn"
	"bionicdb/internal/wal"
)

// Conventional is the shared-everything 2PL baseline: every worker may touch
// any datum, so every access pays the full tax the paper's §5.1 enumerates —
// hierarchical locks, page latches, buffer-pool fixes, and a centrally
// latched log.
type Conventional struct {
	pl     *platform.Platform
	defs   map[uint16]TableDef
	trees  map[uint16]*btree.Tree
	pool   *bufferpool.Pool
	lm     *lockmgr.Manager
	tm     *txn.Manager
	logMgr *wal.Manager
	logSet *wal.LogSet
	dm     *storage.DiskManager

	// latches are page-latch stripes; conventional probes latch every node
	// they visit (crabbing approximated by striped latches).
	latches []*sim.Resource

	bd     *stats.Breakdown
	ctr    *stats.Counter
	traces btree.TracePool
	kvs    sim.ScratchPool[kvPair]

	// tableLocks memoizes lockmgr.TableLock names: two hierarchical lock
	// acquisitions per row access both start with the table lock, and the
	// set of tables is fixed at construction.
	tableLocks map[uint16]lockmgr.Name
}

const latchStripes = 64

// NewConventional builds the baseline engine on a fresh platform.
func NewConventional(env *sim.Env, cfg *platform.Config, tables []TableDef) *Conventional {
	pl := platform.New(env, cfg)
	e := &Conventional{
		pl:    pl,
		defs:  make(map[uint16]TableDef),
		trees: make(map[uint16]*btree.Tree),
		bd:    &stats.Breakdown{},
		ctr:   stats.NewCounter(),
	}
	e.tableLocks = make(map[uint16]lockmgr.Name, len(tables))
	for _, def := range tables {
		e.tableLocks[def.ID] = lockmgr.TableLock(def.ID)
	}
	e.dm = storage.NewDiskManager(pl.Disk, cfg.PageSize)
	e.pool = bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(1<<18, cfg.PageSize))
	e.lm = lockmgr.New(pl, lockmgr.DefaultConfig())
	store := wal.NewStore(pl.SSD)
	e.logMgr = wal.NewManager(pl, store, wal.DefaultManagerConfig())
	// The shared-everything engine never shards its log, even on a machine
	// with per-socket log devices: without data-oriented routing a key has
	// no home socket, so per-socket streams would leave same-key records
	// with no recoverable order. Its centralized log (and single SSD) stays
	// — that is the scaling wall the sharded engines escape.
	e.logSet = wal.NewLogSet(pl, []wal.LogShard{{App: e.logMgr, Store: store}})
	if cfg.Replicated() {
		e.logSet.AttachReplication(wal.NewReplicaSet(e.logSet))
	}
	e.tm = txn.NewManager(env, e.logSet, txn.DefaultConfig())
	for i := 0; i < latchStripes; i++ {
		e.latches = append(e.latches, sim.NewResource(env, fmt.Sprintf("page-latch-%d", i), 1))
	}
	for _, def := range tables {
		def := def
		e.defs[def.ID] = def
		e.trees[def.ID] = btree.New(btree.Config{
			Order:  def.Order,
			NextID: e.dm.Allocate,
			AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocHost(cfg.PageSize) },
		})
	}
	return e
}

// Name implements Engine.
func (e *Conventional) Name() string { return "conventional" }

// Platform implements Engine.
func (e *Conventional) Platform() *platform.Platform { return e.pl }

// Breakdown implements Engine.
func (e *Conventional) Breakdown() *stats.Breakdown { return e.bd }

// Counters implements Engine.
func (e *Conventional) Counters() *stats.Counter { return e.ctr }

// Load implements Engine (population path: no timing, no logging).
func (e *Conventional) Load(table uint16, key, val []byte) {
	e.trees[table].Put(key, val, nil)
}

// ReadRaw implements Engine.
func (e *Conventional) ReadRaw(table uint16, key []byte) ([]byte, bool) {
	return e.trees[table].Get(key, nil)
}

// ScanRaw implements Engine.
func (e *Conventional) ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	e.trees[table].Scan(from, to, nil, fn)
}

// Tables implements Engine.
func (e *Conventional) Tables() map[uint16]*btree.Tree { return e.trees }

// Warm implements Engine: every tree page becomes buffer-pool resident, as
// a production system would be after its working set is faulted in.
func (e *Conventional) Warm() {
	for _, id := range sortedKeys(e.trees) {
		e.trees[id].Pages(func(id storage.PageID, leaf bool) { e.pool.Prewarm(id) })
	}
}

// DiskManager implements Engine.
func (e *Conventional) DiskManager() *storage.DiskManager { return e.dm }

// LogSet implements Engine: the shared-everything engine keeps one shard.
func (e *Conventional) LogSet() *wal.LogSet { return e.logSet }

// ObsGauges implements Engine. The shared-everything engine has no
// partition queues; its lock table, central log and replication stream all
// live on socket 0, so other sockets read zero.
func (e *Conventional) ObsGauges(socket int) obs.Gauges {
	var g obs.Gauges
	if socket == 0 {
		g.LockWaiters = e.lm.CurWaiters()
		g.LogBacklog = e.logMgr.Backlog()
		if rs := e.logSet.Replication(); rs != nil {
			g.ReplLag = rs.CurLagBytes()
		}
	}
	return g
}

// Close implements Engine.
func (e *Conventional) Close() {
	e.logMgr.Stop()
	if rs := e.logSet.Replication(); rs != nil {
		rs.Stop()
	}
}

// Submit implements Engine.
func (e *Conventional) Submit(term *Terminal, logic TxnLogic) bool {
	term.Ph = [stats.NumPhases]sim.Duration{}
	start := term.P.Now()
	committed, txid := e.submit(term, logic)
	if end := term.P.Now(); end > start {
		term.Rec.Record(obs.Span{Start: start, End: end, Kind: obs.KindSubmit,
			Socket: int32(term.Core.SocketID()), Txn: txid})
	}
	return committed
}

func (e *Conventional) submit(term *Terminal, logic TxnLogic) (bool, uint64) {
	ctx := term.conv
	if ctx == nil || ctx.e != e {
		ctx = &convCtx{e: e, term: term, task: e.pl.NewTask(term.P, term.Core, e.bd),
			commit: sim.NewSignal(e.pl.Env)}
		term.conv = ctx
	}
	task, tx := ctx.task, &ctx.tx
	for term.Retries = 0; ; term.Retries++ {
		task.Reset()
		task.Exec(stats.CompFrontEnd, frontEndInstr)
		e.tm.BeginIn(task, tx)
		ctx.err, ctx.lockD = nil, 0
		ctx.arena.Reset() // BeginIn dropped the undo list, the last holder of its keys
		logicStart := term.P.Now()
		ok := logic(ctx)
		// Anatomy: the logic's elapsed time splits into lock-manager time
		// (accumulated by convCtx.lock around acquires, waits included) and
		// everything else, which for this engine is execution.
		term.Ph[stats.PhaseLock] += ctx.lockD
		if d := term.P.Now().Sub(logicStart) - ctx.lockD; d > 0 {
			term.Ph[stats.PhaseExec] += d
		}
		if ctx.err != nil {
			// Engine-induced abort (deadlock victim): roll back and retry.
			e.rollback(task, ctx)
			e.ctr.Inc("aborts.deadlock", 1)
			if term.Retries < maxRetries {
				continue
			}
			e.ctr.Inc("aborts.giveup", 1)
			return false, tx.ID
		}
		if !ok {
			e.rollback(task, ctx)
			e.ctr.Inc("aborts.user", 1)
			return false, tx.ID
		}
		sig := ctx.commit
		e.tm.CommitTo(task, tx, sig)
		task.Flush()
		// Strict 2PL with early lock release at commit-record append; the
		// group-commit wait happens without locks held.
		e.lockTax(task)
		e.lm.ReleaseAll(task, tx.ID)
		task.Flush()
		w0 := term.P.Now()
		sig.Await(term.P)
		sig.Reset() // that was its only observer: armed for the next commit
		if w1 := term.P.Now(); w1 > w0 {
			term.Ph[stats.PhaseDur] += w1.Sub(w0)
			term.Rec.Record(obs.Span{Start: w0, End: w1, Kind: obs.KindDurability,
				Socket: int32(term.Core.SocketID()), Txn: tx.ID})
		}
		e.ctr.Inc("commits", 1)
		return true, tx.ID
	}
}

func (e *Conventional) rollback(task *platform.Task, ctx *convCtx) {
	e.tm.Abort(task, &ctx.tx, func(u txn.UndoRec) {
		e.applyUndoRaw(task, u)
	})
	e.lockTax(task)
	e.lm.ReleaseAll(task, ctx.tx.ID)
	task.Flush()
}

// applyUndoRaw reverses one operation without logging (runtime rollback;
// the abort record covers recovery). X locks are still held.
func (e *Conventional) applyUndoRaw(task *platform.Task, u txn.UndoRec) {
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

// chargeVisits converts a tree trace into the conventional cost model: a
// page latch, a buffer-pool fix, the node's cache-modelled access and the
// binary-search instructions per visited node, plus software split costs.
func (e *Conventional) chargeVisits(task *platform.Task, tr *btree.Trace, write bool) {
	for _, v := range tr.Visits {
		latch := e.latches[uint64(v.ID)%latchStripes]
		task.Exec(stats.CompBtree, 60) // latch acquire/release pair
		task.Flush()
		latch.Acquire(task.P)
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
		task.Flush()
		latch.Release()
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

// Phase implements Tx: phases run sequentially in the caller's process.
func (c *convCtx) Phase(actions ...Action) bool {
	for _, a := range actions {
		if c.err != nil {
			return false
		}
		if !a.Body(c) {
			return false
		}
	}
	return c.err == nil
}

// convCtx is the conventional engine's Tx and AccessCtx — hierarchical 2PL
// plus latched, buffer-pooled probes — and the terminal's transaction frame
// on this engine: built on the terminal's first Submit and re-armed per
// attempt. Everything in it is used by the terminal's own process only, and
// the commit signal's one foreign user, the log flusher, has fired it before
// Submit's Await on it returns.
type convCtx struct {
	e      *Conventional
	term   *Terminal
	task   *platform.Task
	tx     txn.Txn
	commit *sim.Signal
	err    error

	// lockD accumulates elapsed time inside lock-manager interactions
	// (NUMA tax, acquire CPU and blocked waits) for the latency anatomy.
	lockD sim.Duration

	// arena holds the attempt's keys, the logic's and the bodies' alike
	// (they run one after another in this process); submit resets it.
	arena storage.Arena
}

// Arena implements Tx and AccessCtx.
func (c *convCtx) Arena() *storage.Arena { return &c.arena }

// lockTableSocket is where the conventional engine's centralized lock
// table lives. On a multi-socket platform every lock-manager interaction
// from another socket pays a coherence round trip to this socket — the
// shared-everything scaling wall the DORA engines avoid by construction.
const lockTableSocket = 0

// lockTax charges the NUMA cost of reaching the centralized lock table: a
// request line to the home socket and the granted line back. Free on the
// home socket and on single-socket platforms.
func (e *Conventional) lockTax(task *platform.Task) {
	ic := e.pl.IC
	if ic == nil {
		return
	}
	s := task.Core().SocketID()
	if s == lockTableSocket {
		return
	}
	sc := task.Script()
	ic.AddTransfer(sc, s, lockTableSocket, 64)
	ic.AddTransfer(sc, lockTableSocket, s, 64)
	sc.Run()
}

func (c *convCtx) lock(table uint16, key []byte, tableMode, rowMode lockmgr.Mode) bool {
	if c.err != nil {
		return false
	}
	t0 := c.task.P.Now()
	defer c.noteLock(t0)
	c.e.lockTax(c.task)
	if err := c.e.lm.Acquire(c.task, c.tx.ID, c.e.tableLocks[table], tableMode); err != nil {
		c.err = err
		return false
	}
	if err := c.e.lm.Acquire(c.task, c.tx.ID, lockmgr.RowLock(table, key), rowMode); err != nil {
		c.err = err
		return false
	}
	return true
}

// noteLock folds the elapsed time since t0 into the lock phase and, when
// tracing, records it as a lock-wait span.
func (c *convCtx) noteLock(t0 sim.Time) {
	t1 := c.task.P.Now()
	if t1 <= t0 {
		return
	}
	c.lockD += t1.Sub(t0)
	c.term.Rec.Record(obs.Span{Start: t0, End: t1, Kind: obs.KindLockWait,
		Socket: int32(c.task.Core().SocketID()), Txn: c.tx.ID})
}

// Read implements AccessCtx.
func (c *convCtx) Read(table uint16, key []byte) ([]byte, bool) {
	return c.read(table, key, lockmgr.IS, lockmgr.S)
}

// ReadForUpdate implements AccessCtx: the read takes the locks the write
// that follows it needs. Under S the two readers of one row that both go on
// to write it each wait for the other's S to go, and the lock manager has to
// abort one; under X the second queues behind the first.
func (c *convCtx) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	return c.read(table, key, lockmgr.IX, lockmgr.X)
}

func (c *convCtx) read(table uint16, key []byte, tableMode, rowMode lockmgr.Mode) ([]byte, bool) {
	if !c.lock(table, key, tableMode, rowMode) {
		return nil, false
	}
	tr := c.e.traces.Get()
	val, ok := c.e.trees[table].Get(key, tr)
	c.e.chargeVisits(c.task, tr, false)
	c.e.traces.Put(tr)
	return val, ok
}

// Update implements AccessCtx.
func (c *convCtx) Update(table uint16, key, val []byte) bool {
	if !c.lock(table, key, lockmgr.IX, lockmgr.X) {
		return false
	}
	tr := c.e.traces.Get()
	prev, existed := c.e.trees[table].Put(key, val, tr)
	c.e.chargeVisits(c.task, tr, true)
	c.e.traces.Put(tr)
	if !existed {
		c.e.trees[table].Delete(key, nil) // undo accidental insert
		return false
	}
	c.e.tm.LogUpdate(c.task, &c.tx, table, key, prev, val)
	return true
}

// Insert implements AccessCtx.
func (c *convCtx) Insert(table uint16, key, val []byte) bool {
	if !c.lock(table, key, lockmgr.IX, lockmgr.X) {
		return false
	}
	tr := c.e.traces.Get()
	prev, existed := c.e.trees[table].Put(key, val, tr)
	c.e.chargeVisits(c.task, tr, true)
	c.e.traces.Put(tr)
	if existed {
		c.e.trees[table].Put(key, prev, nil) // restore
		return false
	}
	c.e.tm.LogInsert(c.task, &c.tx, table, key, val)
	return true
}

// Delete implements AccessCtx.
func (c *convCtx) Delete(table uint16, key []byte) bool {
	if !c.lock(table, key, lockmgr.IX, lockmgr.X) {
		return false
	}
	tr := c.e.traces.Get()
	val, ok := c.e.trees[table].Delete(key, tr)
	c.e.chargeVisits(c.task, tr, true)
	c.e.traces.Put(tr)
	if !ok {
		return false
	}
	c.e.tm.LogDelete(c.task, &c.tx, table, key, val)
	return true
}

// Scan implements AccessCtx: results are materialized first (the iterator
// must not observe concurrent splits while this process parks on locks),
// then row locks and charges are applied.
func (c *convCtx) Scan(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	if c.err != nil {
		return
	}
	t0 := c.task.P.Now()
	c.e.lockTax(c.task)
	if err := c.e.lm.Acquire(c.task, c.tx.ID, c.e.tableLocks[table], lockmgr.IS); err != nil {
		c.err = err
		c.noteLock(t0)
		return
	}
	c.noteLock(t0)
	tr := c.e.traces.Get()
	rows := c.e.kvs.Get()
	defer func() { c.e.kvs.Put(rows) }()
	c.e.trees[table].Scan(from, to, tr, func(k, v []byte) bool {
		rows = append(rows, kvPair{k, v})
		return true
	})
	c.e.chargeVisits(c.task, tr, false)
	c.e.traces.Put(tr)
	for _, r := range rows {
		if err := c.e.lm.Acquire(c.task, c.tx.ID, lockmgr.RowLock(table, r.k), lockmgr.S); err != nil {
			c.err = err
			return
		}
		c.task.Exec(stats.CompBtree, 20)
		if !fn(r.k, r.v) {
			return
		}
	}
}
