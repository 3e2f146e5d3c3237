package core

import (
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
	engineBase // over host trees behind the buffer pool, page-latched, and one log shard

	lm *lockmgr.Manager

	// tableLocks memoizes lockmgr.TableLock names, indexed by table id: two
	// hierarchical lock acquisitions per row access both start with the
	// table lock, and the set of tables is fixed at construction.
	tableLocks []lockmgr.Name
}

// latchStripes is how many page-latch stripes the conventional engine's
// probes latch every visited node on.
const latchStripes = 64

// NewConventional builds the baseline engine on a fresh platform.
func NewConventional(env *sim.Env, cfg *platform.Config, tables []TableDef) *Conventional {
	e := &Conventional{engineBase: newEngineBase(env, cfg)}
	ids := 0
	for _, def := range tables {
		ids = max(ids, int(def.ID)+1)
	}
	e.tableLocks = make([]lockmgr.Name, ids)
	for _, def := range tables {
		e.tableLocks[def.ID] = lockmgr.TableLock(def.ID)
	}
	pl := e.pl
	pool := newBufferPool(pl)
	e.lm = lockmgr.New(pl, lockmgr.DefaultConfig())
	store := wal.NewStore(pl.SSD)
	// The shared-everything engine never shards its log, even on a machine
	// with per-socket log devices: without data-oriented routing a key has
	// no home socket, so per-socket streams would leave same-key records
	// with no recoverable order. Its centralized log (and single SSD) stays
	// — that is the scaling wall the sharded engines escape.
	e.logSet, e.tm = newLog(pl, []wal.LogShard{{App: wal.NewManager(pl, store, wal.DefaultManagerConfig()), Store: store}})
	e.rowStore = newHostRows(pl, e.dm, pool, tables, latchStripes)
	return e
}

// Name implements Engine.
func (e *Conventional) Name() string { return "conventional" }

// ObsGauges implements Engine. The shared-everything engine has no
// partition queues; its lock table, central log and replication stream all
// live on socket 0, so other sockets read zero.
func (e *Conventional) ObsGauges(socket int) obs.Gauges {
	var g obs.Gauges
	if socket == 0 {
		g.LockWaiters = e.lm.CurWaiters()
		g.LogBacklog = e.logSet.Backlog(0)
		if rs := e.logSet.Replication(); rs != nil {
			g.ReplLag = rs.CurLagBytes()
		}
	}
	return g
}

// Close implements Engine.
func (e *Conventional) Close() { e.logSet.Stop() }

// Submit implements Engine.
func (e *Conventional) Submit(term *Terminal, logic TxnLogic) bool {
	c, ok := term.fr.(*convCtx)
	if !ok || c.e != e {
		c = &convCtx{e: e, term: term, commitSig: sim.NewSignal(e.pl.Env)}
		c.rt = rowTx{rows: e.rowStore, tm: e.tm, task: e.pl.NewTask(term.P, term.Core, e.bd), tx: &c.tx}
		c.pair.c = c
		term.fr = c
	}
	return submit(term, &e.engineBase, c, logic)
}

func (c *convCtx) state() (*platform.Task, *txn.Txn) { return c.rt.task, &c.tx }

func (c *convCtx) run(logic TxnLogic) (ok, refused bool) {
	c.err, c.lockD = nil, 0
	c.arena.Reset()
	logicStart := c.term.P.Now()
	ok = logic(c)
	// Anatomy: the logic's elapsed time splits into lock-manager time
	// (accumulated by convCtx.lock around acquires, waits included) and
	// everything else, which for this engine is execution.
	c.term.Ph[stats.PhaseLock] += c.lockD
	if d := c.term.P.Now().Sub(logicStart) - c.lockD; d > 0 {
		c.term.Ph[stats.PhaseExec] += d
	}
	return ok, c.err != nil
}

func (c *convCtx) commit() {
	e, task, term := c.e, c.rt.task, c.term
	sig := c.commitSig
	e.tm.CommitTo(task, &c.tx, sig)
	task.Flush()
	// Strict 2PL with early lock release at commit-record append; the
	// group-commit wait happens without locks held.
	e.lockTax(task)
	e.lm.ReleaseAll(task, c.tx.ID)
	task.Flush()
	w0 := term.P.Now()
	sig.Await(term.P)
	sig.Reset() // that was its only observer: armed for the next commit
	if w1 := term.P.Now(); w1 > w0 {
		term.Ph[stats.PhaseDur] += w1.Sub(w0)
		term.Rec.Record(obs.Span{Start: w0, End: w1, Kind: obs.KindDurability,
			Socket: int32(term.Core.SocketID()), Txn: c.tx.ID})
	}
}

// rollback undoes the attempt's writes in reverse on the terminal's own task,
// X locks still held, then releases every lock.
func (c *convCtx) rollback() {
	e, task := c.e, c.rt.task
	e.tm.Abort(task, &c.tx, func(u txn.UndoRec) {
		e.applyUndoRaw(task, u)
	})
	e.lockTax(task)
	e.lm.ReleaseAll(task, c.tx.ID)
	task.Flush()
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
// around the page-latched row store — and the terminal's transaction frame
// on this engine: built on the terminal's first Submit and re-armed per
// attempt. Everything in it is used by the terminal's own process only, and
// the commit signal's one foreign user, the log flusher, has fired it before
// commit's Await on it returns.
type convCtx struct {
	e         *Conventional
	term      *Terminal
	rt        rowTx // the terminal's task on this engine, over tx
	tx        txn.Txn
	commitSig *sim.Signal
	err       error

	// lockD accumulates elapsed time inside lock-manager interactions
	// (NUMA tax, acquire CPU and blocked waits) for the latency anatomy.
	lockD sim.Duration

	pair lockPair // lock's chain

	// arena holds the attempt's keys, the logic's and the bodies' alike
	// (they run one after another in this process); run resets it.
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
	if e.taxed(task) {
		sc := task.Script()
		e.addLockTax(sc, task)
		sc.Run()
	}
}

// taxed reports whether task's socket pays the lock table's NUMA tax.
func (e *Conventional) taxed(task *platform.Task) bool {
	return e.pl.IC != nil && task.Core().SocketID() != lockTableSocket
}

// addLockTax appends the tax's two interconnect transfers to sc.
func (e *Conventional) addLockTax(sc *sim.Script, task *platform.Task) {
	s := task.Core().SocketID()
	e.pl.IC.AddTransfer(sc, s, lockTableSocket, 64)
	e.pl.IC.AddTransfer(sc, lockTableSocket, s, 64)
}

// lock takes the table lock in tableMode and, given a key, the row lock in
// rowMode, paying the lock table's NUMA tax first. The three run as one
// kernel script (lockPair), so the process parks at most once for them. A
// refusal (deadlock victim) is kept in c.err, and every later access is
// refused at once.
func (c *convCtx) lock(table uint16, key []byte, tableMode, rowMode lockmgr.Mode) bool {
	if c.err != nil {
		return false
	}
	task := c.rt.task
	t0 := task.P.Now()
	lp := &c.pair
	lp.ph = lockTaxing
	lp.req = lockmgr.Request{Txn: c.tx.ID, Name: c.e.tableLocks[table], Mode: tableMode}
	lp.row, lp.rowMode = lockmgr.Name{}, 0
	if key != nil {
		lp.row, lp.rowMode = lockmgr.RowLock(table, key), rowMode
	}
	task.RunChain(lp)
	c.noteLock(t0)
	return c.err == nil
}

// lockPair is convCtx.lock's chain in progress: what of it is next, the
// request being stepped (the table lock's, then the row lock's), and the row
// lock's name and mode (0 when there is none).
type lockPair struct {
	c       *convCtx
	ph      uint8
	req     lockmgr.Request
	row     lockmgr.Name
	rowMode lockmgr.Mode
}

// Lock-pair phases.
const (
	lockTaxing uint8 = iota
	lockTable
	lockRow
)

// Continue implements sim.Continuation: the tax's transfers behind the
// pending core time, then each request, at the instants the process would
// have made them one call at a time.
func (lp *lockPair) Continue(sc *sim.Script) {
	c := lp.c
	e, task := c.e, c.rt.task
	for !sc.Pending() {
		switch lp.ph {
		case lockTaxing:
			lp.ph = lockTable
			if e.taxed(task) {
				task.Flush()
				e.addLockTax(sc, task)
			}
		default:
			if !e.lm.Step(sc, task, &lp.req) {
				continue
			}
			if lp.req.Err != nil {
				c.err = lp.req.Err
				return
			}
			if lp.ph == lockRow || lp.rowMode == 0 {
				return
			}
			lp.ph = lockRow
			lp.req = lockmgr.Request{Txn: c.tx.ID, Name: lp.row, Mode: lp.rowMode}
		}
	}
	sc.Then(lp)
}

// noteLock folds the elapsed time since t0 into the lock phase and, when
// tracing, records it as a lock-wait span.
func (c *convCtx) noteLock(t0 sim.Time) {
	t1 := c.rt.task.P.Now()
	if t1 <= t0 {
		return
	}
	c.lockD += t1.Sub(t0)
	c.term.Rec.Record(obs.Span{Start: t0, End: t1, Kind: obs.KindLockWait,
		Socket: int32(c.rt.task.Core().SocketID()), Txn: c.tx.ID})
}

// Read implements AccessCtx.
func (c *convCtx) Read(table uint16, key []byte) ([]byte, bool) {
	if !c.lock(table, key, lockmgr.IS, lockmgr.S) {
		return nil, false
	}
	return c.rt.Read(table, key)
}

// ReadForUpdate implements AccessCtx: the read takes the locks the write
// that follows it needs. Under S the two readers of one row that both go on
// to write it each wait for the other's S to go, and the lock manager has to
// abort one; under X the second queues behind the first.
func (c *convCtx) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	if !c.lock(table, key, lockmgr.IX, lockmgr.X) {
		return nil, false
	}
	return c.rt.Read(table, key)
}

// Update implements AccessCtx.
func (c *convCtx) Update(table uint16, key, val []byte) bool {
	return c.lock(table, key, lockmgr.IX, lockmgr.X) && c.rt.Update(table, key, val)
}

// Insert implements AccessCtx.
func (c *convCtx) Insert(table uint16, key, val []byte) bool {
	return c.lock(table, key, lockmgr.IX, lockmgr.X) && c.rt.Insert(table, key, val)
}

// Delete implements AccessCtx.
func (c *convCtx) Delete(table uint16, key []byte) bool {
	return c.lock(table, key, lockmgr.IX, lockmgr.X) && c.rt.Delete(table, key)
}

// Scan implements AccessCtx: the table lock first, then the row store
// materializes the rows (the iterator must not observe concurrent splits
// while this process parks on locks) and takes each row's S lock before
// handing it to fn.
func (c *convCtx) Scan(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	if c.lock(table, nil, lockmgr.IS, lockmgr.S) {
		c.e.scan(c.rt.task, table, from, to, c.lockScanRow, fn)
	}
}

// lockScanRow takes a scanned row's S lock.
func (c *convCtx) lockScanRow(table uint16, key []byte) bool {
	if err := c.e.lm.Acquire(c.rt.task, c.tx.ID, lockmgr.RowLock(table, key), lockmgr.S); err != nil {
		c.err = err
		return false
	}
	return true
}
