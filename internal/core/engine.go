package core

import (
	"bionicdb/internal/btree"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/txn"
	"bionicdb/internal/wal"
)

// AccessCtx is the data interface a transaction-action body programs
// against. Every method charges the engine's cost model; mutating methods
// write WAL records and register undo. Methods return false when the row
// state prevents the operation (missing row, duplicate insert) — the body
// decides whether that is a transaction abort.
//
// Lifetime: one rule for everything that crosses this interface. A key,
// scan bound or val passed to any method need only stay valid until the
// transaction attempt that built it ends, which is what Arena's slices do;
// whoever keeps one longer copies it (the tree copies a new key and every row
// it stores, a lock table its lock names, the log its records before the
// append returns). A val returned by Read, ReadForUpdate or Scan is a view of
// the stored row itself, and so is the before-image a write hands the undo
// list and the log: it is good until the attempt that got it ends, however
// often other transactions replace or delete the row meanwhile. A later write
// stores a new row beside it; only once every attempt open at that write has
// ended does the tree reuse its bytes for another row (btree.Reclaimer, one
// per engine, whose epochs submit opens and closes). So undo entries, log
// records and a decoded row's []byte fields need no copy, and whatever keeps
// a view past its attempt, or reads the trees outside one across a park,
// copies it first.
type AccessCtx interface {
	// Read returns the row under key.
	Read(table uint16, key []byte) (val []byte, ok bool)
	// ReadForUpdate is a Read by a body that goes on to Update or Delete
	// the row. It returns what Read returns; an engine that locks rows takes
	// the write lock here, so two such bodies on one row queue at the read
	// instead of both holding a read lock the other's upgrade waits on.
	ReadForUpdate(table uint16, key []byte) (val []byte, ok bool)
	// Update replaces an existing row; false if it does not exist. The
	// store copies val, so the body may build it in Arena.
	Update(table uint16, key, val []byte) bool
	// Insert adds a new row; false if the key already exists. The store
	// copies val, as for Update.
	Insert(table uint16, key, val []byte) bool
	// Delete removes a row; false if it does not exist.
	Delete(table uint16, key []byte) bool
	// Scan iterates rows with keys in [from, to); nil bounds are open.
	Scan(table uint16, from, to []byte, fn func(key, val []byte) bool)
	// Arena is where the body builds its keys, scan bounds and rows: the
	// engine resets it when the next attempt starts, and it is the body's
	// own (the actions of one Phase run side by side, each with its own).
	Arena() *storage.Arena
}

// Action is one partition-confined unit of a transaction: the routing key
// decides the owning partition (DORA engines) and the entity lock; Body
// runs on that partition with an engine-appropriate AccessCtx and returns
// false to vote the transaction into abort. Key follows AccessCtx's lifetime
// rule: valid until the attempt ends, so it is built in Tx.Arena.
type Action struct {
	Table uint16
	Key   []byte
	// NoLock skips the entity lock (relaxed-isolation reads like TPC-C
	// StockLevel, which the spec allows to run read-committed).
	NoLock bool
	Body   func(c AccessCtx) bool
}

// Tx is the coordinator-side handle a transaction's logic drives.
type Tx interface {
	// Phase runs the actions (in parallel across partitions on the DORA
	// engines, sequentially on the conventional engine) and reports
	// whether all voted to continue. After a false Phase the logic must
	// return false.
	Phase(actions ...Action) bool
	// Arena is where the logic builds Action.Key and any key it hands to a
	// body: reset by the engine at the start of every attempt, so the logic
	// builds its keys inside the TxnLogic function, not before it.
	Arena() *storage.Arena
}

// TxnLogic is a transaction program: it issues phases and returns whether
// to commit. Returning false rolls the transaction back (a user abort, as
// in TATP's expected failure cases or TPC-C's 1% NewOrder rollbacks).
type TxnLogic func(tx Tx) bool

// Terminal is one closed-loop client: a simulated process with a home core
// for its front-end work and a private random stream.
type Terminal struct {
	ID   int
	P    *sim.Proc
	Core *platform.Core
	R    *sim.Rand

	// Ph accumulates the current transaction's per-phase durations (queue,
	// lock, exec, cross-shard, durability). Engines reset it at Submit
	// entry and fill it as the transaction moves; the harness folds
	// committed in-window values into the run's latency anatomy. Host-side
	// scratch: never read by simulated logic.
	Ph [stats.NumPhases]sim.Duration

	// Rec is the flight-recorder ring the terminal records into, nil when
	// untraced. Engines record submit, durability-wait and
	// cross-shard decision spans into it from the terminal's process.
	Rec *obs.ShardRec

	// Retries is how many times the engine re-ran the current transaction
	// after an engine-induced abort (deadlock victim, refused lock). Engines
	// reset it at Submit entry and bump it per re-attempt; the harness folds
	// in-window values per transaction type into Result.TxnRetries.
	Retries int

	// fr is the terminal's transaction frame on the engine it submits to,
	// built by that engine on first use (a *convCtx or a *doraTx).
	fr frame
}

// Engine is a complete transaction processing system under one cost model,
// with everything a Session needs to populate, warm, observe, checkpoint
// and crash it.
//
// Two capabilities are optional, so they are probed for where they are
// used rather than required here: SetRecorder(*obs.Recorder), because only
// the data-oriented engines trace partition and overlay spans (Run), and
// Overlay() *overlay.Store, because only an engine with the overlay unit
// can feed analytical projections from its merge path (htap).
type Engine interface {
	// Name identifies the engine in tables ("conventional", "dora",
	// "bionic[...]").
	Name() string
	// Platform exposes the machine model for energy snapshots.
	Platform() *platform.Platform
	// Submit runs one transaction to completion from term: engine-induced
	// aborts (deadlocks) are retried internally; user aborts are not.
	// It returns whether the transaction finally committed (durably).
	Submit(term *Terminal, logic TxnLogic) (committed bool)
	// Load inserts a row during population, bypassing timing and logging.
	// The engine copies key and val, so the caller may reuse their bytes
	// at once.
	Load(table uint16, key, val []byte)
	// ReadRaw reads a row without timing (verification only).
	ReadRaw(table uint16, key []byte) (val []byte, ok bool)
	// ScanRaw iterates rows without timing (verification only).
	ScanRaw(table uint16, from, to []byte, fn func(key, val []byte) bool)
	// Breakdown returns the engine's cumulative Figure 3 component times.
	Breakdown() *stats.Breakdown
	// Counters returns engine event counters (commits, aborts, retries...).
	Counters() *stats.Counter
	// Close quiesces background daemons and partition workers.
	Close()

	// Warm marks every tree page buffer-pool resident, so measurements start
	// from a warm cache (Open calls it after population).
	Warm()
	// Tables returns the primary trees, keyed by table id.
	Tables() map[uint16]*btree.Tree
	// DiskManager returns the checkpoint page store.
	DiskManager() *storage.DiskManager
	// LogSet returns the durable log: one shard, or one per socket on a
	// sharded-log machine, with its replication when the machine ships it.
	LogSet() *wal.LogSet
	// ObsGauges returns socket's instantaneous queue, lock, log and
	// replication gauges for the telemetry sampler.
	ObsGauges(socket int) obs.Gauges
}

// maxRetries bounds deadlock-retry loops.
const maxRetries = 25

// frontEndInstr is the admission/parse/route cost charged per transaction
// attempt (the Figure 3 "Front-end" component).
const frontEndInstr = 500

// frame is one engine's transaction frame for a terminal, as the retry loop
// drives it. It owns the task and the transaction every attempt re-arms.
type frame interface {
	state() (*platform.Task, *txn.Txn)
	// run re-arms the attempt's scratch (BeginIn has dropped the undo list,
	// the last holder of the previous attempt's keys) and runs logic,
	// reporting its vote and whether the engine refused the attempt (a
	// deadlock victim or a refused lock).
	run(logic TxnLogic) (ok, refused bool)
	// rollback undoes the attempt and releases its locks.
	rollback()
	// commit makes the attempt durable and releases its locks, folding the
	// commit path's phases into the terminal's anatomy.
	commit()
}

// submit is both engines' Submit: a submit span around the retry loop. Each
// attempt resets the task, charges the front end, begins the transaction and
// runs the logic on f; a refused attempt rolls back and retries up to
// maxRetries, a user abort rolls back and returns. Each attempt is one epoch
// of the row store's reclaimer, from before the logic runs to after its
// rollback or commit: no row it could hold a view of is reused meanwhile.
func submit(term *Terminal, e *engineBase, f frame, logic TxnLogic) bool {
	term.Ph = [stats.NumPhases]sim.Duration{}
	start := term.P.Now()
	task, tx := f.state()
	committed := false
	for term.Retries = 0; ; term.Retries++ {
		task.Reset()
		task.Exec(stats.CompFrontEnd, frontEndInstr)
		e.tm.BeginIn(task, tx)
		epoch := e.rc.Begin()
		ok, refused := f.run(logic)
		if refused || !ok {
			f.rollback()
		} else {
			f.commit()
		}
		e.rc.End(epoch)
		if refused {
			e.ctr.Inc("aborts.deadlock", 1)
			if term.Retries < maxRetries {
				continue
			}
			e.ctr.Inc("aborts.giveup", 1)
		} else if !ok {
			e.ctr.Inc("aborts.user", 1)
		} else {
			e.ctr.Inc("commits", 1)
			committed = true
		}
		break
	}
	if end := term.P.Now(); end > start {
		term.Rec.Record(obs.Span{Start: start, End: end, Kind: obs.KindSubmit,
			Socket: int32(term.Core.SocketID()), Txn: tx.ID})
	}
	return committed
}

// engineBase is what both engines are built on: the machine, the row store,
// the checkpoint page store, the durable log with the transaction manager
// over it, and the cost and event tallies.
type engineBase struct {
	*rowStore

	pl     *platform.Platform
	dm     *storage.DiskManager
	logSet *wal.LogSet
	tm     *txn.Manager
	bd     *stats.Breakdown
	ctr    *stats.Counter
}

func newEngineBase(env *sim.Env, cfg *platform.Config) engineBase {
	pl := platform.New(env, cfg)
	return engineBase{pl: pl, dm: storage.NewDiskManager(pl.Disk, cfg.PageSize),
		bd: &stats.Breakdown{}, ctr: stats.NewCounter()}
}

// Platform implements Engine.
func (e *engineBase) Platform() *platform.Platform { return e.pl }

// Breakdown implements Engine.
func (e *engineBase) Breakdown() *stats.Breakdown { return e.bd }

// Counters implements Engine.
func (e *engineBase) Counters() *stats.Counter { return e.ctr }

// DiskManager implements Engine.
func (e *engineBase) DiskManager() *storage.DiskManager { return e.dm }

// LogSet implements Engine.
func (e *engineBase) LogSet() *wal.LogSet { return e.logSet }

// newLog wraps shards in an engine's durable log, ships it when the machine
// replicates, and builds the transaction manager over it.
func newLog(pl *platform.Platform, shards []wal.LogShard) (*wal.LogSet, *txn.Manager) {
	ls := wal.NewLogSet(pl, shards)
	if pl.Cfg.Replicated() {
		ls.AttachReplication(wal.NewReplicaSet(ls))
	}
	return ls, txn.NewManager(pl.Env, ls, txn.DefaultConfig())
}
