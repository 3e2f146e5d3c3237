// Package txn provides transaction lifecycle management shared by all
// engines: id assignment, begin/commit/abort with logical WAL records,
// in-memory undo for runtime rollback, and the group-commit handshake (the
// commit signal fires when the commit record is durable, so workers hand
// off and move on — the paper's "software can continue with something else
// rather than blocking").
//
// On a sharded log (wal.LogSet with one shard per socket) every data record
// lands on the shard of the partition that produced it, the commit record
// lands on the transaction's anchor shard, and the commit signal fires at
// the vector durable point: only when every touched shard has reached the
// transaction's horizon there. A single-shard log degenerates to the
// classic central-log behavior exactly.
//
// With log replication attached (wal.ReplicaSet) the vector durable point
// extends across machines: under sync and quorum modes the commit signal
// additionally waits for enough replica acknowledgements of every vector
// entry, so acknowledged commits survive a primary failure. Async mode and
// unreplicated runs keep the local-only wait — this package is oblivious
// to the difference, which lives entirely behind LogSet.CommitDurableIn.
package txn

import (
	"fmt"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	Active State = iota + 1
	Committed
	Aborted
)

// UndoRec is one in-memory undo entry; Apply-ing undo records in reverse
// order rolls a transaction back without touching the log.
type UndoRec struct {
	Table  uint16
	Type   wal.RecType // the forward operation being undone
	Key    []byte
	Before []byte // pre-image for updates/deletes
}

// Txn is one transaction. A client that runs one transaction at a time may
// keep one Txn and start each transaction in it with Manager.BeginIn, which
// keeps the storage of Undo and Shards; on a replicated machine the next
// commit re-arms the previous one's durability join, so its commit signal
// must have fired by then.
type Txn struct {
	ID      uint64
	State   State
	Undo    []UndoRec
	LastLSN wal.LSN
	// Shards is the transaction's durability vector: the log shards its
	// data records landed on, each with the horizon of its last record
	// there, kept sorted by shard. Single-shard transactions (and every
	// transaction on a central log) have at most one entry.
	Shards []wal.ShardLSN

	vec     []byte           // the commit record's encoded shard vector, reused
	durable *wal.DurableJoin // a replicated commit's two-step wait, reused; nil unreplicated
}

// dropUndo empties the undo list, releasing the key and image references
// but keeping the list's storage for the Txn's next transaction.
func (tx *Txn) dropUndo() {
	clear(tx.Undo)
	tx.Undo = tx.Undo[:0]
}

// note records that a data record reached horizon lsn on shard, keeping the
// vector sorted by shard id (a pure function of the shards touched).
func (tx *Txn) note(shard int, lsn wal.LSN) {
	tx.LastLSN = lsn
	for i, e := range tx.Shards {
		if e.Shard == shard {
			tx.Shards[i].LSN = lsn
			return
		}
		if e.Shard > shard {
			tx.Shards = append(tx.Shards, wal.ShardLSN{})
			copy(tx.Shards[i+1:], tx.Shards[i:])
			tx.Shards[i] = wal.ShardLSN{Shard: shard, LSN: lsn}
			return
		}
	}
	tx.Shards = append(tx.Shards, wal.ShardLSN{Shard: shard, LSN: lsn})
}

// Config tunes the CPU costs of transaction management (the Figure 3
// "Xct mgmt" component).
type Config struct {
	BeginInstr  int // context allocation, timestamp, registration
	CommitInstr int // state transitions, release preparation
	AbortInstr  int // per-abort fixed cost (undo is charged by the applier)
}

// DefaultConfig returns calibrated Shore-MT-like costs.
func DefaultConfig() Config {
	return Config{BeginInstr: 350, CommitInstr: 450, AbortInstr: 500}
}

// Manager hands out transactions and drives their lifecycle against a log
// set.
type Manager struct {
	cfg    Config
	log    *wal.LogSet
	env    *sim.Env
	nextID uint64

	// recs holds idle log records. A record goes through the Appender
	// interface and so lives on the heap; an append borrows one for its own
	// duration. An append can park (core, log latch) while another process —
	// another action of the same transaction, even — starts its own, so the
	// unit of reuse is the append in flight, never the Txn or the Manager.
	recs []*wal.Record
}

// NewManager creates a transaction manager appending to log.
func NewManager(env *sim.Env, log *wal.LogSet, cfg Config) *Manager {
	return &Manager{cfg: cfg, log: log, env: env, nextID: 1}
}

// Begin starts a transaction in a fresh Txn; see BeginIn.
func (m *Manager) Begin(t *platform.Task) *Txn {
	tx := &Txn{}
	m.BeginIn(t, tx)
	return tx
}

// BeginIn starts a transaction in tx, which must not be active (a zero Txn,
// or one whose previous transaction committed or aborted and whose commit
// signal, if any, has fired), logging a BEGIN record on the caller's shard.
// Begin records are not part of the durability vector: recovery never needs
// them, so losing one in a crash is harmless.
func (m *Manager) BeginIn(t *platform.Task, tx *Txn) {
	if tx.State == Active {
		panic(fmt.Sprintf("txn: begin in active transaction %d", tx.ID))
	}
	tx.ID = m.nextID
	m.nextID++
	tx.State = Active
	tx.dropUndo()
	tx.Shards = tx.Shards[:0]
	t.Exec(stats.CompXct, m.cfg.BeginInstr)
	tx.LastLSN = m.append(t, m.log.ShardFor(t), wal.Record{Txn: tx.ID, Type: wal.RecBegin})
}

// append writes rec to the given log shard through a borrowed heap record
// and returns its durability horizon.
func (m *Manager) append(t *platform.Task, shard int, rec wal.Record) wal.LSN {
	var r *wal.Record
	if n := len(m.recs); n > 0 {
		r = m.recs[n-1]
		m.recs = m.recs[:n-1]
	} else {
		r = new(wal.Record)
	}
	*r = rec
	lsn := m.log.Append(t, shard, r)
	*r = wal.Record{}
	m.recs = append(m.recs, r)
	return lsn
}

// logData appends one data record on the caller's socket-local shard and
// folds its horizon into the transaction's durability vector.
func (m *Manager) logData(t *platform.Task, tx *Txn, rec wal.Record) {
	shard := m.log.ShardFor(t)
	tx.note(shard, m.append(t, shard, rec))
}

// LogInsert records an insert of key into table with the given post-image
// and remembers how to undo it.
func (m *Manager) LogInsert(t *platform.Task, tx *Txn, table uint16, key, after []byte) {
	m.mustBeActive(tx)
	m.logData(t, tx, wal.Record{Txn: tx.ID, Type: wal.RecInsert, Table: table, Key: key, After: after})
	tx.Undo = append(tx.Undo, UndoRec{Table: table, Type: wal.RecInsert, Key: key})
}

// LogUpdate records an update with before and after images.
func (m *Manager) LogUpdate(t *platform.Task, tx *Txn, table uint16, key, before, after []byte) {
	m.mustBeActive(tx)
	m.logData(t, tx, wal.Record{Txn: tx.ID, Type: wal.RecUpdate, Table: table, Key: key, Before: before, After: after})
	tx.Undo = append(tx.Undo, UndoRec{Table: table, Type: wal.RecUpdate, Key: key, Before: before})
}

// LogDelete records a delete with its pre-image.
func (m *Manager) LogDelete(t *platform.Task, tx *Txn, table uint16, key, before []byte) {
	m.mustBeActive(tx)
	m.logData(t, tx, wal.Record{Txn: tx.ID, Type: wal.RecDelete, Table: table, Key: key, Before: before})
	tx.Undo = append(tx.Undo, UndoRec{Table: table, Type: wal.RecDelete, Key: key, Before: before})
}

// anchorShard is where a transaction's commit and abort records go: its
// lowest touched data shard (deterministic in the shards touched), so the
// commit record always follows the anchor's data records in that shard's
// stream. A transaction that logged nothing anchors on the caller's shard.
func (m *Manager) anchorShard(t *platform.Task, tx *Txn) int {
	if len(tx.Shards) > 0 {
		return tx.Shards[0].Shard
	}
	return m.log.ShardFor(t)
}

// Commit appends the commit record to the transaction's anchor shard and
// returns a signal that fires at the vector durable point: when the commit
// record and every shard's data records are durable. Cross-shard commit
// records carry the shard vector so recovery can detect — and discard —
// transactions whose durability vector did not fully survive a crash. The
// caller chooses whether to await the signal (synchronous commit latency)
// or hand it to a terminal (lazy commit, the DORA pattern).
func (m *Manager) Commit(t *platform.Task, tx *Txn) *sim.Signal {
	done := sim.NewSignal(m.env)
	m.CommitTo(t, tx, done)
	return done
}

// CommitTo is Commit firing a signal the caller owns, new or Reset: the
// commit arms it with one completion per shard in the vector.
func (m *Manager) CommitTo(t *platform.Task, tx *Txn, done *sim.Signal) {
	m.mustBeActive(tx)
	t.Exec(stats.CompXct, m.cfg.CommitInstr)
	rec := wal.Record{Txn: tx.ID, Type: wal.RecCommit}
	anchor := m.anchorShard(t, tx)
	// The commit record carries the shard vector whenever recovery will
	// need it: any transaction whose data records live on a shard other
	// than the anchor, which is the lowest touched shard.
	if len(tx.Shards) > 1 {
		tx.vec = wal.EncodeShardVec(tx.vec[:0], tx.Shards)
		rec.After = tx.vec
	}
	lsn := m.append(t, anchor, rec)
	tx.note(anchor, lsn) // the anchor entry now covers the commit record
	tx.State = Committed
	tx.dropUndo()
	tx.durable = m.log.CommitDurableIn(tx.durable, tx.Shards, done)
}

// Abort rolls the transaction back: apply is called for each undo record in
// reverse order (the engine routes it to the right table), then an ABORT
// record is appended to the anchor shard. Abort does not wait for
// durability.
func (m *Manager) Abort(t *platform.Task, tx *Txn, apply func(u UndoRec)) {
	m.mustBeActive(tx)
	t.Exec(stats.CompXct, m.cfg.AbortInstr)
	for i := len(tx.Undo) - 1; i >= 0; i-- {
		apply(tx.Undo[i])
	}
	tx.LastLSN = m.append(t, m.anchorShard(t, tx), wal.Record{Txn: tx.ID, Type: wal.RecAbort})
	tx.State = Aborted
	tx.dropUndo()
}

func (m *Manager) mustBeActive(tx *Txn) {
	if tx.State != Active {
		panic(fmt.Sprintf("txn: operation on non-active transaction %d (state %d)", tx.ID, tx.State))
	}
}
