// Package ycsb implements the YCSB core workload (Cooper et al., SoCC
// 2010) over the engine family: a single usertable of dense uint64 keys
// and a configurable read/update/scan/read-modify-write operation mix with
// scrambled-zipfian key choice. Where TATP and TPC-C exercise the paper's
// telecom and warehouse shapes, YCSB gives the sweep grid a key-value
// shape whose skew and read/write balance are free parameters — the
// "scenario diversity" axis of the ROADMAP.
package ycsb

import (
	"bionicdb/internal/core"
	"bionicdb/internal/dora"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload"
)

// TUser is the usertable id.
const TUser uint16 = 1

// Config scales and shapes the workload. The four *Pct fields are relative
// weights (they need not sum to 100); all-zero weights fall back to the
// Workload A 50/50 read/update mix.
type Config struct {
	// Records is the usertable row count (default 100000).
	Records int
	// FieldSize is the value payload in bytes (default 100).
	FieldSize int

	// Operation mix weights.
	ReadPct   int // point read
	UpdatePct int // blind full-value overwrite
	ScanPct   int // short range scan, read-committed like TPC-C StockLevel
	RMWPct    int // read-modify-write on one key

	// MaxScanLen bounds scan length; each scan draws uniformly from
	// [1, MaxScanLen] (default 100).
	MaxScanLen int
	// Theta is the zipfian skew in (0, 1); 0 uses YCSB's default 0.99.
	Theta float64
}

// DefaultConfig returns YCSB Workload A at 100k records: 50/50
// read/update, zipfian theta 0.99.
func DefaultConfig() Config { return WorkloadA() }

// WorkloadA is the update-heavy mix: 50% read, 50% update.
func WorkloadA() Config {
	return Config{Records: 100000, FieldSize: 100, ReadPct: 50, UpdatePct: 50, MaxScanLen: 100, Theta: 0.99}
}

// WorkloadB is the read-mostly mix: 95% read, 5% update.
func WorkloadB() Config {
	c := WorkloadA()
	c.ReadPct, c.UpdatePct = 95, 5
	return c
}

// WorkloadC is read-only: 100% read.
func WorkloadC() Config {
	c := WorkloadA()
	c.ReadPct, c.UpdatePct = 100, 0
	return c
}

// WorkloadE is the short-range mix: 95% scan, 5% update (the standard E
// inserts new rows; over a fixed keyspace the write half becomes updates).
func WorkloadE() Config {
	c := WorkloadA()
	c.ReadPct, c.UpdatePct, c.ScanPct = 0, 5, 95
	return c
}

// WorkloadF is the read-modify-write mix: 50% read, 50% RMW.
func WorkloadF() Config {
	c := WorkloadA()
	c.ReadPct, c.UpdatePct, c.RMWPct = 50, 0, 50
	return c
}

// Workload implements core.Workload. It keeps each stream's transaction
// inputs, so one Workload backs one run at a time.
type Workload struct {
	cfg     Config
	zipf    *zipfian
	streams workload.PerStream[txns]
}

// New creates a YCSB workload, filling zero Config fields with defaults.
func New(cfg Config) *Workload {
	if cfg.Records < 1 {
		cfg.Records = DefaultConfig().Records
	}
	if cfg.FieldSize < 1 {
		cfg.FieldSize = DefaultConfig().FieldSize
	}
	if cfg.MaxScanLen < 1 {
		cfg.MaxScanLen = DefaultConfig().MaxScanLen
	}
	if cfg.ReadPct+cfg.UpdatePct+cfg.ScanPct+cfg.RMWPct <= 0 {
		cfg.ReadPct, cfg.UpdatePct = 50, 50
	}
	if cfg.Theta <= 0 || cfg.Theta >= 1 {
		cfg.Theta = 0.99
	}
	return &Workload{
		cfg:     cfg,
		zipf:    newZipfian(uint64(cfg.Records), cfg.Theta),
		streams: workload.PerStream[txns]{New: newTxns},
	}
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "ycsb" }

// Records returns the usertable row count.
func (w *Workload) Records() int { return w.cfg.Records }

// Tables implements core.Workload.
func (w *Workload) Tables() []core.TableDef {
	return []core.TableDef{{ID: TUser, Name: "usertable", Order: 128}}
}

// Scheme implements core.Workload: keys partition by value, the record is
// the entity.
func (w *Workload) Scheme(partitions int) core.PartitionScheme {
	return core.PartitionScheme{
		Partitions: partitions,
		Route: func(table uint16, key []byte) int {
			return int(storage.DecodeUint64(key) % uint64(partitions))
		},
		Entity: func(table uint16, key []byte) dora.Entity {
			return dora.Entity1('u', storage.DecodeUint64(key))
		},
	}
}

// keyIn builds record i's key in the arena a: the transaction path and
// Populate build theirs in the attempt's (or the row's) arena, where they
// cost no allocation.
func keyIn(a *storage.Arena, i uint64) []byte { return a.Uint64Key(i) }

// Populate implements core.Workload: Records rows of FieldSize random
// bytes. Each key and row is built in one arena, reset per row: the engine's
// tree copies the keys and rows it keeps, so a fresh slice per row would be
// allocated twice.
func (w *Workload) Populate(load func(table uint16, key, val []byte), r *sim.Rand) {
	var arena storage.Arena
	for i := 0; i < w.cfg.Records; i++ {
		arena.Reset()
		load(TUser, keyIn(&arena, uint64(i)), w.value(&arena, r))
	}
}

// value draws a FieldSize payload in a.
func (w *Workload) value(a *storage.Arena, r *sim.Rand) []byte {
	b := a.Alloc(w.cfg.FieldSize)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// nextKey draws the next operation's record id.
func (w *Workload) nextKey(r *sim.Rand) uint64 {
	return scramble(w.zipf.Next(r), uint64(w.cfg.Records))
}

// NextTxn implements core.Workload.
func (w *Workload) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	c := &w.cfg
	p := r.Intn(c.ReadPct + c.UpdatePct + c.ScanPct + c.RMWPct)
	switch {
	case p < c.ReadPct:
		return "Read", w.Read(r)
	case p < c.ReadPct+c.UpdatePct:
		return "Update", w.Update(r)
	case p < c.ReadPct+c.UpdatePct+c.ScanPct:
		return "Scan", w.Scan(r)
	default:
		return "ReadModifyWrite", w.ReadModifyWrite(r)
	}
}

// Transactions. Each type is an input struct that its exported method fills
// with the draws from r, returning the struct's logic, which stays valid
// until r's next draw. The struct belongs to r (txns); its logic and action
// body are method values bound once, in bind, so an attempt only builds its
// keys in the attempt's arena and hands Phase the struct's own action array.

// txns is one stream's transaction inputs, one struct per type, and the
// arena the stream's drawn values live in until its next draw: the store
// copies the row an Update writes, so the value need not outlive the
// transaction.
type txns struct {
	read   read
	update update
	scan   scan
	rmw    readModifyWrite
	vals   storage.Arena
}

// drawValue draws a value into s's arena, ending the previous draw's.
func (w *Workload) drawValue(s *txns, r *sim.Rand) []byte {
	s.vals.Reset()
	return w.value(&s.vals, r)
}

func newTxns() *txns {
	t := new(txns)
	t.read.bind()
	t.update.bind()
	t.scan.bind()
	t.rmw.bind()
	return t
}

// Read returns a single-key point read.
func (w *Workload) Read(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).read
	t.id = w.nextKey(r)
	return t.logic
}

type read struct {
	id    uint64
	act   [1]core.Action // Key: the record
	logic core.TxnLogic
}

func (t *read) bind() { t.logic, t.act[0] = t.run, core.Action{Table: TUser, Body: t.body} }

func (t *read) run(tx core.Tx) bool {
	t.act[0].Key = keyIn(tx.Arena(), t.id)
	return tx.Phase(t.act[:]...)
}

func (t *read) body(c core.AccessCtx) bool {
	c.Read(TUser, t.act[0].Key)
	return true
}

// Update returns a blind full-value overwrite of one key.
func (w *Workload) Update(r *sim.Rand) core.TxnLogic {
	s := w.streams.Of(r)
	t := &s.update
	t.id = w.nextKey(r)
	t.val = w.drawValue(s, r)
	return t.logic
}

type update struct {
	id    uint64
	val   []byte // in the stream's arena, until its next draw
	act   [1]core.Action
	logic core.TxnLogic
}

func (t *update) bind() { t.logic, t.act[0] = t.run, core.Action{Table: TUser, Body: t.body} }

func (t *update) run(tx core.Tx) bool {
	t.act[0].Key = keyIn(tx.Arena(), t.id)
	return tx.Phase(t.act[:]...)
}

func (t *update) body(c core.AccessCtx) bool { return c.Update(TUser, t.act[0].Key, t.val) }

// Scan returns a short range scan of up to MaxScanLen rows starting at a
// drawn key. Keys are dense, so [start, start+len) covers exactly the
// requested rows (clipped at the keyspace end). Like TPC-C StockLevel it
// runs without the entity lock: the rows it passes may be owned by other
// partitions, which the spec's read-committed scans permit.
func (w *Workload) Scan(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).scan
	t.start = w.nextKey(r)
	n := uint64(r.Range(1, w.cfg.MaxScanLen))
	t.end = min(t.start+n, uint64(w.cfg.Records))
	return t.logic
}

type scan struct {
	start, end uint64
	endKey     []byte
	act        [1]core.Action // Key: the first record
	logic      core.TxnLogic
}

func (t *scan) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TUser, NoLock: true, Body: t.body}
}

func (t *scan) run(tx core.Tx) bool {
	t.act[0].Key, t.endKey = keyIn(tx.Arena(), t.start), keyIn(tx.Arena(), t.end)
	return tx.Phase(t.act[:]...)
}

func (t *scan) body(c core.AccessCtx) bool {
	c.Scan(TUser, t.act[0].Key, t.endKey, visit)
	return true
}

// visit is Scan's row callback: the scan's cost is in reaching the rows.
func visit(_, _ []byte) bool { return true }

// ReadModifyWrite returns a read of one key followed by a full-value write
// of the same key inside the same action.
func (w *Workload) ReadModifyWrite(r *sim.Rand) core.TxnLogic {
	s := w.streams.Of(r)
	t := &s.rmw
	t.id = w.nextKey(r)
	t.val = w.drawValue(s, r)
	return t.logic
}

type readModifyWrite struct {
	id    uint64
	val   []byte // in the stream's arena, until its next draw
	act   [1]core.Action
	logic core.TxnLogic
}

func (t *readModifyWrite) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TUser, Body: t.body}
}

func (t *readModifyWrite) run(tx core.Tx) bool {
	t.act[0].Key = keyIn(tx.Arena(), t.id)
	return tx.Phase(t.act[:]...)
}

func (t *readModifyWrite) body(c core.AccessCtx) bool {
	if _, ok := c.ReadForUpdate(TUser, t.act[0].Key); !ok {
		return false
	}
	return c.Update(TUser, t.act[0].Key, t.val)
}
