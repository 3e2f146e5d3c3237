package core

import (
	"cmp"
	"fmt"
	"slices"

	"bionicdb/internal/btree"
	"bionicdb/internal/bufferpool"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/txn"
	"bionicdb/internal/wal"
)

// rowStore is the one row store under every engine, with two backends:
//
//   - host: B+Trees in host memory behind the buffer pool, probed by the CPU.
//     Page latches are optional: the conventional engine latches every node
//     it visits (crabbing approximated by striped latches), the data-oriented
//     engines need none (PLP: the partition owns the page);
//   - overlay: the SG-DRAM trees of the overlay database, probed by the
//     tree-probe unit. The two units come as a pair (see NewBionic).
//
// Every timed method charges the caller's task; Load, ReadRaw, ScanRaw,
// Tables and Warm are the engines' untimed population, verification and
// warm-up surface.
//
// Every tree shares the store's reclaimer, so a row a transaction replaces or
// deletes gives its bytes to a later row of its length once every attempt
// that could hold a view of it has ended; submit opens and closes the
// attempts.
type rowStore struct {
	trees map[uint16]*btree.Tree // the host trees, or the overlay's
	rc    btree.Reclaimer

	pool    *bufferpool.Pool // host backend
	latches []*sim.Resource  // host backend, nil without page latches

	ov *overlay.Store // overlay backend

	traces btree.TracePool
	kvs    sim.ScratchPool[kvPair]
}

// newHostRows builds the host backend over pool with the given number of
// page-latch stripes (0 for none), one tree per table on disk pages dm
// allocates.
func newHostRows(pl *platform.Platform, dm *storage.DiskManager, pool *bufferpool.Pool, tables []TableDef, stripes int) *rowStore {
	r := &rowStore{trees: make(map[uint16]*btree.Tree, len(tables)), pool: pool}
	for i := 0; i < stripes; i++ {
		r.latches = append(r.latches, sim.NewResource(pl.Env, fmt.Sprintf("page-latch-%d", i), 1))
	}
	for _, def := range tables {
		t := btree.New(btree.Config{
			Order:  def.Order,
			NextID: dm.Allocate,
			AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocHost(pl.Cfg.PageSize) },
		})
		t.SetReclaimer(&r.rc)
		r.trees[def.ID] = t
	}
	return r
}

// newBufferPool is the host backend's buffer pool, built where each engine
// has always built it (its frame table takes host address space).
func newBufferPool(pl *platform.Platform) *bufferpool.Pool {
	return bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(1<<18, pl.Cfg.PageSize))
}

// newOverlayRows builds the overlay backend: one overlay table per table.
func newOverlayRows(ov *overlay.Store, tables []TableDef) *rowStore {
	r := &rowStore{trees: make(map[uint16]*btree.Tree, len(tables)), ov: ov}
	for _, def := range tables {
		t := ov.CreateTable(def.ID, def.Order).Tree
		t.SetReclaimer(&r.rc)
		r.trees[def.ID] = t
	}
	return r
}

// Load implements Engine (population path: no timing, no logging).
func (r *rowStore) Load(table uint16, key, val []byte) {
	if r.ov != nil {
		r.ov.LoadRaw(table, key, val)
		return
	}
	r.trees[table].Put(key, val, nil)
}

// ReadRaw implements Engine.
func (r *rowStore) ReadRaw(table uint16, key []byte) ([]byte, bool) {
	return r.trees[table].Get(key, nil)
}

// ScanRaw implements Engine.
func (r *rowStore) ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	r.trees[table].Scan(from, to, nil, fn)
}

// Tables implements Engine: the host trees or the overlay's.
func (r *rowStore) Tables() map[uint16]*btree.Tree { return r.trees }

// Warm implements Engine: every host tree page becomes buffer-pool resident,
// as a production system would be after its working set is faulted in; the
// overlay is resident by construction.
func (r *rowStore) Warm() {
	if r.pool == nil {
		return
	}
	for _, id := range sortedKeys(r.trees) {
		r.trees[id].Pages(func(id storage.PageID, leaf bool) { r.pool.Prewarm(id) })
	}
}

// get reads one row.
func (r *rowStore) get(task *platform.Task, table uint16, key []byte) ([]byte, bool) {
	if r.ov != nil {
		return r.ov.Get(task, table, key)
	}
	tr := r.traces.Get()
	val, ok := r.trees[table].Get(key, tr)
	r.chargeVisits(task, tr, false)
	r.traces.Put(tr)
	return val, ok
}

// put writes one row, returning the row it replaced, if any.
func (r *rowStore) put(task *platform.Task, table uint16, key, val []byte) ([]byte, bool) {
	if r.ov != nil {
		return r.ov.Put(task, table, key, val)
	}
	tr := r.traces.Get()
	prev, existed := r.trees[table].Put(key, val, tr)
	r.chargeVisits(task, tr, true)
	r.traces.Put(tr)
	return prev, existed
}

// restore takes back a put that found the wrong row state: it puts prev back
// when the put replaced a row, and deletes the row the put created when not.
// The host backend restores untimed; the overlay unit charges it.
func (r *rowStore) restore(task *platform.Task, table uint16, key, prev []byte, existed bool) {
	switch {
	case r.ov != nil && existed:
		r.ov.Put(task, table, key, prev)
	case r.ov != nil:
		r.ov.Delete(task, table, key)
	case existed:
		r.trees[table].Put(key, prev, nil)
	default:
		r.trees[table].Delete(key, nil)
	}
}

// delete removes a row, returning it.
func (r *rowStore) delete(task *platform.Task, table uint16, key []byte) ([]byte, bool) {
	if r.ov != nil {
		return r.ov.Delete(task, table, key)
	}
	tr := r.traces.Get()
	val, ok := r.trees[table].Delete(key, tr)
	r.chargeVisits(task, tr, true)
	r.traces.Put(tr)
	return val, ok
}

// scan streams [from, to) to fn. The host backend materializes the rows
// first (the tree must not be walked across park points), charges the
// descent, then per row takes lockRow's lock when lockRow is non-nil and
// charges the row's hand-off before fn; a false lockRow or fn ends the scan.
// The overlay streams through the scan path of its own unit.
func (r *rowStore) scan(task *platform.Task, table uint16, from, to []byte, lockRow func(table uint16, key []byte) bool, fn func(k, v []byte) bool) {
	if r.ov != nil {
		r.ov.ScanRange(task, table, from, to, fn)
		return
	}
	tr := r.traces.Get()
	rows := r.kvs.Get()
	defer func() { r.kvs.Put(rows) }()
	r.trees[table].Scan(from, to, tr, func(k, v []byte) bool {
		rows = append(rows, kvPair{k, v})
		return true
	})
	r.chargeVisits(task, tr, false)
	r.traces.Put(tr)
	for _, row := range rows {
		if lockRow != nil && !lockRow(table, row.k) {
			return
		}
		task.Exec(stats.CompBtree, 20)
		if !fn(row.k, row.v) {
			return
		}
	}
}

// applyUndoRaw reverses one operation without logging (runtime rollback; the
// abort record covers recovery), charged on task like the write it undoes.
func (r *rowStore) applyUndoRaw(task *platform.Task, u txn.UndoRec) {
	switch u.Type {
	case wal.RecInsert:
		r.delete(task, u.Table, u.Key)
	case wal.RecUpdate, wal.RecDelete:
		r.put(task, u.Table, u.Key, u.Before)
	}
}

// chargeVisits converts a host-tree trace into the software cost model: per
// visited node a page latch when the store has them, a buffer-pool fix, the
// node's cache-modelled access and the binary-search instructions (a search
// over a wide node touches several cache lines, one per probe pair), plus
// software split and merge costs. The walk runs as one kernel script
// (pageWalk), so the task's process parks at most once for all of it.
func (r *rowStore) chargeVisits(task *platform.Task, tr *btree.Trace, write bool) {
	w := walks.Get(task)
	w.r, w.tr, w.write, w.i = r, tr, write, 0
	w.begin()
	task.RunChain(w)
	w.tr = nil
}

// pageWalk is one chargeVisits in progress, run as kernel continuations:
// each latch, fix, charge and unfix happens at the instant the process would
// have made it one call at a time, and wherever the process would have
// parked (a latch, the core, a charge reaching the task's burst cap, a
// miss's I/O) the walk appends the step and itself behind it. A task's walk
// is built the first time the task walks a tree.
type pageWalk struct {
	r     *rowStore
	t     *platform.Task
	tr    *btree.Trace
	write bool
	i     int       // the visit in progress; len(tr.Visits) for the tail
	ph    walkPhase // what of visit i is next
	line  int       // the next extra cache line visit i's search touches
	fix   bufferpool.FixOp
	unfix bufferpool.UnfixOp
}

var walks = platform.NewLocal(func(t *platform.Task) *pageWalk { return &pageWalk{t: t} })

// walkPhase is one thing the walk does per visit, in order.
type walkPhase uint8

const (
	walkLatch walkPhase = iota // the latch pair's instructions, core time, the page latch
	walkFix
	walkNode    // the node's first cache line
	walkLines   // the search's further lines, one per probe pair
	walkSearch  // the search's instructions
	walkLeaf    // record locate/copy and slot bookkeeping at the leaf
	walkUnfix   // the unfix; a dirty one at a written leaf
	walkUnlatch // core time, then the latch's release
)

// begin readies visit w.i, or the tail past the last one.
func (w *pageWalk) begin() {
	w.ph = walkLatch
	if w.i == len(w.tr.Visits) {
		return
	}
	if w.r.latches == nil {
		w.ph = walkFix
	}
	v := &w.tr.Visits[w.i]
	w.fix = bufferpool.FixOp{ID: v.ID}
	w.unfix = bufferpool.UnfixOp{ID: v.ID, Dirty: w.write && v.Leaf}
	w.line = 1
}

// Continue implements sim.Continuation: it runs the walk until it has
// appended steps to wait on, then appends itself behind them, or until it is
// over.
func (w *pageWalk) Continue(sc *sim.Script) {
	for !sc.Pending() {
		if w.step(sc) {
			return
		}
	}
	sc.Then(w)
}

// step does the walk's next thing and reports whether the walk is over.
func (w *pageWalk) step(sc *sim.Script) (over bool) {
	r, t := w.r, w.t
	if w.i == len(w.tr.Visits) {
		if w.ph == 0 {
			for _, id := range w.tr.NewPages {
				// Pages born by splits enter the pool without I/O.
				r.pool.Prewarm(id)
			}
			w.ph++
			if w.tr.Splits > 0 {
				t.Exec(stats.CompBtree, 1500*w.tr.Splits)
			}
			return false
		}
		if n := w.tr.Merges + w.tr.Borrows; n > 0 {
			t.Exec(stats.CompBtree, 900*n)
		}
		return true
	}
	v := &w.tr.Visits[w.i]
	switch w.ph {
	case walkLatch:
		t.Exec(stats.CompBtree, 60)
		t.Flush() // empty when the charge reached the burst cap
		sc.Acquire(r.latch(v.ID))
	case walkFix:
		if !r.pool.StepFix(sc, t, &w.fix) {
			return false
		}
	case walkNode:
		t.Access(stats.CompBtree, v.Addr, 64)
	case walkLines:
		if w.line < (v.Cmps+1)/2 {
			t.Access(stats.CompBtree, v.Addr+uint64(64*w.line), 16)
			w.line++
			return false
		}
	case walkSearch:
		t.Exec(stats.CompBtree, 60+14*v.Cmps)
	case walkLeaf:
		if v.Leaf {
			t.Exec(stats.CompBtree, 110)
		}
	case walkUnfix:
		if !r.pool.StepUnfix(sc, t, &w.unfix) {
			return false
		}
	case walkUnlatch:
		t.Flush()
		sc.Release(r.latch(v.ID))
	}
	if w.ph++; w.ph > walkUnlatch || w.ph == walkUnlatch && r.latches == nil {
		w.i++
		w.begin()
	}
	return false
}

// latch returns page id's latch stripe.
func (r *rowStore) latch(id storage.PageID) *sim.Resource {
	return r.latches[uint64(id)%uint64(len(r.latches))]
}

// kvPair is one materialized scan row; the buffers come from the row
// store's sim.ScratchPool, so the steady-state scan path does not allocate.
type kvPair struct{ k, v []byte }

// rowTx is one transaction's data access to the row store from one task:
// each write changes the row, then appends its log record and undo entry.
// It is an AccessCtx but for Arena; the conventional engine wraps it in its
// locks, the data-oriented engines run their actions on it as it is.
type rowTx struct {
	rows *rowStore
	tm   *txn.Manager
	task *platform.Task
	tx   *txn.Txn
}

// Read implements AccessCtx.
func (c *rowTx) Read(table uint16, key []byte) ([]byte, bool) {
	return c.rows.get(c.task, table, key)
}

// ReadForUpdate implements AccessCtx: whatever lock the write needs is
// the caller's to take, so this is a Read.
func (c *rowTx) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	return c.Read(table, key)
}

// Update implements AccessCtx: a put that finds no row is taken back.
func (c *rowTx) Update(table uint16, key, val []byte) bool {
	prev, existed := c.rows.put(c.task, table, key, val)
	if !existed {
		c.rows.restore(c.task, table, key, prev, existed)
		return false
	}
	c.tm.LogUpdate(c.task, c.tx, table, key, prev, val)
	return true
}

// Insert implements AccessCtx: a put that finds a row is taken back.
func (c *rowTx) Insert(table uint16, key, val []byte) bool {
	prev, existed := c.rows.put(c.task, table, key, val)
	if existed {
		c.rows.restore(c.task, table, key, prev, existed)
		return false
	}
	c.tm.LogInsert(c.task, c.tx, table, key, val)
	return true
}

// Delete implements AccessCtx.
func (c *rowTx) Delete(table uint16, key []byte) bool {
	val, ok := c.rows.delete(c.task, table, key)
	if ok {
		c.tm.LogDelete(c.task, c.tx, table, key, val)
	}
	return ok
}

// Scan implements AccessCtx.
func (c *rowTx) Scan(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	c.rows.scan(c.task, table, from, to, nil, fn)
}

// sortedKeys returns a map's keys in ascending order. Simulation-visible
// iteration must never follow Go's randomized map order: the event
// schedule it produces has to be a pure function of the seed, or runs stop
// being reproducible and parallel sweeps stop matching serial ones.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
