// Package overlay implements the paper's §5.6 overlay database: the bionic
// engine's replacement for the buffer pool. The overlay is a set of
// index-organized tables living entirely in FPGA-side SG-DRAM ("the overlay
// will consist entirely of various indexes that can be probed by the
// hardware engine"). It caches reads, buffers writes, and bulk-merges
// dirty rows back to the columnar base. The overlay is always fully
// resident: nothing is evicted, so a probe never aborts to software and the
// FPGA-side database files see only the merge daemon's sequential writes.
package overlay

import (
	"bytes"
	"fmt"
	"slices"

	"bionicdb/internal/btree"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// Config tunes the overlay.
type Config struct {
	// MergeInterval is the bulk-merge daemon cadence.
	MergeInterval sim.Duration
	// MergeBatchRows caps rows merged per pass.
	MergeBatchRows int
	// WriteCycles is the overlay-manager unit occupancy per write.
	WriteCycles int
	// MgmtInstr is the CPU-side bookkeeping per overlay operation.
	MgmtInstr int
}

// DefaultConfig returns the calibrated overlay parameters.
func DefaultConfig() Config {
	return Config{
		MergeInterval:  10 * sim.Millisecond,
		MergeBatchRows: 65536,
		WriteCycles:    8,
		MgmtInstr:      60,
	}
}

// Table is one overlay index.
type Table struct {
	ID   uint16
	Tree *btree.Tree
	// MergeFn, when set, applies a merged row to the columnar base. The
	// value is a view of the tree's row and the key the merge daemon's
	// buffer, both valid only for the call: the daemon runs no transaction
	// attempt, so once it parks the tree may reuse the row's bytes
	// (btree.Reclaimer).
	MergeFn func(key, val []byte)

	dirty map[storage.Key]struct{}
}

// Store is the overlay database.
type Store struct {
	cfg   Config
	pl    *platform.Platform
	probe *treeprobe.Engine
	unit  *platform.HWUnit

	tables   map[uint16]*Table
	tableIDs []uint16 // ascending: the order a merge pass visits the tables in

	// AfterMerge, when set, runs at the end of every bulk-merge pass —
	// including passes that found nothing dirty — after the pass's device
	// charges. The HTAP projection mirror uses it to charge its columnar
	// write-back and stamp the projections' freshness each merge interval.
	AfterMerge func(p *sim.Proc)

	nextPage storage.PageID
	merged   int64
	stopped  bool
	traces   btree.TracePool

	idleWriters []*writeWorker           // pooled posted-write completion processes
	rowsPool    sim.ScratchPool[scanRow] // pooled scan materialization buffers

	// The merge daemon's scratch, reused pass after pass (only its process
	// touches them): the keys one table contributes and the key being merged.
	mergeKeys []storage.Key
	mergeKey  []byte

	// rec, when non-nil, records one overlay-merge span per non-empty
	// bulk-merge pass (SetRecorder). Host-side only.
	rec *obs.ShardRec
}

// SetRecorder attaches the flight recorder's span ring. Attaching it changes
// no simulated behavior.
func (s *Store) SetRecorder(rec *obs.ShardRec) { s.rec = rec }

// scanRow is one materialized scan result row.
type scanRow struct{ k, v []byte }

// writeWorker is one pooled posted-write completion process: a single
// goroutine serving many hardware write completions, parked in the store's
// idle list between jobs. Its visits buffer is reused across jobs, so the
// steady-state write path snapshots the caller's trace without allocating.
type writeWorker struct {
	proc     *sim.Proc
	visits   []btree.Visit
	valBytes int
	quit     bool
}

// New creates an overlay store whose probes run on probe. The merge daemon
// is spawned immediately.
func New(pl *platform.Platform, probe *treeprobe.Engine, cfg Config) *Store {
	s := &Store{
		cfg:      cfg,
		pl:       pl,
		probe:    probe,
		unit:     pl.NewHWUnit("overlay-mgr", 4),
		tables:   make(map[uint16]*Table),
		nextPage: 1,
	}
	pl.Env.Spawn("overlay-merge", func(p *sim.Proc) { s.mergeLoop(p) })
	return s
}

// CreateTable registers an overlay index with the given B+Tree order.
func (s *Store) CreateTable(id uint16, order int) *Table {
	if _, dup := s.tables[id]; dup {
		panic(fmt.Sprintf("overlay: duplicate table %d", id))
	}
	t := &Table{
		ID:    id,
		dirty: make(map[storage.Key]struct{}),
	}
	t.Tree = btree.New(btree.Config{
		Order: order,
		NextID: func() storage.PageID {
			id := s.nextPage
			s.nextPage++
			return id
		},
		AddrOf: func(id storage.PageID, size int) uint64 { return s.pl.AllocFPGA(8 << 10) },
	})
	s.tables[id] = t
	s.tableIDs = append(s.tableIDs, id)
	slices.Sort(s.tableIDs)
	return t
}

// TableByID returns a registered table.
func (s *Store) TableByID(id uint16) *Table { return s.tables[id] }

// Get probes the overlay through the hardware engine: one probe, which
// always completes because every node is resident.
func (s *Store) Get(t *platform.Task, tableID uint16, key []byte) (val []byte, ok bool) {
	res := s.probe.Probe(t, s.tables[tableID].Tree, key)
	return res.Val, res.Found
}

// Put inserts or replaces a row. The functional update runs immediately
// (the table's tree copies key and val, so the caller may reuse them);
// timing is a hardware probe for positioning plus overlay-manager write
// work, with splits (SMOs) charged to software as §5.3 requires.
func (s *Store) Put(t *platform.Task, tableID uint16, key, val []byte) (prev []byte, existed bool) {
	tbl := s.tables[tableID]
	tr := s.traces.Get()
	prev, existed = tbl.Tree.Put(key, val, tr)
	s.chargeWrite(t, tbl, tr, len(val))
	s.traces.Put(tr)
	tbl.dirty[storage.KeyOf(key)] = struct{}{}
	return prev, existed
}

// Delete removes a row. The key also leaves the dirty set, so the merge
// path writes nothing for it: no tombstone reaches the base.
func (s *Store) Delete(t *platform.Task, tableID uint16, key []byte) (val []byte, ok bool) {
	tbl := s.tables[tableID]
	tr := s.traces.Get()
	val, ok = tbl.Tree.Delete(key, tr)
	s.chargeWrite(t, tbl, tr, 0)
	s.traces.Put(tr)
	if ok {
		delete(tbl.dirty, storage.KeyOf(key))
	}
	return val, ok
}

// ScanRange streams [from, to) from the overlay: a hardware descent plus
// sequential SG-DRAM leaf reads, returning the rows via fn. Rows are
// materialized before fn runs, so fn may safely perform further (parking)
// operations without racing tree mutations.
func (s *Store) ScanRange(t *platform.Task, tableID uint16, from, to []byte, fn func(key, val []byte) bool) {
	tbl := s.tables[tableID]
	tr := s.traces.Get()
	defer s.traces.Put(tr)
	t.Exec(stats.CompBtree, 100)
	sc := t.Script()
	s.pl.PCIe.AddTransfer(sc, 64)
	sc.Run()
	rows := s.rowsPool.Get()
	defer func() { s.rowsPool.Put(rows) }()
	rowBytes := 0
	tbl.Tree.Scan(from, to, tr, func(k, v []byte) bool {
		rows = append(rows, scanRow{k, v})
		rowBytes += len(k) + len(v)
		return true
	})
	for _, v := range tr.Visits {
		s.pl.SGDRAM.AddTransfer(sc, v.Bytes)
	}
	s.unit.AddWork(sc, len(rows)+len(tr.Visits)*2)
	s.pl.PCIe.AddTransfer(sc, 64+rowBytes)
	sc.Run()
	t.Exec(stats.CompBtree, 60+len(rows)/4)
	for _, r := range rows {
		if !fn(r.k, r.v) {
			return
		}
	}
}

// LoadRaw inserts a row during population: no timing, no dirty marking
// (freshly loaded data is considered merged).
func (s *Store) LoadRaw(tableID uint16, key, val []byte) {
	s.tables[tableID].Tree.Put(key, val, nil)
}

// chargeWrite accounts a mutating tree operation. Writes are POSTED: the
// CPU builds a descriptor and rings a doorbell (a posted PCIe write — no
// round trip), then the hardware walks, writes and completes on its own
// time in a spawned completion process. Durability is the log's job, so
// nothing on the transaction's critical path waits for the overlay write —
// the paper's asynchronous-medium argument applied to the write path.
// Splits (SMOs) stay synchronous in software, as §5.3 prescribes.
func (s *Store) chargeWrite(t *platform.Task, tbl *Table, tr *btree.Trace, valBytes int) {
	// Descriptor build + doorbell: tens of instructions, no PCIe wait.
	t.Exec(stats.CompBpool, s.cfg.MgmtInstr)
	if tr.Splits > 0 {
		// SMOs run in software: descriptors cross PCIe, node builds hit
		// SG-DRAM, CPU does the bookkeeping.
		t.Exec(stats.CompBtree, 1200*tr.Splits)
		sc := t.Script()
		s.pl.PCIe.AddTransfer(sc, 256*tr.Splits)
		s.pl.SGDRAM.AddTransfer(sc, s.pl.Cfg.PageSize*tr.Splits)
		sc.Run()
	}
	// The hardware's half of the write, off the critical path, on a pooled
	// completion process. The trace is snapshotted into the worker's
	// reusable buffer because the caller may reuse it. A pool Resume and a
	// fresh Spawn each push exactly one wake event at the current time, so
	// pooling never changes the event schedule.
	if n := len(s.idleWriters); n > 0 {
		w := s.idleWriters[n-1]
		s.idleWriters = s.idleWriters[:n-1]
		w.visits = append(w.visits[:0], tr.Visits...)
		w.valBytes = valBytes
		s.pl.Env.Resume(w.proc)
		return
	}
	w := &writeWorker{visits: append([]btree.Visit(nil), tr.Visits...), valBytes: valBytes}
	w.proc = s.pl.Env.Spawn("overlay.write", func(p *sim.Proc) {
		for {
			valBytes := w.valBytes
			sc := p.Script()
			s.pl.PCIe.AddTransfer(sc, 64+valBytes)
			snap := btree.Trace{Visits: w.visits}
			s.probe.AddWalk(sc, &snap)
			s.unit.AddWork(sc, s.cfg.WriteCycles+valBytes/8)
			s.pl.SGDRAM.AddTransfer(sc, 64+valBytes)
			sc.Run()
			if s.stopped {
				return
			}
			s.idleWriters = append(s.idleWriters, w)
			p.Suspend()
			if w.quit {
				return
			}
		}
	})
}

// mergeLoop is the bulk-merge daemon: every interval it folds dirty rows
// into the columnar base in batches, charging sequential SG-DRAM reads and
// database-file writes.
func (s *Store) mergeLoop(p *sim.Proc) {
	for {
		p.Wait(s.cfg.MergeInterval)
		if s.stopped {
			s.mergeOnce(p) // final drain
			return
		}
		s.mergeOnce(p)
	}
}

func (s *Store) mergeOnce(p *sim.Proc) {
	mergeStart := p.Now()
	budget := s.cfg.MergeBatchRows
	totalBytes := 0
	// Tables and dirty keys merge in sorted order: which rows a pass picks
	// decides its I/O timing, so the choice must be a pure function of
	// simulation state, never Go's randomized map order.
	for _, id := range s.tableIDs {
		tbl := s.tables[id]
		if budget <= 0 {
			break
		}
		keys := smallestDirty(tbl.dirty, budget, s.mergeKeys[:0])
		drained := len(keys) == len(tbl.dirty)
		for i := range keys {
			s.mergeKey = append(s.mergeKey[:0], keys[i].Bytes()...)
			val, ok := tbl.Tree.Get(s.mergeKey, nil)
			if ok && tbl.MergeFn != nil {
				tbl.MergeFn(s.mergeKey, val)
			}
			totalBytes += len(s.mergeKey) + len(val)
			if !drained {
				delete(tbl.dirty, keys[i])
			}
			s.merged++
		}
		if drained {
			// Deleting every key one by one leaves tombstones the map regrows
			// over; a pass that takes them all clears it instead.
			clear(tbl.dirty)
		}
		budget -= len(keys)
		clear(keys) // the keys are merged: do not pin them until the next pass
		s.mergeKeys = keys
	}
	if totalBytes != 0 {
		// One coalesced sequential pass: read the batch from SG-DRAM, write
		// one run to the database files (a single seek, not one per table).
		sc := p.Script()
		s.pl.SGDRAM.AddTransfer(sc, totalBytes)
		s.pl.Disk.AddTransfer(sc, totalBytes)
		sc.Run()
	}
	if s.AfterMerge != nil {
		s.AfterMerge(p)
	}
	if end := p.Now(); end > mergeStart {
		s.rec.Record(obs.Span{Start: mergeStart, End: end, Kind: obs.KindMerge})
	}
}

// smallestDirty returns the budget lexicographically-smallest dirty keys
// in sorted order, built in h's storage (h must be empty). A bounded
// max-heap keeps the scan O(D log budget) instead of sorting the whole dirty
// set, which can be far larger than one merge pass's budget.
func smallestDirty(dirty map[storage.Key]struct{}, budget int, h []storage.Key) []storage.Key {
	if budget <= 0 {
		return h
	}
	// h is a max-heap: h[0] is the largest of the budget smallest so far.
	greater := func(i, j int) bool { return compareKeys(&h[i], &h[j]) > 0 }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && greater(l, big) {
				big = l
			}
			if r < len(h) && greater(r, big) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for k := range dirty {
		if len(h) < budget {
			h = append(h, k)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !greater(i, parent) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
		} else if compareKeys(&k, &h[0]) < 0 {
			h[0] = k
			siftDown(0)
		}
	}
	slices.SortFunc(h, func(a, b storage.Key) int { return compareKeys(&a, &b) })
	return h
}

// compareKeys orders dirty keys lexicographically by their bytes.
func compareKeys(a, b *storage.Key) int { return bytes.Compare(a.Bytes(), b.Bytes()) }

// Stop quiesces the merge daemon after a final drain and releases the
// pooled write-completion processes.
func (s *Store) Stop() {
	s.stopped = true
	for _, w := range s.idleWriters {
		w.quit = true
		s.pl.Env.Resume(w.proc)
	}
	s.idleWriters = nil
}

// Merged returns the number of rows bulk-merged to the base.
func (s *Store) Merged() int64 { return s.merged }

// DirtyRows returns rows awaiting merge.
func (s *Store) DirtyRows() int {
	n := 0
	for _, tbl := range s.tables {
		n += len(tbl.dirty)
	}
	return n
}
