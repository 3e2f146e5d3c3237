package core_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// recorder is a Tx and AccessCtx double. Reads are answered from the rows
// Populate loaded, writes are recorded and not applied, and each phase runs
// its actions in order, stopping at the first no vote as the conventional
// engine does. Everything the logic asks of it, phases with their actions'
// tables, keys and NoLock flags, every access with its table, key and value,
// and every vote, goes into one byte trace. It allocates nothing once its
// trace and arena have grown.
type recorder struct {
	tables map[uint16][]row // each sorted by key
	arena  storage.Arena
	trace  []byte
}

type row struct{ key, val []byte }

func compareRowKey(r row, key []byte) int { return bytes.Compare(r.key, key) }

// newRecorder populates wl's database into a recorder, copying each key and
// row as a store does.
func newRecorder(wl core.Workload) *recorder {
	rec := &recorder{tables: make(map[uint16][]row)}
	wl.Populate(func(table uint16, key, val []byte) {
		rec.tables[table] = append(rec.tables[table], row{bytes.Clone(key), bytes.Clone(val)})
	}, sim.NewRand(1))
	for _, rows := range rec.tables {
		slices.SortFunc(rows, func(a, b row) int { return bytes.Compare(a.key, b.key) })
	}
	return rec
}

// run runs one attempt of logic, as an engine does: the arena reset first.
// The trace it returns is overwritten by the next run.
func (rec *recorder) run(logic core.TxnLogic) []byte {
	rec.arena.Reset()
	rec.trace = rec.trace[:0]
	rec.vote(logic(rec))
	return rec.trace
}

func (rec *recorder) note(op byte, table uint16, key, val []byte) {
	rec.trace = append(rec.trace, op)
	rec.trace = binary.BigEndian.AppendUint16(rec.trace, table)
	rec.trace = binary.AppendUvarint(rec.trace, uint64(len(key)))
	rec.trace = append(rec.trace, key...)
	rec.trace = binary.AppendUvarint(rec.trace, uint64(len(val)))
	rec.trace = append(rec.trace, val...)
}

func (rec *recorder) vote(ok bool) {
	if ok {
		rec.trace = append(rec.trace, 'y')
	} else {
		rec.trace = append(rec.trace, 'n')
	}
}

// find returns the row under key and whether it exists.
func (rec *recorder) find(table uint16, key []byte) ([]byte, bool) {
	rows := rec.tables[table]
	i, ok := slices.BinarySearchFunc(rows, key, compareRowKey)
	if !ok {
		return nil, false
	}
	return rows[i].val, true
}

func (rec *recorder) Arena() *storage.Arena { return &rec.arena }

func (rec *recorder) Phase(actions ...core.Action) bool {
	rec.trace = binary.AppendUvarint(append(rec.trace, 'P'), uint64(len(actions)))
	for _, a := range actions {
		op := byte('A')
		if a.NoLock {
			op = 'a'
		}
		rec.note(op, a.Table, a.Key, nil)
	}
	for _, a := range actions {
		ok := a.Body(rec)
		rec.vote(ok)
		if !ok {
			return false
		}
	}
	return true
}

func (rec *recorder) Read(table uint16, key []byte) ([]byte, bool) {
	rec.note('R', table, key, nil)
	return rec.find(table, key)
}

func (rec *recorder) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	rec.note('F', table, key, nil)
	return rec.find(table, key)
}

func (rec *recorder) Update(table uint16, key, val []byte) bool {
	rec.note('U', table, key, val)
	_, ok := rec.find(table, key)
	return ok
}

func (rec *recorder) Insert(table uint16, key, val []byte) bool {
	rec.note('I', table, key, val)
	_, ok := rec.find(table, key)
	return !ok
}

func (rec *recorder) Delete(table uint16, key []byte) bool {
	rec.note('D', table, key, nil)
	_, ok := rec.find(table, key)
	return ok
}

// Scan records its bounds and how many rows it handed fn.
func (rec *recorder) Scan(table uint16, from, to []byte, fn func(key, val []byte) bool) {
	rec.note('S', table, from, to)
	rows := rec.tables[table]
	i, _ := slices.BinarySearchFunc(rows, from, compareRowKey)
	n := 0
	for ; i < len(rows) && (to == nil || bytes.Compare(rows[i].key, to) < 0); i++ {
		n++
		if !fn(rows[i].key, rows[i].val) {
			break
		}
	}
	rec.trace = binary.AppendUvarint(append(rec.trace, 'n'), uint64(n))
}

// txnCase is one transaction type, or a single-type variant drawn through its
// NextTxn, over the database db populates.
type txnCase struct {
	name string
	db   core.Workload
	draw func(r *sim.Rand) core.TxnLogic
}

// txnCases lists every TATP, TPC-C and YCSB transaction type and the
// single-type variants, each workload at a small scale.
func txnCases() []txnCase {
	tp := tpcc.New(tpcc.SmallConfig())
	ta := tatp.New(tatp.Config{Subscribers: 200})
	yc := ycsb.New(ycsb.Config{Records: 1000, MaxScanLen: 20, ReadPct: 1, UpdatePct: 1, ScanPct: 1, RMWPct: 1})
	next := func(wl core.Workload) func(*sim.Rand) core.TxnLogic {
		return func(r *sim.Rand) core.TxnLogic {
			_, logic := wl.NextTxn(r)
			return logic
		}
	}
	return []txnCase{
		{"tpcc/NewOrder", tp, tp.NewOrder},
		{"tpcc/Payment", tp, tp.Payment},
		{"tpcc/OrderStatus", tp, tp.OrderStatus},
		{"tpcc/Delivery", tp, tp.Delivery},
		{"tpcc/StockLevel", tp, tp.StockLevel},
		{"tpcc-neworder", tp, next(tp.NewOrderOnly())},
		{"tpcc-stocklevel", tp, next(tp.StockLevelOnly())},
		{"tatp/GetSubscriberData", ta, ta.GetSubscriberData},
		{"tatp/GetNewDestination", ta, ta.GetNewDestination},
		{"tatp/GetAccessData", ta, ta.GetAccessData},
		{"tatp/UpdateSubscriberData", ta, ta.UpdateSubscriberData},
		{"tatp/UpdateLocation", ta, ta.UpdateLocation},
		{"tatp/InsertCallForwarding", ta, ta.InsertCallForwarding},
		{"tatp/DeleteCallForwarding", ta, ta.DeleteCallForwarding},
		{"tatp-updsubdata", ta, next(ta.UpdateSubDataOnly())},
		{"ycsb/Read", yc, yc.Read},
		{"ycsb/Update", yc, yc.Update},
		{"ycsb/Scan", yc, yc.Scan},
		{"ycsb/ReadModifyWrite", yc, yc.ReadModifyWrite},
	}
}

// recorders returns one populated recorder per case, shared by the cases of
// one workload.
func recorders(cases []txnCase) []*recorder {
	byDB := make(map[core.Workload]*recorder)
	out := make([]*recorder, len(cases))
	for i, c := range cases {
		if byDB[c.db] == nil {
			byDB[c.db] = newRecorder(c.db)
		}
		out[i] = byDB[c.db]
	}
	return out
}

// TestTxnLogicRerunsIdentically runs each drawn logic twice, as an engine
// retries a refused attempt, and requires the same trace both times: the
// same phases, actions, accesses, keys and values. A logic keeps inputs and
// scratch in its stream's input struct, so this fails when an attempt does
// not reset what the previous one computed (NewOrder's order id and amounts,
// StockLevel's item set, Payment's and OrderStatus' id list, Delivery's line
// updates) or reuses a key built in a previous attempt's arena.
func TestTxnLogicRerunsIdentically(t *testing.T) {
	cases := txnCases()
	recs := recorders(cases)
	for i, c := range cases {
		rec, r := recs[i], sim.NewRand(uint64(i)+1)
		var first []byte
		for draw := 0; draw < 300; draw++ {
			logic := c.draw(r)
			first = append(first[:0], rec.run(logic)...)
			if second := rec.run(logic); !bytes.Equal(first, second) {
				t.Errorf("%s, draw %d: the rerun's trace differs from byte %d (%d and %d bytes)",
					c.name, draw, firstDiff(first, second), len(first), len(second))
				break
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestTxnAllocatesNothing pins what drawing and running a transaction
// allocates once its stream's input struct and the recorder have grown:
// nothing. Keys, scan bounds and encoded rows are built in the attempt's
// arena (YCSB's drawn values in the stream's), since the store copies the
// rows it keeps. A closure, a phase's action slice, a scan callback, a
// scratch map or a row built on the heap per transaction breaks it.
func TestTxnAllocatesNothing(t *testing.T) {
	cases := txnCases()
	recs := recorders(cases)
	for i, c := range cases {
		rec, r := recs[i], sim.NewRand(uint64(i)+1)
		for draw := 0; draw < 300; draw++ { // grow the struct's and the recorder's scratch
			rec.run(c.draw(r))
		}
		const draws = 200
		allocs := testing.AllocsPerRun(1, func() {
			for draw := 0; draw < draws; draw++ {
				rec.run(c.draw(r))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f heap objects over %d transactions, want 0", c.name, allocs, draws)
		}
	}
}
