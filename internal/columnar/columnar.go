// Package columnar implements the FPGA-side columnar base store of
// Figure 4: the durable, scan-friendly home of table data that the overlay
// (§5.6) bulk-merges into and the enhanced scanner filters. Columns are
// uint64 arrays in SG-DRAM address space; the store is append/replace
// oriented — point reads and writes go through the overlay, not here.
package columnar

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"bionicdb/internal/platform"
)

// Column is one uint64 column: every projection's key and measures are
// fixed-width integers.
type Column struct {
	Name string
	U64  []uint64
	addr uint64
}

// Width returns the encoded width of one value in bytes.
func (c *Column) Width() int { return 8 }

// Table is a columnar table: parallel columns keyed by a dense row index,
// plus a primary-key column for merge matching.
type Table struct {
	Name   string
	cols   []*Column
	byName map[string]*Column
	keyIdx map[uint64]int // primary key -> row position
	rows   int
	pl     *platform.Platform
}

// NewTable creates an empty columnar table. The first column is the primary
// key.
func NewTable(pl *platform.Platform, name string, cols ...*Column) *Table {
	if len(cols) == 0 {
		panic("columnar: a table needs its primary-key column")
	}
	t := &Table{Name: name, cols: cols, byName: make(map[string]*Column), keyIdx: make(map[uint64]int), pl: pl}
	for _, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("columnar: duplicate column %q", c.Name))
		}
		t.byName[c.Name] = c
		c.addr = pl.AllocFPGA(1 << 20)
	}
	return t
}

// U64Col declares a uint64 column.
func U64Col(name string) *Column { return &Column{Name: name} }

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Columns returns the schema in declaration order.
func (t *Table) Columns() []*Column { return t.cols }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// RowWidth returns the average encoded row width, for scan sizing.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.cols {
		w += c.Width()
	}
	return w
}

// Upsert merges one row by primary key: existing rows are replaced in
// place, new rows appended. vals must match the schema minus the key.
// Upsert is the overlay's bulk-merge entry point; it charges no simulated
// time itself (the merge daemon charges device transfers for the batch).
func (t *Table) Upsert(key uint64, vals ...uint64) {
	if len(vals) != len(t.cols)-1 {
		panic(fmt.Sprintf("columnar: %s: %d values for %d non-key columns", t.Name, len(vals), len(t.cols)-1))
	}
	pos, exists := t.keyIdx[key]
	if !exists {
		pos = t.rows
		t.rows++
		t.keyIdx[key] = pos
		t.cols[0].U64 = append(t.cols[0].U64, key)
		for i, c := range t.cols[1:] {
			c.U64 = append(c.U64, vals[i])
		}
		return
	}
	for i, v := range vals {
		t.cols[i+1].U64[pos] = v
	}
}

// Get returns the row position for a primary key.
func (t *Table) Get(key uint64) (pos int, ok bool) {
	pos, ok = t.keyIdx[key]
	return pos, ok
}

// ContentDigest returns a SHA-256 over the table's logical content — every
// column value in primary-key order — independent of physical row order.
// Two tables built by different maintenance paths (incremental merge vs a
// full rebuild) digest identically iff they hold the same rows, which is
// what the HTAP equivalence tests pin.
func (t *Table) ContentDigest() string {
	keys := make([]uint64, 0, t.rows)
	for k := range t.keyIdx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := sha256.New()
	var b8 [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		h.Write(b8[:])
	}
	for _, k := range keys {
		pos := t.keyIdx[k]
		w64(k)
		for _, c := range t.cols[1:] {
			w64(c.U64[pos])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// U64At reads a uint64 cell.
func (t *Table) U64At(col string, pos int) uint64 { return t.byName[col].U64[pos] }
