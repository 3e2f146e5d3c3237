package columnar

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

func fixture() (*platform.Platform, *Table) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	t := NewTable(pl, "t", U64Col("id"), U64Col("qty"), U64Col("price"))
	return pl, t
}

func TestUpsertAppendAndReplace(t *testing.T) {
	_, tbl := fixture()
	tbl.Upsert(1, 10, 100)
	tbl.Upsert(2, 20, 200)
	if tbl.Rows() != 2 {
		t.Fatalf("rows=%d", tbl.Rows())
	}
	tbl.Upsert(1, 99, 999)
	if tbl.Rows() != 2 {
		t.Fatalf("replace grew table: %d", tbl.Rows())
	}
	pos, ok := tbl.Get(1)
	if !ok || tbl.U64At("qty", pos) != 99 || tbl.U64At("price", pos) != 999 {
		t.Fatal("replace did not land")
	}
	if _, ok := tbl.Get(42); ok {
		t.Fatal("phantom row")
	}
}

func TestColumnsAddressedInFPGASpace(t *testing.T) {
	_, tbl := fixture()
	for _, c := range tbl.Columns() {
		if !platform.IsFPGAAddr(c.Addr()) {
			t.Fatalf("column %s not in FPGA address space", c.Name)
		}
	}
}

func TestWidths(t *testing.T) {
	_, tbl := fixture()
	if tbl.Column("id").Width() != 8 {
		t.Fatal("u64 width")
	}
	if tbl.RowWidth() != 3*8 {
		t.Fatalf("row width %d", tbl.RowWidth())
	}
}

func TestBadUpsertArityPanics(t *testing.T) {
	_, tbl := fixture()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tbl.Upsert(1, 1) // missing price column
}

func TestDuplicateColumnPanics(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(pl, "bad", U64Col("x"), U64Col("x"))
}

// Addr returns the column's SG-DRAM base address.
func (c *Column) Addr() uint64 { return c.addr }
