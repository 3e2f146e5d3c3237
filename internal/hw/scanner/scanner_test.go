package scanner

import (
	"testing"

	"bionicdb/internal/columnar"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func fixture(rows int) (*sim.Env, *platform.Platform, *Engine, *columnar.Table) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	e := New(pl, DefaultConfig())
	tbl := columnar.NewTable(pl, "stock",
		columnar.U64Col("id"), columnar.U64Col("qty"), columnar.U64Col("supplier"))
	for i := 0; i < rows; i++ {
		tbl.Upsert(uint64(i), uint64(i%100), uint64(i%7))
	}
	return env, pl, e, tbl
}

func lowQty(t *columnar.Table, pos int) bool { return t.U64At("qty", pos) < 10 }

func TestScanReturnsQualifyingRows(t *testing.T) {
	env, pl, e, tbl := fixture(1000)
	env.Spawn("q", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		out := e.Scan(task, tbl, lowQty, []string{"id", "qty"})
		if len(out) != 100 { // qty < 10 hits 10% of i%100
			t.Errorf("qualifying rows = %d, want 100", len(out))
		}
		for _, pos := range out {
			if tbl.U64At("qty", pos) >= 10 {
				t.Error("non-qualifying row returned")
				break
			}
		}
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Selectivity() != 0.1 {
		t.Fatalf("selectivity %v", e.Selectivity())
	}
}

func TestHardwareScanMovesFewerPCIeBytes(t *testing.T) {
	env, pl, e, tbl := fixture(100000)
	var hwBytes, swBytes int64
	env.Spawn("q", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		before := pl.PCIe.Bytes()
		e.Scan(task, tbl, lowQty, []string{"id"})
		hwBytes = pl.PCIe.Bytes() - before
		before = pl.PCIe.Bytes()
		e.SoftwareScan(task, tbl, lowQty, []string{"id"})
		swBytes = pl.PCIe.Bytes() - before
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if hwBytes*3 > swBytes {
		t.Fatalf("hw scan moved %d PCIe bytes vs sw %d; want far fewer", hwBytes, swBytes)
	}
}

func TestScansAgree(t *testing.T) {
	env, pl, e, tbl := fixture(5000)
	env.Spawn("q", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		hw := e.Scan(task, tbl, lowQty, nil)
		sw := e.SoftwareScan(task, tbl, lowQty, nil)
		if len(hw) != len(sw) {
			t.Errorf("hw %d rows, sw %d rows", len(hw), len(sw))
			return
		}
		for i := range hw {
			if hw[i] != sw[i] {
				t.Error("scan results diverge")
				return
			}
		}
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilPredicateScansAll(t *testing.T) {
	env, pl, e, tbl := fixture(50)
	env.Spawn("q", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		out := e.Scan(task, tbl, nil, nil)
		if len(out) != 50 {
			t.Errorf("got %d rows", len(out))
		}
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnarUpsertReplaces(t *testing.T) {
	_, _, _, tbl := fixture(10)
	tbl.Upsert(3, 999, 42)
	pos, ok := tbl.Get(3)
	if !ok {
		t.Fatal("key 3 missing")
	}
	if tbl.U64At("qty", pos) != 999 || tbl.U64At("supplier", pos) != 42 {
		t.Fatal("upsert did not replace in place")
	}
	if tbl.Rows() != 10 {
		t.Fatalf("rows=%d after replace", tbl.Rows())
	}
	tbl.Upsert(100, 1, 1)
	if tbl.Rows() != 11 {
		t.Fatalf("rows=%d after append", tbl.Rows())
	}
}

func TestColumnarSchemaValidation(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a table without a key column")
		}
	}()
	columnar.NewTable(pl, "bad")
}

func TestColumnarWidths(t *testing.T) {
	_, _, _, tbl := fixture(100)
	if w := tbl.Column("id").Width(); w != 8 {
		t.Errorf("u64 width %d", w)
	}
	if tbl.RowWidth() != 3*8 {
		t.Errorf("row width %d", tbl.RowWidth())
	}
}
