package scanner

import (
	"fmt"
	"testing"

	"bionicdb/internal/columnar"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// oracle is the naive row-loop the scan paths must agree with.
func oracle(t *columnar.Table, pred Pred) []int {
	var out []int
	for pos := 0; pos < t.Rows(); pos++ {
		if pred == nil || pred(t, pos) {
			out = append(out, pos)
		}
	}
	return out
}

func sameRows(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomTable builds a randomized table: random row count (including empty),
// a random number of uint64 columns, random values.
func randomTable(pl *platform.Platform, r *sim.Rand, name string) *columnar.Table {
	rowChoices := []int{0, 1, 2, 17, 100, 1000}
	rows := rowChoices[r.Intn(len(rowChoices))]
	ncols := 1 + r.Intn(3) // measure columns beyond the key
	cols := []*columnar.Column{columnar.U64Col("key")}
	for c := 0; c < ncols; c++ {
		cols = append(cols, columnar.U64Col(fmt.Sprintf("c%d", c)))
	}
	tbl := columnar.NewTable(pl, name, cols...)
	vals := make([]uint64, ncols)
	for i := 0; i < rows; i++ {
		for c := range vals {
			vals[c] = r.Uint64() % 1000
		}
		tbl.Upsert(uint64(i), vals...)
	}
	return tbl
}

// randomPred draws a predicate: nil (all rows), none-match, all-match, or a
// random threshold on a random column.
func randomPred(t *columnar.Table, r *sim.Rand) Pred {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return func(*columnar.Table, int) bool { return false }
	case 2:
		return func(*columnar.Table, int) bool { return true }
	default:
		ncols := len(t.Columns()) - 1
		col := fmt.Sprintf("c%d", r.Intn(ncols))
		thresh := r.Uint64() % 1000
		return func(t *columnar.Table, pos int) bool {
			return t.U64At(col, pos) < thresh
		}
	}
}

// randomProjection draws a projected column subset: nil, empty, all columns,
// a random subset, or a set including an unknown column name.
func randomProjection(t *columnar.Table, r *sim.Rand) []string {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []string{}
	case 2:
		var all []string
		for _, c := range t.Columns() {
			all = append(all, c.Name)
		}
		return all
	case 3:
		return []string{"no-such-column"}
	default:
		var some []string
		for _, c := range t.Columns() {
			if r.Intn(2) == 0 {
				some = append(some, c.Name)
			}
		}
		return some
	}
}

// TestScanPathsAgreeWithOracle pins Engine.Scan ≡ Engine.SoftwareScan ≡
// HostScan ≡ the naive row loop over randomized tables, predicates and
// projections — the projection and the device charges differ per path, the
// qualifying row set must not.
func TestScanPathsAgreeWithOracle(t *testing.T) {
	root := sim.NewRand(7)
	for trial := 0; trial < 60; trial++ {
		trial := trial
		r := root.Split()
		env := sim.NewEnv()
		pl := platform.New(env, platform.HC2())
		e := New(pl, DefaultConfig())
		tbl := randomTable(pl, r, fmt.Sprintf("t%d", trial))
		pred := randomPred(tbl, r)
		proj := randomProjection(tbl, r)
		want := oracle(tbl, pred)

		env.Spawn("q", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
			hw := e.Scan(task, tbl, pred, proj)
			sw := e.SoftwareScan(task, tbl, pred, proj)
			host := HostScan(task, pl, tbl, pred, proj, DefaultConfig())
			task.Flush()
			if !sameRows(hw, want) {
				t.Errorf("trial %d (rows=%d): hw scan %d rows, oracle %d", trial, tbl.Rows(), len(hw), len(want))
			}
			if !sameRows(sw, want) {
				t.Errorf("trial %d (rows=%d): sw scan %d rows, oracle %d", trial, tbl.Rows(), len(sw), len(want))
			}
			if !sameRows(host, want) {
				t.Errorf("trial %d (rows=%d): host scan %d rows, oracle %d", trial, tbl.Rows(), len(host), len(want))
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHostScanChargesNoPCIe pins the conventional-path contract: scanning
// host-resident projections touches host memory only — no PCIe descriptor
// traffic, no FPGA unit — so a conventional machine's scan energy never
// includes phantom accelerator idle power.
func TestHostScanChargesNoPCIe(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	tbl := columnar.NewTable(pl, "t", columnar.U64Col("key"), columnar.U64Col("c0"))
	for i := 0; i < 1000; i++ {
		tbl.Upsert(uint64(i), uint64(i))
	}
	env.Spawn("q", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		pcieBefore, hostBefore := pl.PCIe.Bytes(), pl.HostDRAM.Bytes()
		out := HostScan(task, pl, tbl, nil, nil, DefaultConfig())
		task.Flush()
		if len(out) != 1000 {
			t.Errorf("host scan returned %d rows, want 1000", len(out))
		}
		if got := pl.PCIe.Bytes() - pcieBefore; got != 0 {
			t.Errorf("host scan moved %d PCIe bytes, want 0", got)
		}
		if got := pl.HostDRAM.Bytes() - hostBefore; got <= 0 {
			t.Errorf("host scan moved %d host-DRAM bytes, want > 0", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
