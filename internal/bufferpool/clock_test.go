package bufferpool

import (
	"fmt"
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// clockScript drives an 8-frame pool through a fixed script — five prewarmed
// pages, then 80 fixes of 16 pages with one in three unfixed dirty, while
// page 3 stays pinned throughout and page 7 from step 20 to step 50 — and
// returns its hit/miss/write-back trace ('h' or 'm' per fix, 'w' after a
// fix that wrote a victim back) and the resident pages at the end.
func clockScript(t *testing.T) (*Pool, string, []storage.PageID) {
	env, pl, bp := fixture(8)
	for id := storage.PageID(1); id <= 5; id++ {
		bp.Prewarm(id)
	}
	var trace []byte
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		r := sim.NewRand(5)
		fix := func(id storage.PageID) {
			moved := pl.Disk.Bytes()
			if bp.Fix(task, id) {
				trace = append(trace, 'h')
			} else {
				trace = append(trace, 'm')
			}
			// A miss reads one page; one that writes its victim back
			// moves two.
			if pl.Disk.Bytes()-moved > int64(pl.Cfg.PageSize) {
				trace = append(trace, 'w')
			}
		}
		fix(3)
		for step := 0; step < 80; step++ {
			switch step {
			case 20:
				fix(7)
			case 50:
				bp.Unfix(task, 7, true)
			}
			id := storage.PageID(1 + r.Intn(16))
			fix(id)
			bp.Unfix(task, id, r.Intn(3) == 0)
		}
		bp.Unfix(task, 3, false)
		task.Flush()
	})
	run(t, env)
	var resident []storage.PageID
	for id := storage.PageID(0); id <= 20; id++ {
		if bp.Resident(id) {
			resident = append(resident, id)
		}
	}
	t.Logf("trace %s, resident %v", trace, resident)
	return bp, string(trace), resident
}

// TestClockOrderPinned pins the clock's visiting and eviction order: the
// script's trace and final resident set are what the pool produced when its
// frame table was a map of frame pointers and its ring a slice of them.
func TestClockOrderPinned(t *testing.T) {
	bp, trace, resident := clockScript(t)
	const wantTrace = "hhhmhhhhmmmhhmhmmhhhmwhhmwmmmhhmwhmmmwmmwmmwmhmhmwmhmmmhhhhmwhhhmwhmwhhhmhhmmwmwmmwmhhmwhhmwhhhmwh"
	if trace != wantTrace {
		t.Errorf("trace\n %s, want\n %s", trace, wantTrace)
	}
	if got, want := fmt.Sprint(resident), "[1 3 4 7 8 9 12 15]"; got != want {
		t.Errorf("resident %s, want %s", got, want)
	}
	// A page never seen is not resident, and asking does not grow the table.
	n := len(bp.frames)
	if bp.Resident(1<<40) || len(bp.frames) != n {
		t.Errorf("Resident(1<<40) grew the frame table from %d to %d", n, len(bp.frames))
	}
}

// TestFixHitAllocatesNothing checks that a Fix/Unfix of a resident page
// allocates nothing.
func TestFixHitAllocatesNothing(t *testing.T) {
	env, pl, bp := fixture(64)
	for id := storage.PageID(1); id <= 64; id++ {
		bp.Prewarm(id)
	}
	var allocs float64
	misses := 0
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		id := storage.PageID(0)
		hit := func() {
			id = id%64 + 1
			if !bp.Fix(task, id) {
				misses++
			}
			bp.Unfix(task, id, false)
			task.Flush()
		}
		hit()
		allocs = testing.AllocsPerRun(200, hit)
	})
	run(t, env)
	if misses != 0 {
		t.Fatalf("%d misses on a prewarmed pool", misses)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per Fix/Unfix hit, want 0", allocs)
	}
}
