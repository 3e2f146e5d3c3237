package core_test

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tpcc"
)

// bootTPCCConfig is a small TPC-C database: enough rows that a boot's
// per-row work dwarfs building the machine it boots on.
var bootTPCCConfig = tpcc.Config{Warehouses: 2, Districts: 10, CustomersPerDistrict: 300, Items: 10000, InitialOrdersPerDistrict: 30}

// crashedTPCC is a crashed 2-socket bionic TPC-C session: its crash image,
// the pages and rows its checkpoint holds, and the workload.
type crashedTPCC struct {
	img   core.Image
	pages []storage.PageID
	sums  [][sha256.Size]byte // each page's hash as the checkpoint wrote it
	rows  int64
	wl    *tpcc.Workload
}

// crashTPCC runs crash-recover-2s's machine over bootTPCCConfig through
// Checkpoint, Start, RunTo and Crash. It hashes the checkpoint's pages before
// Start: the live trees adopt them, so the crash window runs on them.
func crashTPCC(t *testing.T) crashedTPCC {
	t.Helper()
	wl := tpcc.New(bootTPCCConfig)
	s := core.Open(wl, 42, func(env *sim.Env) core.Engine {
		return core.NewBionic(env, platform.HC2ScaledSharded(2), wl.Tables(), wl.Scheme(16), core.AllOffloads(), 8)
	})
	t.Cleanup(s.Close)
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c := crashedTPCC{wl: wl}
	for _, tree := range s.Eng.Tables() {
		c.rows += int64(tree.Size())
		tree.Pages(func(id storage.PageID, _ bool) { c.pages = append(c.pages, id) })
	}
	for _, id := range c.pages {
		img := s.Eng.DiskManager().ReadRaw(id)
		if img == nil {
			t.Fatalf("checkpoint page %d has no image", id)
		}
		c.sums = append(c.sums, sha256.Sum256(img))
	}
	s.Start(16, nil, nil)
	if err := s.RunTo(s.Env.Now().Add(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c.img = s.Crash(meta)
	if len(c.img.Logs) != 2 {
		t.Fatalf("%d log shards, want 2", len(c.img.Logs))
	}
	return c
}

// TestBootAllocs pins the boot's allocation diet: heap objects per restored
// row plus replayed record, for a serial and a parallel boot of one crash
// image. The checkpoint restore installs keys and values as views into the
// page images and replay installs after-images as views into the log, so
// what is left is per node (the node and its slices), per new key replay
// inserts (slab chunks, leaf growth, splits) and the machine the boot builds.
// The ceilings sit a few % above what this database measures: serial 0.056,
// parallel 0.057 (134 heap bytes per row or record). Before, the restore
// copied every page image, cloned every key into the slab, copied every value
// and grew each node's slices by doubling, and replay copied every
// after-image: 1.19 on both boots (289 bytes), about one object per row.
func TestBootAllocs(t *testing.T) {
	c := crashTPCC(t)
	for _, tc := range []struct {
		name     string
		parallel bool
		ceiling  float64
	}{
		{"serial", false, 0.058},
		{"parallel", true, 0.059},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, st, _, err := core.Boot(c.img, c.img.Logs, tc.parallel, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			work := c.rows + st.Records
			n := after.Mallocs - before.Mallocs
			per := float64(n) / float64(work)
			t.Logf("%d allocations / (%d rows + %d records) = %.3f per row or record, %.0f bytes each",
				n, c.rows, st.Records, per, float64(after.TotalAlloc-before.TotalAlloc)/float64(work))
			if st.Records == 0 || per > tc.ceiling {
				t.Errorf("allocations per restored row or replayed record = %.3f (%d / %d), want <= %.3f",
					per, n, work, tc.ceiling)
			}
		})
	}
}

// recovered reads a recovered table set the way an engine's ReadRaw and
// ScanRaw read its own.
type recovered map[uint16]*btree.Tree

func (r recovered) ReadRaw(table uint16, key []byte) ([]byte, bool) { return r[table].Get(key, nil) }

func (r recovered) ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	r[table].Scan(from, to, nil, fn)
}

// TestBootLeavesCrashImageUntouched: the live trees run the crash window on
// the checkpoint pages they adopted and a boot installs views of the crash
// image, so nothing the window, a boot or the recovered trees do may write
// to it. Two boots of one image recover the same consistent content,
// appending to a restored key and to restored values reallocates, every
// checkpoint page hashes afterwards as the checkpoint wrote it, and every
// log shard as it did at the crash.
func TestBootLeavesCrashImageUntouched(t *testing.T) {
	c := crashTPCC(t)
	logHashes := func() [][sha256.Size]byte {
		var out [][sha256.Size]byte
		for _, log := range c.img.Logs {
			out = append(out, sha256.Sum256(log))
		}
		return out
	}
	before := logHashes()

	var digests []string
	var sets []recovered
	for _, parallel := range []bool{false, true} {
		trees, st, _, err := core.Boot(c.img, c.img.Logs, parallel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records == 0 {
			t.Fatal("the boot replayed no records")
		}
		if err := tpcc.CheckConsistency(recovered(trees), c.wl.Config()); err != nil {
			t.Errorf("parallel=%v: %v", parallel, err)
		}
		digests = append(digests, core.ContentDigest(trees))
		sets = append(sets, trees)
	}
	if digests[0] != digests[1] {
		t.Errorf("serial and parallel boots diverged: %s vs %s", digests[0], digests[1])
	}

	// An item row is never written, so its key and value come from a
	// checkpoint page; a district row is written by every NewOrder, so its
	// value is an after-image in the log.
	grow := func(what string, b []byte) {
		if cap(b) != len(b) {
			t.Errorf("%s has len %d, cap %d", what, len(b), cap(b))
		}
		if grown := append(b, 0xFF, 0xFF, 0xFF, 0xFF); &grown[0] == &b[0] {
			t.Errorf("appending to %s did not reallocate", what)
		}
	}
	itemKey, itemVal, ok := sets[0][tpcc.TItem].Min(nil)
	if !ok {
		t.Fatal("no item rows recovered")
	}
	grow("a restored key", itemKey)
	grow("a restored value", itemVal)
	districtVal, ok := sets[1].ReadRaw(tpcc.TDistrict, tpcc.DistrictKey(1, 1))
	if !ok {
		t.Fatal("district 1.1 not recovered")
	}
	grow("a replayed value", districtVal)

	for i, id := range c.pages {
		if img := c.img.DM.ReadRaw(id); img == nil || sha256.Sum256(img) != c.sums[i] {
			t.Errorf("checkpoint page %d changed", id)
		}
	}
	for i, sum := range logHashes() {
		if sum != before[i] {
			t.Errorf("log shard %d changed", i)
		}
	}
}
