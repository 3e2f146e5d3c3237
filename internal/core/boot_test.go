package core_test

import (
	"cmp"
	"crypto/sha256"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
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
// image. The checkpoint restore installs keys and values as references into
// the page images and replay installs after-images as references into the
// log, so what is left is per node (the node and its slices), per new key
// replay inserts (slab chunks, leaf growth, splits) and the machine the boot
// builds. The ceilings sit a few % above what this database measures:
// serial 0.055, parallel 0.056 (92 heap bytes per row or record; 0.054,
// 0.056 and 108 bytes while each node's values were 24-byte slice headers
// into the images and the log). Before, the restore
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
		{"serial", false, 0.057},
		{"parallel", true, 0.058},
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

// TestBootRefersIntoCrashImage: a boot copies no row. In a serial and a
// parallel boot every recovered row is a view of a checkpoint page image or
// of a log shard, and the row under every key a replayed record wrote last
// is that record's after-image, in place in its log.
func TestBootRefersIntoCrashImage(t *testing.T) {
	c := crashTPCC(t)
	type span struct{ lo, hi uintptr }
	addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
	var images []span
	for _, id := range c.pages {
		img := c.img.DM.ReadRaw(id)
		images = append(images, span{addr(img), addr(img) + uintptr(len(img))})
	}
	slices.SortFunc(images, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	inImage := func(v []byte) bool {
		i, _ := slices.BinarySearchFunc(images, addr(v), func(s span, p uintptr) int { return cmp.Compare(s.lo, p) })
		if i == len(images) || images[i].lo != addr(v) {
			i-- // the last image starting before v
		}
		return i >= 0 && addr(v) >= images[i].lo && addr(v)+uintptr(len(v)) <= images[i].hi
	}
	inLog := func(v []byte) bool {
		for _, log := range c.img.Logs {
			if addr(v) >= addr(log) && addr(v)+uintptr(len(v)) <= addr(log)+uintptr(len(log)) {
				return true
			}
		}
		return false
	}

	// The committed transactions, as recovery decides them, and the last
	// record each one wrote per key, for keys one shard's log holds.
	type rowKey struct {
		table uint16
		key   string
	}
	type write struct {
		shard int
		rec   wal.Record
	}
	committed := map[uint64]bool{}
	for s, log := range c.img.Logs {
		_ = wal.Scan(log, c.img.Meta.StartLSNs[s], func(r wal.Record) bool {
			if r.Type != wal.RecCommit {
				return true
			}
			vec, err := wal.DecodeShardVec(r.After)
			ok := err == nil
			for _, e := range vec {
				ok = ok && int(e.LSN) <= len(c.img.Logs[e.Shard])
			}
			committed[r.Txn] = ok
			return true
		})
	}
	last := map[rowKey]write{}
	for s, log := range c.img.Logs {
		_ = wal.Scan(log, c.img.Meta.StartLSNs[s], func(r wal.Record) bool {
			if committed[r.Txn] && (r.Type == wal.RecInsert || r.Type == wal.RecUpdate || r.Type == wal.RecDelete) {
				k := rowKey{r.Table, string(r.Key)}
				if w, ok := last[k]; ok && w.shard != s {
					t.Fatalf("table %d key %x is written on shards %d and %d", k.table, k.key, w.shard, s)
				}
				last[k] = write{s, r}
			}
			return true
		})
	}

	for _, parallel := range []bool{false, true} {
		trees, _, _, err := core.Boot(c.img, c.img.Logs, parallel, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, logged := 0, 0
		for id, tree := range trees {
			tree.Scan(nil, nil, nil, func(k, v []byte) bool {
				rows++
				switch {
				case inLog(v):
					logged++
				case !inImage(v):
					t.Fatalf("parallel=%v: table %d key %x: its row is in neither a page image nor a log", parallel, id, k)
				}
				return true
			})
		}
		replayed := 0
		for k, w := range last {
			v, ok := trees[k.table].Get([]byte(k.key), nil)
			if w.rec.Type == wal.RecDelete {
				if ok {
					t.Fatalf("parallel=%v: table %d key %x survives its delete", parallel, k.table, k.key)
				}
				continue
			}
			replayed++
			if !ok || len(v) != len(w.rec.After) || len(v) > 0 && &v[0] != &c.img.Logs[w.shard][w.rec.AfterField()+4] {
				t.Fatalf("parallel=%v: table %d key %x: the row is not its last after-image in log %d", parallel, k.table, k.key, w.shard)
			}
		}
		t.Logf("parallel=%v: %d rows, %d of them in the logs; %d keys replayed last from an after-image", parallel, rows, logged, replayed)
		if replayed == 0 || logged != replayed {
			t.Errorf("parallel=%v: %d rows resolve into the logs, %d keys were last written by a replayed after-image", parallel, logged, replayed)
		}
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
