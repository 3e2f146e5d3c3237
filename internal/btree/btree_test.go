package btree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

func key(i int) []byte  { return storage.Uint64Key(uint64(i)) }
func val(i int) []byte  { return []byte(fmt.Sprintf("v%d", i)) }
func small() *Tree      { return New(Config{Order: 4}) }
func sized(o int) *Tree { return New(Config{Order: o}) }

func TestEmptyTree(t *testing.T) {
	tr := small()
	if tr.Size() != 0 || tr.Height() != 1 {
		t.Fatalf("size=%d height=%d", tr.Size(), tr.Height())
	}
	if _, ok := tr.Get(key(1), nil); ok {
		t.Fatal("found key in empty tree")
	}
	if _, ok := tr.Delete(key(1), nil); ok {
		t.Fatal("deleted key from empty tree")
	}
	if _, _, ok := tr.Min(nil); ok {
		t.Fatal("min of empty tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	tr := sized(8)
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i), nil)
	}
	if tr.Size() != n {
		t.Fatalf("size = %d", tr.Size())
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i), nil)
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: got %q ok=%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(key(n), nil); ok {
		t.Fatal("found absent key")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPutReplaces(t *testing.T) {
	tr := small()
	tr.Put(key(1), []byte("a"), nil)
	prev, existed := tr.Put(key(1), []byte("b"), nil)
	if !existed || string(prev) != "a" {
		t.Fatalf("prev=%q existed=%v", prev, existed)
	}
	if tr.Size() != 1 {
		t.Fatalf("size=%d after replace", tr.Size())
	}
	v, _ := tr.Get(key(1), nil)
	if string(v) != "b" {
		t.Fatalf("v=%q", v)
	}
}

// TestPutOwnsNewKeys: the tree copies a key it does not hold yet, so a caller
// that builds every key in one reused buffer (an arena) leaves the tree valid
// and every key findable.
func TestPutOwnsNewKeys(t *testing.T) {
	tr := small()
	buf := make([]byte, 8)
	for i := 0; i < 100; i++ {
		copy(buf, key(i*7%100))
		tr.Put(buf, val(i), nil)
		for j := range buf {
			buf[j] = 0xDB // what a reset arena holds under the race build
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := tr.Get(key(i), nil); !ok {
			t.Fatalf("key %d lost after its caller reused the buffer", i)
		}
	}
}

// TestPutReplaceCopiesNothing: a replace keeps the stored key and copies
// only the value, behind its 2-byte length, into the slab, and allocates
// nothing while the slab chunk has room.
func TestPutReplaceCopiesNothing(t *testing.T) {
	tr := sized(64)
	for i := 0; i < 1000; i++ {
		tr.Put(key(i), val(i), nil)
	}
	k, v := key(500), val(1)
	if room := cap(tr.slab) - len(tr.slab); room < 2+len(v) {
		tr.Put(k, make([]byte, room), nil) // fill the chunk: the next replace starts one
	}
	chunks, used := len(tr.chunks), len(tr.slab)
	tr.Put(k, v, nil)
	if len(tr.chunks) != chunks || len(tr.slab) != used+2+len(v) {
		t.Fatalf("a replace of a %d-byte value grew the slab by %d bytes and %d chunks, want %d bytes and none",
			len(v), len(tr.slab)-used, len(tr.chunks)-chunks, 2+len(v))
	}
	const runs = 100
	if room := cap(tr.slab) - len(tr.slab); room < (runs+1)*(2+len(v)) {
		t.Fatalf("fixture: %d bytes of slab room for %d replaces", room, runs+1)
	}
	if n := testing.AllocsPerRun(runs, func() { tr.Put(k, v, nil) }); n != 0 {
		t.Fatalf("replacing a value allocates %.0f times, want 0", n)
	}
}

// TestPutCopiesValues: the tree owns its rows. A caller may overwrite the
// buffer it handed Put, a replaced row's view and a deleted row's view keep
// their bytes, and every value the tree hands out has no spare capacity. A
// row too long for a u16 length is stored too, behind a u32.
func TestPutCopiesValues(t *testing.T) {
	tr := small()
	buf := make([]byte, 8)
	for i := 0; i < 100; i++ {
		copy(buf, key(i))
		tr.Put(key(i), buf, nil)
		for j := range buf {
			buf[j] = 0xDB // what a reset arena holds under the race build
		}
	}
	for i := 0; i < 100; i++ {
		if v, ok := tr.Get(key(i), nil); !ok || !bytes.Equal(v, key(i)) || cap(v) != len(v) {
			t.Fatalf("row %d reads %x (cap %d) after its caller reused the buffer", i, v, cap(v))
		}
	}
	old, _ := tr.Get(key(7), nil)
	prev, existed := tr.Put(key(7), []byte("replacement"), nil)
	if !existed || !bytes.Equal(prev, key(7)) || !bytes.Equal(old, key(7)) {
		t.Fatalf("after a replace the old row reads %x and the view of it %x", prev, old)
	}
	gone, _ := tr.Get(key(8), nil)
	deleted, ok := tr.Delete(key(8), nil)
	for i := 100; i < 200; i++ {
		tr.Put(key(i), val(i), nil) // grow the slab past the old rows
	}
	if !ok || !bytes.Equal(deleted, key(8)) || !bytes.Equal(gone, key(8)) {
		t.Fatalf("after a delete the row reads %x and the view of it %x", deleted, gone)
	}
	long := bytes.Repeat([]byte{0x5A}, maxKeyLen+1)
	tr.Put(key(3), long, nil)
	long[0] = 0
	if v, _ := tr.Get(key(3), nil); !bytes.Equal(v, bytes.Repeat([]byte{0x5A}, maxKeyLen+1)) || cap(v) != len(v) {
		t.Fatalf("a %d-byte row reads back %d bytes (cap %d)", maxKeyLen+1, len(v), cap(v))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPutAtRefersIntoChunk: PutAt stores a u32-length field of a registered
// buffer as the row without copying it, a field that runs past the buffer
// panics, and a checkpoint moves the row into its image and drops the
// buffer from the chunk table.
func TestPutAtRefersIntoChunk(t *testing.T) {
	tr := small()
	for i := 0; i < 10; i++ {
		tr.Put(key(i), val(i), nil)
	}
	var log []byte
	var offs []int
	for i := 0; i < 20; i++ {
		offs = append(offs, len(log))
		row := []byte(fmt.Sprintf("logged-%d", i))
		log = binary.LittleEndian.AppendUint32(log, uint32(len(row)))
		log = append(log, row...)
	}
	c, err := tr.AddChunk(log)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		tr.PutAt(key(i*2), c, off, nil)
	}
	for i, off := range offs {
		v, ok := tr.Get(key(i*2), nil)
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("logged-%d", i))) || &v[0] != &log[off+4] || cap(v) != len(v) {
			t.Fatalf("row %d reads %q, not a clipped view of its field", i*2, v)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "overruns") {
				t.Errorf("PutAt of a field past the chunk: panic %q, want one naming the overrun", msg)
			}
		}()
		tr.PutAt(key(99), c, len(log)-2, nil)
	}()
	sum := sha256.Sum256(log)
	imgs := images(tr)
	if len(tr.chunks) != len(imgs) {
		t.Fatalf("%d chunks for %d images after the checkpoint", len(tr.chunks), len(imgs))
	}
	for i := range offs {
		if v, _ := tr.Get(key(i*2), nil); !bytes.Equal(v, []byte(fmt.Sprintf("logged-%d", i))) {
			t.Fatalf("row %d reads %q after the checkpoint", i*2, v)
		}
	}
	if sha256.Sum256(log) != sum {
		t.Fatal("the registered buffer changed")
	}
}

// TestFreshInsertsShareTheSlab: new keys are carved from the tree's key
// slab, so inserts that split nothing allocate only when a slab chunk or the
// leaf's key and value slices fill up.
func TestFreshInsertsShareTheSlab(t *testing.T) {
	const n = 2000
	tr := sized(4 * n) // one leaf holds every key: nothing splits
	keys := make([][]byte, n+1)
	for i := range keys {
		keys[i] = key(i)
	}
	v, i := val(0), 0
	per := testing.AllocsPerRun(n, func() { tr.Put(keys[i], v, nil); i++ })
	if tr.Size() != n+1 || tr.Height() != 1 {
		t.Fatalf("size %d height %d after %d inserts", tr.Size(), tr.Height(), n+1)
	}
	if per >= 0.05 {
		t.Errorf("%.3f allocations per fresh insert, want < 0.05", per)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHandedOutKeysHaveNoSpareCapacity: a key Scan hands out ends where its
// slab neighbour begins, so appending to it copies instead of overwriting
// the next key.
func TestHandedOutKeysHaveNoSpareCapacity(t *testing.T) {
	tr := sized(64)
	for i := 0; i < 100; i++ {
		tr.Put(key(i), val(i), nil) // in order: each key's slab neighbour is the next key
	}
	tr.Scan(nil, nil, nil, func(k, _ []byte) bool {
		_ = append(k, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		return true
	})
	i := 0
	tr.Scan(nil, nil, nil, func(k, _ []byte) bool {
		if !bytes.Equal(k, key(i)) {
			t.Fatalf("key %d reads %x after appending to its neighbour", i, k)
		}
		i++
		return true
	})
	if i != 100 {
		t.Fatalf("scanned %d keys", i)
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// garbage collector would have to scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestNodeKeysHoldNoPointers: a node's key array holds 8-byte references
// without pointers, so the collector never scans it.
func TestNodeKeysHoldNoPointers(t *testing.T) {
	field, _ := reflect.TypeOf(node{}).FieldByName("keys")
	elem := field.Type.Elem()
	if hasPointers(elem) || elem.Size() != 8 {
		t.Errorf("node.keys holds %v (%d bytes), want 8 bytes without pointers", elem, elem.Size())
	}
}

// TestNodeValuesHoldNoPointers: a leaf's value array holds 8-byte references
// without pointers too.
func TestNodeValuesHoldNoPointers(t *testing.T) {
	field, _ := reflect.TypeOf(node{}).FieldByName("vals")
	elem := field.Type.Elem()
	if hasPointers(elem) || elem.Size() != 8 {
		t.Errorf("node.vals holds %v (%d bytes), want 8 bytes without pointers", elem, elem.Size())
	}
}

// TestSlabChunkBoundaries: rows and keys that fill a slab chunk to its last
// byte, and a key longer than a chunk, resolve to their own bytes, clipped
// to their length, and the tree around them stays valid.
func TestSlabChunkBoundaries(t *testing.T) {
	tr := sized(16)
	const klen = 26 // a 2-byte row and the key, each behind a 2-byte prefix: 128 entries fill a chunk exactly
	fixed := func(i int) []byte { return append(bytes.Repeat([]byte{'k'}, klen-8), key(i)...) }
	row := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	for i := 0; i < 256; i++ {
		tr.Put(fixed(i), row(i), nil)
	}
	if len(tr.chunks) != 2 || len(tr.slab) != slabChunk {
		t.Fatalf("256 entries of %d bytes fill %d slab chunks, the last to %d bytes; want 2 full ones", klen+6, len(tr.chunks), len(tr.slab))
	}
	for c, i := range []int{127, 255} { // the entries ending chunks 0 and 1: the row, then the key
		if v := tr.val(ref{chunk: uint32(c), off: slabChunk - klen - 6}); !bytes.Equal(v, row(i)) || cap(v) != len(v) {
			t.Fatalf("the last row of chunk %d reads %x (cap %d)", c, v, cap(v))
		}
		if k := tr.key(ref{chunk: uint32(c), off: slabChunk - klen - 2}); !bytes.Equal(k, fixed(i)) || cap(k) != len(k) {
			t.Fatalf("the key ending chunk %d reads %q (cap %d)", c, k, cap(k))
		}
	}
	tr.Put(fixed(256), row(256), nil)
	if len(tr.chunks) != 3 || len(tr.slab) != klen+6 {
		t.Fatalf("the entry after two full chunks left %d chunks, the last used to %d bytes", len(tr.chunks), len(tr.slab))
	}
	huge := bytes.Repeat([]byte{0x7F}, 3*slabChunk)
	tr.Put(huge, val(-1), nil)
	if c := tr.chunks[len(tr.chunks)-1]; len(c) != 2+len(huge) {
		t.Errorf("a %d-byte key got a %d-byte chunk, want its own of %d", len(huge), len(c), 2+len(huge))
	}
	tr.Put(fixed(257), row(257), nil) // the huge key's chunk has no room left
	if v, ok := tr.Get(huge, nil); !ok || !bytes.Equal(v, val(-1)) {
		t.Fatal("a key longer than a slab chunk is lost")
	}
	n := 0
	tr.Scan(nil, nil, nil, func(k, _ []byte) bool {
		if cap(k) != len(k) {
			t.Fatalf("key %q has capacity %d", k, cap(k))
		}
		n++
		return true
	})
	if n != 259 {
		t.Fatalf("scanned %d keys, want 259", n)
	}
	for i := 0; i < 258; i++ {
		if v, ok := tr.Get(fixed(i), nil); !ok || !bytes.Equal(v, row(i)) {
			t.Fatalf("key %d lost", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPutRefusesOverlongKeys: a key of 65 535 bytes, the most its u16 length
// prefix holds, is stored and round-trips through Checkpoint and Load; Put
// of one byte more panics naming the limit instead of storing a truncated
// length.
func TestPutRefusesOverlongKeys(t *testing.T) {
	tr := small()
	longest := bytes.Repeat([]byte{0x11}, maxKeyLen)
	tr.Put(longest, val(1), nil)
	tr.Put(key(2), val(2), nil)
	imgs := images(tr)
	loaded, err := Load(Config{Order: 4}, tr.RootID(), func(id storage.PageID) []byte { return imgs[id] })
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := loaded.Get(longest, nil); !ok || !bytes.Equal(v, val(1)) {
		t.Fatal("a 65535-byte key did not survive Checkpoint and Load")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "65536-byte key") || !strings.Contains(msg, "65535-byte limit") {
			t.Errorf("Put of a 65536-byte key: panic %q, want one naming the key and the 65535-byte limit", msg)
		}
		if tr.Size() != 2 {
			t.Errorf("size %d after the refused Put, want 2", tr.Size())
		}
	}()
	tr.Put(append(longest, 0x11), val(3), nil)
}

func TestReverseAndRandomInsertOrders(t *testing.T) {
	for name, order := range map[string][]int{
		"reverse": reverseInts(500),
		"shuffle": shuffleInts(500, 7),
	} {
		tr := sized(6)
		for _, i := range order {
			tr.Put(key(i), val(i), nil)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, i := range order {
			if v, ok := tr.Get(key(i), nil); !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("%s: key %d missing", name, i)
			}
		}
	}
}

func reverseInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func shuffleInts(n int, seed uint64) []int {
	r := sim.NewRand(seed)
	out := r.Perm(n)
	return out
}

func TestDeleteEverySecondThenAll(t *testing.T) {
	tr := sized(4)
	const n = 600
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i), nil)
	}
	for i := 0; i < n; i += 2 {
		v, ok := tr.Delete(key(i), nil)
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i), nil)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
	for i := 1; i < n; i += 2 {
		if _, ok := tr.Delete(key(i), nil); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Size() != 0 || tr.Height() != 1 {
		t.Fatalf("size=%d height=%d after deleting all", tr.Size(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := small()
	tr.Put(key(1), val(1), nil)
	if _, ok := tr.Delete(key(2), nil); ok {
		t.Fatal("deleted absent key")
	}
	if tr.Size() != 1 {
		t.Fatal("size disturbed by absent delete")
	}
}

func TestHeightGrowsAndShrinks(t *testing.T) {
	tr := sized(4)
	for i := 0; i < 200; i++ {
		tr.Put(key(i), val(i), nil)
	}
	grown := tr.Height()
	if grown < 3 {
		t.Fatalf("height %d after 200 inserts at order 4", grown)
	}
	for i := 0; i < 200; i++ {
		tr.Delete(key(i), nil)
	}
	if tr.Height() != 1 {
		t.Fatalf("height %d after deleting all", tr.Height())
	}
}

func TestScanRange(t *testing.T) {
	tr := sized(6)
	for i := 0; i < 100; i++ {
		tr.Put(key(i*2), val(i*2), nil) // even keys 0..198
	}
	var got []int
	tr.Scan(key(10), key(31), nil, func(k, v []byte) bool {
		got = append(got, int(storage.DecodeUint64(k)))
		return true
	})
	want := []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScanUnbounded(t *testing.T) {
	tr := sized(5)
	for i := 0; i < 50; i++ {
		tr.Put(key(i), val(i), nil)
	}
	count := 0
	prev := -1
	tr.Scan(nil, nil, nil, func(k, v []byte) bool {
		cur := int(storage.DecodeUint64(k))
		if cur <= prev {
			t.Fatalf("scan out of order: %d after %d", cur, prev)
		}
		prev = cur
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("scanned %d", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := sized(5)
	for i := 0; i < 50; i++ {
		tr.Put(key(i), val(i), nil)
	}
	count := 0
	tr.Scan(nil, nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("scanned %d, want 7", count)
	}
}

func TestScanEmptyRange(t *testing.T) {
	tr := sized(5)
	for i := 0; i < 20; i++ {
		tr.Put(key(i*10), val(i), nil)
	}
	count := 0
	tr.Scan(key(11), key(19), nil, func(k, v []byte) bool { count++; return true })
	if count != 0 {
		t.Fatalf("empty range yielded %d", count)
	}
}

func TestMin(t *testing.T) {
	tr := sized(5)
	for i := 100; i > 3; i-- {
		tr.Put(key(i), val(i), nil)
	}
	k, v, ok := tr.Min(nil)
	if !ok || storage.DecodeUint64(k) != 4 || !bytes.Equal(v, val(4)) {
		t.Fatalf("min = %v %q %v", k, v, ok)
	}
}

func TestTraceReportsPath(t *testing.T) {
	tr := sized(4)
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i), nil)
	}
	var trace Trace
	tr.Get(key(250), &trace)
	if trace.Depth() != tr.Height() {
		t.Fatalf("trace depth %d, height %d", trace.Depth(), tr.Height())
	}
	if !trace.Visits[len(trace.Visits)-1].Leaf {
		t.Fatal("last visit not a leaf")
	}
	for _, v := range trace.Visits[:len(trace.Visits)-1] {
		if v.Leaf {
			t.Fatal("interior visit marked leaf")
		}
		if v.Addr == 0 || v.ID == 0 {
			t.Fatal("visit missing identity")
		}
	}
	trace.Reset()
	if trace.Depth() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTraceCountsSplits(t *testing.T) {
	tr := sized(4)
	var total Trace
	for i := 0; i < 100; i++ {
		var trace Trace
		tr.Put(key(i), val(i), &trace)
		total.Splits += trace.Splits
	}
	if total.Splits == 0 {
		t.Fatal("no splits recorded across 100 inserts at order 4")
	}
}

func TestVariableLengthStringKeys(t *testing.T) {
	tr := sized(6)
	words := []string{"a", "ab", "abc", "b", "ba", "z", "zz", "zzz", "m", "mn", "mno", ""}
	for i, w := range words {
		tr.Put([]byte(w), val(i), nil)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		v, ok := tr.Get([]byte(w), nil)
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("word %q missing", w)
		}
	}
	// Lexicographic scan order.
	var got []string
	tr.Scan(nil, nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan order wrong: %q >= %q", got[i-1], got[i])
		}
	}
}

func TestCheckpointLoadRoundTrip(t *testing.T) {
	tr := sized(6)
	const n = 777
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i), nil)
	}
	for i := 0; i < n; i += 3 {
		tr.Delete(key(i), nil)
	}
	images := map[storage.PageID][]byte{}
	if err := tr.Checkpoint(func(id storage.PageID, img []byte) {
		images[id] = append([]byte(nil), img...)
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(Config{Order: 6}, tr.RootID(), func(id storage.PageID) []byte { return images[id] })
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != tr.Size() || loaded.Height() != tr.Height() {
		t.Fatalf("loaded size=%d height=%d, want %d/%d", loaded.Size(), loaded.Height(), tr.Size(), tr.Height())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want, wantOK := tr.Get(key(i), nil)
		got, gotOK := loaded.Get(key(i), nil)
		if wantOK != gotOK || !bytes.Equal(want, got) {
			t.Fatalf("key %d diverged after load", i)
		}
	}
	// The loaded tree must remain fully functional.
	loaded.Put(key(n+1), val(n+1), nil)
	if _, ok := loaded.Get(key(n+1), nil); !ok {
		t.Fatal("insert into loaded tree failed")
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingPage(t *testing.T) {
	_, err := Load(Config{Order: 6}, 42, func(id storage.PageID) []byte { return nil })
	if err == nil {
		t.Fatal("expected error for missing image")
	}
}

// TestPropertyAgainstMapOracle drives random operation sequences against a
// map and validates structure after every batch.
func TestPropertyAgainstMapOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(seed uint64, orderSel uint8) bool {
		r := sim.NewRand(seed)
		order := 4 + int(orderSel%12)
		tr := sized(order)
		oracle := map[string]string{}
		var buf []byte
		for step := 0; step < 800; step++ {
			k := key(r.Intn(200))
			switch r.Intn(3) {
			case 0, 1:
				v := val(r.Intn(1000))
				buf = append(buf[:0], v...)
				tr.Put(k, buf, nil)
				scribble(buf)
				oracle[string(k)] = string(v)
			case 2:
				_, treeOK := tr.Delete(k, nil)
				_, oracleOK := oracle[string(k)]
				if treeOK != oracleOK {
					return false
				}
				delete(oracle, string(k))
			}
		}
		if tr.Size() != len(oracle) {
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for k, v := range oracle {
			got, ok := tr.Get([]byte(k), nil)
			if !ok || string(got) != v {
				return false
			}
		}
		// Scan must agree with the oracle's sorted key count.
		count := 0
		tr.Scan(nil, nil, nil, func(k, v []byte) bool { count++; return true })
		return count == len(oracle)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyCheckpointEquivalence: load(checkpoint(T)) behaves as T.
func TestPropertyCheckpointEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRand(seed)
		tr := sized(4 + r.Intn(8))
		var buf []byte
		for i := 0; i < 300; i++ {
			buf = append(buf[:0], val(r.Intn(100))...)
			tr.Put(key(r.Intn(150)), buf, nil)
			scribble(buf)
			if r.Bool(0.3) {
				tr.Delete(key(r.Intn(150)), nil)
			}
		}
		images := map[storage.PageID][]byte{}
		if tr.Checkpoint(func(id storage.PageID, img []byte) { images[id] = img }) != nil {
			return false
		}
		loaded, err := Load(Config{Order: tr.Order()}, tr.RootID(), func(id storage.PageID) []byte { return images[id] })
		if err != nil {
			return false
		}
		if loaded.Validate() != nil || loaded.Size() != tr.Size() {
			return false
		}
		ok := true
		tr.Scan(nil, nil, nil, func(k, v []byte) bool {
			got, found := loaded.Get(k, nil)
			if !found || !bytes.Equal(got, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}, cfg); err != nil {
		t.Error(err)
	}
}

// scribble overwrites b as a reset arena does under the race build.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New(Config{})
	for i := 0; i < 100000; i++ {
		tr.Put(key(i), val(i), nil)
	}
	r := sim.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(r.Intn(100000)), nil)
	}
}

// BenchmarkPut inserts distinct keys, ascending as population loads a
// primary table or shuffled (a multiplicative hash of the ascending
// counter), untraced as population puts or traced as a transaction's insert
// does, building each key and row in one reused buffer as a transaction
// builds them in its arena.
func BenchmarkPut(b *testing.B) {
	for _, order := range []string{"ascending", "shuffled"} {
		for _, traced := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/traced=%v", order, traced), func(b *testing.B) {
				tr := New(Config{})
				var buf storage.Arena
				var trace *Trace
				if traced {
					trace = &Trace{}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := uint64(i)
					if order == "shuffled" {
						k *= 0x9E3779B97F4A7C15
					}
					buf.Reset()
					row := buf.Alloc(16)
					copy(row, "row-")
					binary.BigEndian.PutUint64(row[8:], k)
					if trace != nil {
						trace.Reset()
					}
					tr.Put(buf.Uint64Key(k), row, trace)
				}
			})
		}
	}
}

// nodeSlots walks tr and returns the slots its nodes' keys, vals and kids
// arrays hold (cap) and use (len), and the nodes off the right spine whose
// arrays have spare capacity.
func nodeSlots(tr *Tree) (slots, used int, spare []storage.PageID) {
	spine := map[*node]bool{}
	for n := tr.root; ; n = n.kids[len(n.kids)-1] {
		spine[n] = true
		if n.leaf {
			break
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		c := cap(n.keys) + cap(n.vals) + cap(n.kids)
		l := len(n.keys) + len(n.vals) + len(n.kids)
		slots, used = slots+c, used+l
		if c != l && !spine[n] {
			spare = append(spare, n.id)
		}
		for _, kid := range n.kids {
			walk(kid)
		}
	}
	walk(tr.root)
	return slots, used, spare
}

// TestSplitsLeaveFinishedNodesExact pins where a split leaves each node's
// arrays: the new right node takes over the splitting node's arrays, and the
// left node gets exact-size copies of its half. After an ascending load every
// node off the right spine (the nodes ascending inserts have finished with)
// has cap == len for keys, vals and kids, and the tree's live heap is the
// key references, value headers and key bytes of its entries. A splitLeaf that keeps the left
// half in the node's whole array and copies the right half out fails both: the
// left half strands its array's spare slots (about 2.6x the headers' bytes at
// the default order). Descending and random loads regrow the half they go on
// filling by append's doubling, so a finished node holds more than order/2
// entries in at most about twice order+1 slots: under 4.5x its entries.
func TestSplitsLeaveFinishedNodesExact(t *testing.T) {
	const n = 20000
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	orders := map[string][]int{"ascending": ascending, "descending": reverseInts(n), "random": shuffleInts(n, 42)}
	for _, order := range []int{4, 7, 16, DefaultOrder} {
		for _, name := range []string{"ascending", "descending", "random"} {
			tr := sized(order)
			for i, k := range orders[name] {
				tr.Put(key(k), val(k), nil)
				if i%1000 == 999 {
					if err := tr.Validate(); err != nil {
						t.Fatalf("order %d %s after %d inserts: %v", order, name, i+1, err)
					}
				}
			}
			slots, used, spare := nodeSlots(tr)
			ratio := float64(slots) / float64(used)
			t.Logf("order %3d %-10s %6d slots for %6d entries (%.2fx), %d finished nodes with spare capacity",
				order, name, slots, used, ratio, len(spare))
			if name == "ascending" && len(spare) > 0 {
				t.Errorf("order %d ascending: %d finished nodes have spare capacity, first page %d", order, len(spare), spare[0])
			}
			if ratio > 4.5 {
				t.Errorf("order %d %s: %d slots for %d entries, want at most 4.5x", order, name, slots, used)
			}
		}
	}

	// The live heap of an ascending load at the default order: an 8 B key
	// reference and an 8 B value reference, 10 B of length-prefixed key and
	// 4 B of length-prefixed value in the slab per entry, one node per 64
	// entries, and the runtime's share: 32.3 B measured (48.2 B while the
	// values were 24 B slice headers to one shared value, 66 B while the keys
	// were headers too). The keys and values handed to Put are garbage once
	// it returns.
	const entries = 100000
	v := val(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New(Config{})
	for i := 0; i < entries; i++ {
		tr.Put(key(i), v, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / entries
	runtime.KeepAlive(tr)
	t.Logf("ascending load at order %d: %.1f live bytes per entry", DefaultOrder, per)
	if per > 1.5*(32+10) {
		t.Errorf("ascending load holds %.1f live bytes per entry, want at most %.0f", per, 1.5*(32+10))
	}
}

// pair makes tr a tree whose root has two children with nl and nr keys:
// leaves, or inner nodes over leaves of minKeys keys each. Keys ascend from
// 0, and nodes are built by append, so they carry spare capacity.
func pair(tr *Tree, leaf bool, nl, nr int) (left, right *node) {
	next := 0
	var prev *node
	mkLeaf := func(n int) *node {
		l := tr.newNode(true)
		for ; n > 0; n-- {
			l.keys = append(l.keys, tr.cloneKey(key(next)))
			l.vals = append(l.vals, tr.clone(val(next)))
			next++
		}
		if prev != nil {
			prev.next = l
		}
		prev = l
		tr.size += len(l.keys)
		return l
	}
	mkKid := func(n int) *node {
		if leaf {
			return mkLeaf(n)
		}
		in := tr.newNode(false)
		in.kids = append(in.kids, mkLeaf(tr.minKeys()))
		for ; n > 0; n-- {
			l := mkLeaf(tr.minKeys())
			in.keys = append(in.keys, l.keys[0])
			in.kids = append(in.kids, l)
		}
		return in
	}
	left = mkKid(nl)
	sep := tr.cloneKey(key(next))
	right = mkKid(nr)
	root := tr.newNode(false)
	root.keys = append(root.keys, sep)
	root.kids = append(root.kids, left, right)
	tr.root, tr.height = root, 3
	if leaf {
		tr.height = 2
	}
	return left, right
}

// zeroTail reports whether s holds only zero values past its length.
func zeroTail[T any](s []T) bool {
	for _, v := range s[len(s):cap(s)] {
		if !reflect.ValueOf(&v).Elem().IsZero() {
			return false
		}
	}
	return true
}

// TestBorrowClearsTheDonorsTail: a sibling that lends an entry keeps its
// arrays, and no slot past its length still refers to what it lent, or to
// the child it handed over, which would otherwise stay pinned.
func TestBorrowClearsTheDonorsTail(t *testing.T) {
	for _, leaf := range []bool{true, false} {
		for _, fromLeft := range []bool{true, false} {
			tr := sized(8)
			min := tr.minKeys()
			nl, nr, idx := min+2, min-1, 1
			if !fromLeft {
				nl, nr, idx = min-1, min+2, 0
			}
			left, right := pair(tr, leaf, nl, nr)
			donor := left
			if !fromLeft {
				donor = right
			}
			var trace Trace
			tr.rebalance(tr.root, idx, &trace)
			if trace.Borrows != 1 || trace.Merges != 0 {
				t.Fatalf("leaf=%v fromLeft=%v: %d borrows, %d merges, want one borrow", leaf, fromLeft, trace.Borrows, trace.Merges)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("leaf=%v fromLeft=%v: %v", leaf, fromLeft, err)
			}
			if len(donor.keys) != min+1 || cap(donor.keys) <= len(donor.keys) {
				t.Errorf("leaf=%v fromLeft=%v: donor has %d keys in %d slots, want %d keys and its spare slots kept",
					leaf, fromLeft, len(donor.keys), cap(donor.keys), min+1)
			}
			if !zeroTail(donor.keys) || !zeroTail(donor.vals) || !zeroTail(donor.kids) {
				t.Errorf("leaf=%v fromLeft=%v: donor references entries past its length", leaf, fromLeft)
			}
		}
	}
}

// Depth returns the number of nodes visited on the root-to-leaf path.
func (t *Trace) Depth() int { return len(t.Visits) }

// Order returns the configured maximum keys per node.
func (t *Tree) Order() int { return t.cfg.Order }
