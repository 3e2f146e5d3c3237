package storage

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

func TestUint64KeyOrderPreserving(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		ka, kb := Uint64Key(a), Uint64Key(b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64KeyRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 1 << 32, ^uint64(0)} {
		if DecodeUint64(Uint64Key(v)) != v {
			t.Errorf("round trip failed for %d", v)
		}
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	keys := [][]byte{
		CompositeKey(1, 1), CompositeKey(1, 2), CompositeKey(1, 10),
		CompositeKey(2, 0), CompositeKey(2, 1), CompositeKey(10, 0),
	}
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	for i := range keys {
		if !bytes.Equal(keys[i], sorted[i]) {
			t.Fatalf("composite keys not in numeric order at %d", i)
		}
	}
}

func TestRecordWriterReaderRoundTrip(t *testing.T) {
	w := NewRecordWriter(nil, 64)
	w.Uint64(42).Uint32(7).String("hello").Bytes([]byte{1, 2, 3}).Uint64(9)
	buf := w.Finish()
	r := NewRecordReader(buf)
	if r.Uint64() != 42 || r.Uint32() != 7 || r.String() != "hello" {
		t.Fatal("scalar fields corrupted")
	}
	if !bytes.Equal(r.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("bytes field corrupted")
	}
	if r.Uint64() != 9 || r.Remaining() != 0 {
		t.Fatal("trailing field corrupted")
	}
}

func TestRecordWriterReset(t *testing.T) {
	w := NewRecordWriter(nil, 16)
	w.Uint64(1)
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	w.Uint32(5)
	if NewRecordReader(w.Finish()).Uint32() != 5 {
		t.Fatal("reuse after reset failed")
	}
}

// TestRecordWriterBuildsInArena: a row built in an arena allocates nothing
// once the arena has grown, a writer that outgrows its capacity moves the
// row within the arena and keeps its fields, and the finished row has no
// spare capacity to append into.
func TestRecordWriterBuildsInArena(t *testing.T) {
	var a Arena
	build := func(capacity int) []byte {
		return NewRecordWriter(&a, capacity).Uint64(42).Uint32(7).String("hello").Bytes([]byte{1, 2, 3}).Finish()
	}
	build(24)
	a.Reset()
	if n := testing.AllocsPerRun(100, func() { a.Reset(); build(24) }); n != 0 {
		t.Errorf("building a row in a grown arena allocates %.0f times, want 0", n)
	}
	for _, capacity := range []int{0, 5, 24} {
		a.Reset()
		row := build(capacity)
		if len(row) != 24 || cap(row) != len(row) {
			t.Fatalf("capacity %d: a %d-byte row with capacity %d, want 24 and 24", capacity, len(row), cap(row))
		}
		r := NewRecordReader(row)
		if r.Uint64() != 42 || r.Uint32() != 7 || r.String() != "hello" || !bytes.Equal(r.Bytes(), []byte{1, 2, 3}) {
			t.Fatalf("capacity %d: fields corrupted", capacity)
		}
	}
}

func TestRecordPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(a uint64, b uint32, s string, raw []byte) bool {
		if len(s) > 60000 {
			s = s[:60000]
		}
		if len(raw) > 60000 {
			raw = raw[:60000]
		}
		buf := NewRecordWriter(nil, 0).Uint64(a).Uint32(b).String(s).Bytes(raw).Finish()
		r := NewRecordReader(buf)
		return r.Uint64() == a && r.Uint32() == b && r.String() == s && bytes.Equal(r.Bytes(), raw)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskManagerReadWrite(t *testing.T) {
	dm := NewDiskManager(nil, 8192)
	id := dm.Allocate()
	if id == InvalidPage {
		t.Fatal("allocated invalid page id")
	}
	dm.Store(id, []byte("payload"))
	if got := dm.ReadRaw(id); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("read %q", got)
	}
	if dm.ReadRaw(999) != nil {
		t.Error("read of unwritten page returned data")
	}
}

// TestStoreKeepsReadRawViews: the untimed bulk paths copy nothing. Store
// keeps the caller's buffer, ReadRaw returns that buffer clipped to its
// length, and a later Store of the page replaces the image instead of
// writing into the one already handed out.
func TestStoreKeepsReadRawViews(t *testing.T) {
	dm := NewDiskManager(nil, 8192)
	id := dm.Allocate()
	img := make([]byte, 7, 64)
	copy(img, "payload")
	dm.Store(id, img)
	got := dm.ReadRaw(id)
	if !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("ReadRaw = %q", got)
	}
	if &got[0] != &img[0] {
		t.Error("ReadRaw returned a copy, want the stored buffer")
	}
	if cap(got) != len(got) {
		t.Errorf("ReadRaw view has len %d, cap %d", len(got), cap(got))
	}
	_ = append(got, "tail"...)
	if string(img[:cap(img)][7:11]) == "tail" {
		t.Error("appending to a ReadRaw view wrote into the stored buffer")
	}
	dm.Store(id, []byte("second"))
	if string(got) != "payload" || string(dm.ReadRaw(id)) != "second" {
		t.Errorf("after a second Store: old view %q, new image %q", got, dm.ReadRaw(id))
	}
	if dm.ReadRaw(999) != nil {
		t.Error("ReadRaw of an unwritten page returned data")
	}
}

// TestDiskManagerChargesDevice: Store and ReadRaw charge nothing; a bulk
// writer or a boot pays its images' SpanBytes on Device, and a manager
// rebound after a crash charges the new platform's device, not the old one.
func TestDiskManagerChargesDevice(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	dm := NewDiskManager(pl.Disk, 8192)
	id := dm.Allocate()
	env.Spawn("io", func(p *sim.Proc) {
		img := make([]byte, 8192)
		dm.Store(id, img)
		if p.Now() != 0 || pl.Disk.Bytes() != 0 {
			t.Errorf("Store charged the device: %v, %d bytes", p.Now(), pl.Disk.Bytes())
		}
		dm.Device().Transfer(p, dm.SpanBytes(len(img)))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() < sim.Time(5*sim.Millisecond) {
		t.Fatalf("page write took %v, want >= one seek", env.Now())
	}

	env2 := sim.NewEnv()
	pl2 := platform.New(env2, platform.HC2())
	dm2 := dm.Rebind(pl2.Disk)
	env2.Spawn("boot", func(p *sim.Proc) {
		img := dm2.ReadRaw(id)
		if len(img) != 8192 {
			t.Errorf("rebound manager read %d bytes, want 8192", len(img))
		}
		dm2.Device().Transfer(p, dm2.SpanBytes(len(img)))
	})
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.Disk.Bytes() != 8192 || pl2.Disk.Bytes() != 8192 {
		t.Fatalf("device bytes: crashed platform %d, boot platform %d, want one page each", pl.Disk.Bytes(), pl2.Disk.Bytes())
	}
}

func TestDiskManagerWideImageSpansPages(t *testing.T) {
	// A checkpoint image wider than one page (a fat B+Tree node) spans
	// multiple on-device pages: it round-trips intact and charges the
	// device for every page it touches.
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	dm := NewDiskManager(pl.Disk, 128)
	img := make([]byte, 300) // 3 pages
	for i := range img {
		img[i] = byte(i)
	}
	id := dm.Allocate()
	dm.Store(id, img)
	if got := dm.ReadRaw(id); !bytes.Equal(got, img) {
		t.Errorf("wide image read back as %d bytes, want its %d intact", len(got), len(img))
	}
	for _, c := range []struct{ n, want int }{{0, 128}, {1, 128}, {128, 128}, {129, 256}, {300, 384}} {
		if got := dm.SpanBytes(c.n); got != c.want {
			t.Errorf("SpanBytes(%d)=%d, want %d", c.n, got, c.want)
		}
	}
	var narrow, wide sim.Duration
	env.Spawn("io", func(p *sim.Proc) {
		t0 := p.Now()
		dm.Device().Transfer(p, dm.SpanBytes(100))
		narrow = p.Now().Sub(t0)
		t0 = p.Now()
		dm.Device().Transfer(p, dm.SpanBytes(len(img)))
		wide = p.Now().Sub(t0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wide <= narrow {
		t.Errorf("3-page image (%v) not charged above a 1-page one (%v)", wide, narrow)
	}
}

// TestArenaSlicesSurviveGrowth: an arena that runs out chains a new chunk and
// leaves what it handed out where it was.
func TestArenaSlicesSurviveGrowth(t *testing.T) {
	var a Arena
	var keys [][]byte
	for i := uint64(0); i < 200; i++ { // 200 x 24 B: several chunk generations
		keys = append(keys, a.CompositeKey(i, i*7, ^i))
	}
	for i, k := range keys {
		if want := CompositeKey(uint64(i), uint64(i)*7, ^uint64(i)); !bytes.Equal(k, want) {
			t.Fatalf("key %d reads %x after the arena grew, want %x", i, k, want)
		}
	}
	// A slice's capacity ends where it does: appending cannot reach a neighbour.
	_ = append(keys[0], 0xFF)
	if !bytes.Equal(keys[1], CompositeKey(1, 7, ^uint64(1))) {
		t.Fatal("append to one arena slice overwrote the next")
	}
}

// TestArenaResetReusesStorage: once an arena has seen a cycle's worth of keys,
// the same cycle allocates nothing.
func TestArenaResetReusesStorage(t *testing.T) {
	var a Arena
	cycle := func() {
		a.Reset()
		for i := uint64(0); i < 100; i++ {
			a.Uint64Key(i)
			a.CompositeKey(i, i, i, i)
			a.Copy([]byte("0123456789abcde"))
		}
	}
	cycle() // grows by chaining
	cycle() // Reset merged the chain into one chunk
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a repeated cycle allocates %.0f times, want 0", n)
	}
}

// TestArenaKeysMatchFreshKeys: the arena builders and the fresh-slice helpers
// define one encoding, and a nil arena is the heap.
func TestArenaKeysMatchFreshKeys(t *testing.T) {
	for _, a := range []*Arena{nil, {}} {
		if got := a.Uint64Key(0xDEADBEEF); !bytes.Equal(got, Uint64Key(0xDEADBEEF)) {
			t.Fatalf("Uint64Key = %x", got)
		}
		if got := a.CompositeKey(1, 2, 3); !bytes.Equal(got, CompositeKey(1, 2, 3)) {
			t.Fatalf("CompositeKey = %x", got)
		}
		if got := a.Copy([]byte("abc")); string(got) != "abc" {
			t.Fatalf("Copy = %q", got)
		}
	}
}

// TestArenaResetPoisonsUnderRace pins what the race build adds: bytes freed by
// Reset read 0xDB, so a key kept past its attempt cannot go on working.
func TestArenaResetPoisonsUnderRace(t *testing.T) {
	if !arenaPoison {
		t.Skip("Reset overwrites freed bytes only under the race build tag")
	}
	var a Arena
	var keys [][]byte
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, a.Uint64Key(i))
	}
	a.Reset()
	for i, k := range keys {
		if !bytes.Equal(k, bytes.Repeat([]byte{0xDB}, 8)) {
			t.Fatalf("key %d reads %x after Reset, want poison", i, k)
		}
	}
}

// Remaining returns the number of unread bytes.
func (r *RecordReader) Remaining() int { return len(r.buf) - r.off }

// Len returns the current encoded size.
func (w *RecordWriter) Len() int { return len(w.buf) }

// Reset clears the writer for reuse.
func (w *RecordWriter) Reset() { w.buf = w.buf[:0] }

// CompositeKey builds an order-preserving key from fixed-width integer
// parts, for multi-column primary keys like (warehouse, district, order).
func CompositeKey(parts ...uint64) []byte { return (*Arena)(nil).CompositeKey(parts...) }

// String reads the next variable-width field as a string.
func (r *RecordReader) String() string { return string(r.Bytes()) }
