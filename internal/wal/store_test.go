package wal

import (
	"bytes"
	"runtime"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// logBytes returns n bytes of the log stream starting at offset off: every
// byte is a function of its position, so a misplaced byte never matches.
func logBytes(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		pos := off + i
		b[i] = byte(pos ^ pos>>8 ^ pos>>16)
	}
	return b
}

// storeFixture is a store on its own machine and the bytes written to it.
type storeFixture struct {
	env   *sim.Env
	store *Store
	want  []byte
}

// newStoreFixture builds the fixture, with a reader registered at 0 when
// read is set.
func newStoreFixture(read bool) *storeFixture {
	env := sim.NewEnv()
	f := &storeFixture{env: env, store: NewStore(platform.New(env, platform.HC2()).SSD)}
	if read {
		f.store.Register(0)
	}
	return f
}

// appendRange is s.AppendRange, failing t on an error.
func appendRange(t *testing.T, s *Store, dst []byte, from, to int) []byte {
	t.Helper()
	out, err := s.AppendRange(dst, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// write writes one chunk of each size, in order, from one process.
func (f *storeFixture) write(t *testing.T, sizes ...int) {
	t.Helper()
	f.env.Spawn("w", func(p *sim.Proc) {
		for _, n := range sizes {
			chunk := logBytes(len(f.want), n)
			f.want = append(f.want, chunk...)
			f.store.Write(p, chunk)
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// checkSegments asserts the segment layout: sizes double from firstSegBytes
// up to maxSegBytes, every segment but the last is full, and the byte count
// is their sum, the bytes kept. The first segment may instead be a flattened
// image, full at whatever size it has.
func checkSegments(t *testing.T, s *Store) {
	t.Helper()
	sum := 0
	for i, seg := range s.segs {
		want := firstSegBytes
		if i > 0 {
			want = min(2*cap(s.segs[i-1]), maxSegBytes)
		}
		if cap(seg) != want && !(i == 0 && len(seg) == cap(seg)) {
			t.Errorf("segment %d holds %d bytes, want %d", i, cap(seg), want)
		}
		if i < len(s.segs)-1 && len(seg) != cap(seg) {
			t.Errorf("segment %d of %d is not full (%d of %d)", i, len(s.segs), len(seg), cap(seg))
		}
		sum += len(seg)
	}
	if sum != s.n-s.kept {
		t.Errorf("segments hold %d bytes, store keeps %d", sum, s.n-s.kept)
	}
}

func TestStoreSegments(t *testing.T) {
	t.Run("chunks, ranges and the image", func(t *testing.T) {
		f := newStoreFixture(true)
		sizes := []int{
			1000,                  // smaller than a segment
			firstSegBytes - 1000,  // fills the first segment exactly
			2 * firstSegBytes,     // equal to the second segment
			100,                   // opens the third
			4*firstSegBytes - 50,  // straddles the third's end by 50
			3*maxSegBytes + 12345, // larger than a segment: spans four
			7,
		}
		f.write(t, sizes...)
		store, want, n := f.store, f.want, len(f.want)
		checkSegments(t, store)
		if len(store.segs) < 6 {
			t.Fatalf("%d segments for %d bytes", len(store.segs), n)
		}
		if store.Len() != n || store.Durable() != LSN(n) {
			t.Errorf("Len=%d Durable=%d, want %d, %d", store.Len(), store.Durable(), n, n)
		}

		// Ranges over the segmented store, before anything flattens it.
		cuts := []int{0, 1, firstSegBytes - 1, firstSegBytes, firstSegBytes + 1, 3 * firstSegBytes,
			3*firstSegBytes + 99, 7 * firstSegBytes, n / 2, n - maxSegBytes, n - 8, n - 7, n - 1, n}
		for _, a := range cuts {
			for _, b := range cuts {
				if a <= b && !bytes.Equal(appendRange(t, store, nil, a, b), want[a:b]) {
					t.Fatalf("AppendRange(%d, %d) differs from the written bytes", a, b)
				}
			}
		}
		if got := appendRange(t, store, []byte("head"), 10, 20); !bytes.Equal(got, append([]byte("head"), want[10:20]...)) {
			t.Error("AppendRange does not append to dst")
		}

		img := store.Bytes()
		if !bytes.Equal(img, want) {
			t.Fatal("Bytes differs from the concatenated writes")
		}
		if len(store.segs) != 1 || cap(store.segs[0]) != n {
			t.Errorf("Bytes left %d segments (the first of %d bytes), want one of exactly %d",
				len(store.segs), cap(store.segs[0]), n)
		}
		if allocs := testing.AllocsPerRun(10, func() { img = store.Bytes() }); allocs != 0 {
			t.Errorf("a second Bytes allocates %v times, want 0", allocs)
		}
		for _, a := range cuts {
			if !bytes.Equal(appendRange(t, store, nil, a, n), want[a:]) {
				t.Fatalf("AppendRange(%d, %d) after flattening differs", a, n)
			}
		}

		// A Write after Bytes opens a new segment: the image handed out stays.
		f.write(t, 5000)
		if !bytes.Equal(img, want) {
			t.Error("a Write after Bytes changed the image Bytes returned")
		}
		checkSegments(t, store)
		if !bytes.Equal(appendRange(t, store, nil, n-10, len(f.want)), f.want[n-10:]) || !bytes.Equal(store.Bytes(), f.want) {
			t.Error("store content diverged after a Write past the flattened image")
		}
	})

	// On a one-segment store Bytes returns the segment itself, clipped so a
	// caller's append cannot reach the bytes a later Write puts there.
	t.Run("one segment", func(t *testing.T) {
		if NewStore(nil).Bytes() != nil {
			t.Error("an empty store has an image")
		}
		f := newStoreFixture(true)
		f.write(t, 100, 200)
		img := f.store.Bytes()
		if !bytes.Equal(img, f.want) || cap(img) != len(f.want) || len(f.store.segs) != 1 {
			t.Fatalf("image of %d bytes (cap %d, %d segments), want %d in one",
				len(img), cap(img), len(f.store.segs), len(f.want))
		}
		want := f.want
		f.write(t, 300)
		if !bytes.Equal(img, want) || !bytes.Equal(f.store.Bytes(), f.want) {
			t.Error("a Write into the one segment changed the image or lost bytes")
		}
	})

	// A log grown in small writes allocates the bytes it holds plus at most
	// one partly filled segment, never a copy of itself.
	t.Run("never re-copies", func(t *testing.T) {
		f := newStoreFixture(true)
		chunk := logBytes(0, 1000)
		var allocated uint64
		f.env.Spawn("w", func(p *sim.Proc) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for f.store.Len() < 2<<20 {
				f.store.Write(p, chunk)
			}
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		})
		if err := f.env.Run(); err != nil {
			t.Fatal(err)
		}
		n := f.store.Len()
		t.Logf("%d bytes written, %d allocated", n, allocated)
		if limit := uint64(n + maxSegBytes); allocated > limit {
			t.Errorf("writing %d bytes allocated %d, want at most %d", n, allocated, limit)
		}
	})
}

// TestStoreKeepsWhatItsReadersAskFor: a store with no reader counts what it
// is written and charges the device for it, but holds none of it; a store
// a reader registered on holds exactly the bytes from the reader's position
// on; and a read or a reader below the kept point is an error.
func TestStoreKeepsWhatItsReadersAskFor(t *testing.T) {
	const chunk = 64 << 10
	data := logBytes(0, 3*maxSegBytes)
	unread, read := newStoreFixture(false), newStoreFixture(true)
	var allocated uint64
	for _, f := range []*storeFixture{unread, read} {
		f.env.Spawn("w", func(p *sim.Proc) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for off := 0; off < len(data); off += chunk {
				f.store.Write(p, data[off:off+chunk])
			}
			runtime.ReadMemStats(&after)
			if f == unread {
				allocated = after.TotalAlloc - before.TotalAlloc
			}
		})
		if err := f.env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	u, r := unread.store, read.store
	t.Logf("a store with no reader allocated %d bytes writing %d", allocated, u.Len())
	if allocated >= 1<<10 {
		t.Errorf("a store with no reader allocated %d bytes writing %d, want under 1 KiB", allocated, u.Len())
	}
	if u.Len() != r.Len() || u.Durable() != r.Durable() ||
		u.Device().Bytes() != r.Device().Bytes() || u.Device().BusyTime() != r.Device().BusyTime() {
		t.Errorf("no reader: Len=%d Durable=%d device %d bytes in %v; a reader: %d, %d, %d in %v",
			u.Len(), u.Durable(), u.Device().Bytes(), u.Device().BusyTime(),
			r.Len(), r.Durable(), r.Device().Bytes(), r.Device().BusyTime())
	}
	if len(u.Bytes()) != 0 || u.Kept() != u.Durable() || len(u.segs) != 0 {
		t.Errorf("a store with no reader holds %d bytes in %d segments, kept from %d", len(u.Bytes()), len(u.segs), u.Kept())
	}
	if !bytes.Equal(r.Bytes(), data) {
		t.Error("a store registered at 0 does not hold every byte written")
	}

	// A first reader registers where the log ends and the store keeps what
	// follows; a second one may register anywhere at or above the kept point.
	f := newStoreFixture(false)
	f.write(t, 5000, firstSegBytes)
	from := f.store.Len()
	if err := f.store.Register(LSN(from - 1)); err == nil {
		t.Error("a reader registered below the end of a store that kept nothing")
	}
	if err := f.store.Register(LSN(from)); err != nil {
		t.Fatal(err)
	}
	f.write(t, 3*firstSegBytes, 100, maxSegBytes)
	n := f.store.Len()
	if err := f.store.Register(LSN(from + 10)); err != nil {
		t.Errorf("a second reader above the kept point: %v", err)
	}
	checkSegments(t, f.store)
	if f.store.Kept() != LSN(from) || !bytes.Equal(appendRange(t, f.store, nil, from, n), f.want[from:]) {
		t.Errorf("kept from %d, want %d, or the range from there differs from the written bytes", f.store.Kept(), from)
	}
	if !bytes.Equal(f.store.Bytes(), f.want[from:]) {
		t.Error("the image of a store registered at a position is not the written bytes from there")
	}
	for _, a := range []int{0, from - 1} {
		if _, err := f.store.AppendRange(nil, a, n); err == nil {
			t.Errorf("AppendRange(%d, %d) below the kept point %d is no error", a, n, from)
		}
		if err := f.store.Register(LSN(a)); err == nil {
			t.Errorf("a reader registered at %d, below the kept point %d", a, from)
		}
	}
	if err := f.store.Register(LSN(n + 1)); err == nil {
		t.Error("a reader registered past the end of the log")
	}
}

// FuzzStore writes chunks of up to three segments each, registering readers
// and taking a Bytes image between some of them, then checks AppendRange
// queries and the final image against a plain byte-slice model. Each four
// bytes of ops is one operation: op[0]%4 == 0 takes an image, op[0]%8 == 7
// registers a reader op[1:4] (little endian) bytes before the log's end,
// modulo its length plus one, and anything else writes op[1:4] modulo three
// segments plus one bytes. Each eight bytes of queries is one range: two
// little-endian uint32 offsets modulo the log length plus one. The model
// keeps every byte from its first reader's position on, and nothing before
// a reader registers; a register or a range below that point must fail.
func FuzzStore(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 1, 232, 3, 0, 1, 0, 0, 1, 2, 0, 0, 0}, []byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{7, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0, 3, 5, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{7, 0, 0, 0, 1, 255, 255, 47, 0, 0, 0, 0, 1, 1, 0, 0}, []byte{255, 0, 0, 0, 0, 0, 0, 128})
	f.Add([]byte{1, 232, 3, 0, 0, 0, 0, 0, 7, 9, 0, 0, 7, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 7, 1, 0, 0}, []byte{0, 0, 0, 0, 255, 255, 255, 255, 100, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 2, 1, 0, 0, 2, 1, 1, 0, 0}, []byte{0, 0, 0, 0, 255, 255, 255, 255})
	u32 := func(b []byte) int { return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24) }
	f.Fuzz(func(t *testing.T, ops, queries []byte) {
		var model []byte
		kept, read := 0, false
		env := sim.NewEnv()
		store := NewStore(platform.New(env, platform.HC2()).SSD)
		env.Spawn("w", func(p *sim.Proc) {
			for i := 0; i+4 <= len(ops) && len(model) < 16<<20; i += 4 {
				op := ops[i : i+4]
				arg := int(op[1]) | int(op[2])<<8 | int(op[3])<<16
				switch {
				case op[0]%4 == 0:
					if !bytes.Equal(store.Bytes(), model[kept:]) {
						t.Errorf("image after %d bytes differs from the model's bytes from %d", len(model), kept)
					}
				case op[0]%8 == 7:
					from := len(model) - arg%(len(model)+1)
					err := store.Register(LSN(from))
					if (err == nil) != (from >= kept) {
						t.Errorf("a reader at %d with bytes kept from %d: error %v", from, kept, err)
					}
					read = read || err == nil
				default:
					chunk := logBytes(len(model), arg%(3*maxSegBytes+1))
					model = append(model, chunk...)
					store.Write(p, chunk)
					if !read {
						kept = len(model)
					}
				}
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if store.Len() != len(model) || store.Kept() != LSN(kept) {
			t.Fatalf("Len %d kept from %d, model %d kept from %d", store.Len(), store.Kept(), len(model), kept)
		}
		checkSegments(t, store)
		for i := 0; i+8 <= len(queries); i += 8 {
			a, b := u32(queries[i:])%(len(model)+1), u32(queries[i+4:])%(len(model)+1)
			if a > b {
				a, b = b, a
			}
			got, err := store.AppendRange(nil, a, b)
			if (err == nil) != (a >= kept) {
				t.Fatalf("AppendRange(%d, %d) with bytes kept from %d: error %v", a, b, kept, err)
			}
			if err == nil && !bytes.Equal(got, model[a:b]) {
				t.Fatalf("AppendRange(%d, %d) differs from the model", a, b)
			}
		}
		if !bytes.Equal(store.Bytes(), model[kept:]) {
			t.Fatal("final image differs from the model")
		}
	})
}

// Device returns the device this store writes to.
func (s *Store) Device() *platform.Device { return s.dev }
