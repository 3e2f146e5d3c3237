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

func newStoreFixture() *storeFixture {
	env := sim.NewEnv()
	return &storeFixture{env: env, store: NewStore(platform.New(env, platform.HC2()).SSD)}
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
// is their sum. The first segment may instead be a flattened image, full at
// whatever size it has.
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
	if sum != s.n {
		t.Errorf("segments hold %d bytes, store counts %d", sum, s.n)
	}
}

func TestStoreSegments(t *testing.T) {
	t.Run("chunks, ranges and the image", func(t *testing.T) {
		f := newStoreFixture()
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
		if store.Len() != n || store.Durable() != LSN(n) || store.Writes() != int64(len(sizes)) {
			t.Errorf("Len=%d Durable=%d Writes=%d, want %d, %d, %d",
				store.Len(), store.Durable(), store.Writes(), n, n, len(sizes))
		}

		// Ranges over the segmented store, before anything flattens it.
		cuts := []int{0, 1, firstSegBytes - 1, firstSegBytes, firstSegBytes + 1, 3 * firstSegBytes,
			3*firstSegBytes + 99, 7 * firstSegBytes, n / 2, n - maxSegBytes, n - 8, n - 7, n - 1, n}
		for _, a := range cuts {
			for _, b := range cuts {
				if a <= b && !bytes.Equal(store.AppendRange(nil, a, b), want[a:b]) {
					t.Fatalf("AppendRange(%d, %d) differs from the written bytes", a, b)
				}
			}
		}
		if got := store.AppendRange([]byte("head"), 10, 20); !bytes.Equal(got, append([]byte("head"), want[10:20]...)) {
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
			if !bytes.Equal(store.AppendRange(nil, a, n), want[a:]) {
				t.Fatalf("AppendRange(%d, %d) after flattening differs", a, n)
			}
		}

		// A Write after Bytes opens a new segment: the image handed out stays.
		f.write(t, 5000)
		if !bytes.Equal(img, want) {
			t.Error("a Write after Bytes changed the image Bytes returned")
		}
		checkSegments(t, store)
		if !bytes.Equal(store.AppendRange(nil, n-10, len(f.want)), f.want[n-10:]) || !bytes.Equal(store.Bytes(), f.want) {
			t.Error("store content diverged after a Write past the flattened image")
		}
	})

	// On a one-segment store Bytes returns the segment itself, clipped so a
	// caller's append cannot reach the bytes a later Write puts there.
	t.Run("one segment", func(t *testing.T) {
		if NewStore(nil).Bytes() != nil {
			t.Error("an empty store has an image")
		}
		f := newStoreFixture()
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
		f := newStoreFixture()
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

// FuzzStore writes chunks of up to three segments each, taking a Bytes image
// between some of them, then checks AppendRange queries and the final image
// against a plain byte-slice model. Each four bytes of ops is one operation:
// op[0]%4 == 0 takes an image, anything else writes op[1:4] (little endian)
// modulo three segments plus one bytes. Each eight bytes of queries is one
// range: two little-endian uint32 offsets modulo the log length plus one.
func FuzzStore(f *testing.F) {
	f.Add([]byte{1, 232, 3, 0, 1, 0, 0, 1, 2, 0, 0, 0}, []byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0, 3, 5, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 255, 255, 47, 0, 0, 0, 0, 1, 1, 0, 0}, []byte{255, 0, 0, 0, 0, 0, 0, 128})
	u32 := func(b []byte) int { return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24) }
	f.Fuzz(func(t *testing.T, ops, queries []byte) {
		var model []byte
		env := sim.NewEnv()
		store := NewStore(platform.New(env, platform.HC2()).SSD)
		env.Spawn("w", func(p *sim.Proc) {
			for i := 0; i+4 <= len(ops) && len(model) < 16<<20; i += 4 {
				op := ops[i : i+4]
				if op[0]%4 == 0 {
					if !bytes.Equal(store.Bytes(), model) {
						t.Errorf("image after %d bytes differs from the model", len(model))
					}
					continue
				}
				n := (int(op[1]) | int(op[2])<<8 | int(op[3])<<16) % (3*maxSegBytes + 1)
				chunk := logBytes(len(model), n)
				model = append(model, chunk...)
				store.Write(p, chunk)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if store.Len() != len(model) {
			t.Fatalf("Len %d, model %d", store.Len(), len(model))
		}
		checkSegments(t, store)
		for i := 0; i+8 <= len(queries); i += 8 {
			a, b := u32(queries[i:])%(len(model)+1), u32(queries[i+4:])%(len(model)+1)
			if a > b {
				a, b = b, a
			}
			if !bytes.Equal(store.AppendRange(nil, a, b), model[a:b]) {
				t.Fatalf("AppendRange(%d, %d) differs from the model", a, b)
			}
		}
		if !bytes.Equal(store.Bytes(), model) {
			t.Fatal("final image differs from the model")
		}
	})
}
