package btree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// reclaiming is an order-4 tree with a reclaimer of its own.
func reclaiming() (*Tree, *Reclaimer) {
	rc := &Reclaimer{}
	tr := small()
	tr.SetReclaimer(rc)
	return tr, rc
}

// row8 is an 8-byte row filled with b.
func row8(b byte) []byte { return bytes.Repeat([]byte{b}, 8) }

// storedAt reports whether key's row is stored in the bytes view starts at.
func storedAt(tr *Tree, k, view []byte) bool {
	v, ok := tr.Get(k, nil)
	return ok && len(v) > 0 && len(view) > 0 && &v[0] == &view[0]
}

// TestReuseWaitsForTheEpoch: a replaced row's bytes go to a later row of its
// length only once every attempt that began at or before the replace has
// ended, and a row retired in a later epoch waits for the attempts of that
// one.
func TestReuseWaitsForTheEpoch(t *testing.T) {
	tr, rc := reclaiming()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), row8('a'), nil)
	}
	a := rc.Begin()
	old, _ := tr.Get(key(1), nil)
	tr.Put(key(1), row8('b'), nil) // retired in a's epoch
	b := rc.Begin()
	older, _ := tr.Get(key(2), nil)
	tr.Put(key(2), row8('c'), nil) // retired in b's epoch
	tr.Put(key(1000), row8('d'), nil)
	if storedAt(tr, key(1000), old) || storedAt(tr, key(1000), older) {
		t.Fatal("a row took a replaced row's bytes while the attempt that read it was open")
	}
	if !bytes.Equal(old, row8('a')) || !bytes.Equal(older, row8('a')) {
		t.Fatalf("open attempts' views read %q and %q", old, older)
	}
	rc.End(b) // a is still open, and began before both replaces
	tr.Put(key(1001), row8('e'), nil)
	if storedAt(tr, key(1001), old) || storedAt(tr, key(1001), older) {
		t.Fatal("a row took a replaced row's bytes while an attempt older than the replace was open")
	}
	rc.End(a)
	tr.Put(key(1002), row8('f'), nil)
	tr.Put(key(1003), row8('g'), nil)
	if !storedAt(tr, key(1002), older) && !storedAt(tr, key(1002), old) ||
		!storedAt(tr, key(1003), older) && !storedAt(tr, key(1003), old) {
		t.Fatal("once every attempt ended, the two replaced rows' bytes were not reused")
	}
	c := rc.Begin()
	tr.Delete(key(3), nil) // retired in c's epoch
	d := rc.Begin()
	tr.Put(key(1004), row8('h'), nil)
	rc.End(c)
	tr.Put(key(1005), row8('i'), nil) // d began after the delete: the row is free
	if v, _ := tr.Get(key(1005), nil); len(tr.free[8]) != 0 || !bytes.Equal(v, row8('i')) {
		t.Fatalf("a row deleted before the one open attempt began was not reused (%d free)", len(tr.free[8]))
	}
	rc.End(d)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseKeepsLengths: a free row is reused only by a row of exactly its
// length.
func TestReuseKeepsLengths(t *testing.T) {
	tr, rc := reclaiming()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), row8('a'), nil)
	}
	e := rc.Begin()
	old, _ := tr.Get(key(5), nil)
	tr.Put(key(5), row8('b'), nil)
	rc.End(e)
	for i, n := range []int{7, 9, 1, 16} {
		k := key(2000 + i)
		tr.Put(k, bytes.Repeat([]byte{'x'}, n), nil)
		if v, _ := tr.Get(k, nil); &v[0] == &old[0] {
			t.Fatalf("a %d-byte row took a free 8-byte row's bytes", n)
		}
	}
	if len(tr.free[8]) != 1 {
		t.Fatalf("%d free 8-byte rows, want the one replaced", len(tr.free[8]))
	}
	tr.Put(key(3000), row8('c'), nil)
	if !storedAt(tr, key(3000), old) {
		t.Fatal("an 8-byte row did not take the free 8-byte row's bytes")
	}
}

// TestReuseWritesOnlyCarvedRows: with a reclaimer, the tree writes into no
// checkpoint image, no buffer AddChunk registered, no row over 65 535 bytes
// and no key, however many of them are replaced or deleted and however many
// rows of their lengths follow.
func TestReuseWritesOnlyCarvedRows(t *testing.T) {
	tr, rc := reclaiming()
	for i := 0; i < 50; i++ {
		tr.Put(key(i), row8('a'), nil)
	}
	imgs := images(tr)
	var log []byte
	var offs []int
	for i := 0; i < 20; i++ {
		offs = append(offs, len(log))
		log = binary.LittleEndian.AppendUint32(log, 8)
		log = append(log, row8(byte('A'+i))...)
	}
	c, err := tr.AddChunk(log)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		tr.PutAt(key(100+i), c, off, nil)
	}
	long := bytes.Repeat([]byte{0x5A}, maxKeyLen+1)
	tr.Put(key(200), long, nil)
	wide, _ := tr.Get(key(200), nil)
	tr.Put(key(201), row8('k'), nil) // its key is carved: delete it below
	keyRef := tr.root
	for !keyRef.leaf {
		keyRef = keyRef.kids[len(keyRef.kids)-1]
	}
	deadKey := tr.key(keyRef.keys[len(keyRef.keys)-1])
	sums := map[string][sha256.Size]byte{"log": sha256.Sum256(log), "wide": sha256.Sum256(wide), "key": sha256.Sum256(deadKey)}
	for id, img := range imgs {
		sums[fmt.Sprint("page ", id)] = sha256.Sum256(img)
	}

	e := rc.Begin()
	for i := 0; i < 50; i += 2 {
		tr.Put(key(i), row8('b'), nil) // image rows replaced
	}
	for i := 1; i < 50; i += 2 {
		tr.Delete(key(i), nil) // image rows deleted
	}
	for i := range offs {
		tr.Put(key(100+i), row8('c'), nil) // log rows replaced
	}
	tr.Put(key(200), bytes.Repeat([]byte{0x5B}, maxKeyLen+1), nil)
	tr.Delete(key(201), nil)
	rc.End(e)
	if len(tr.retired) != 1 {
		t.Fatalf("%d rows retired, want only the carved 8-byte row of the deleted key", len(tr.retired))
	}
	for i := 0; i < 200; i++ {
		tr.Put(key(1000+i), row8('d'), nil)
		tr.Put(key(5000+i), bytes.Repeat([]byte{0x5C}, maxKeyLen+1), nil)
		tr.Put(key(9000+i), key(0)[:len(deadKey)], nil) // rows of the key's length
	}
	got := map[string][sha256.Size]byte{"log": sha256.Sum256(log), "wide": sha256.Sum256(wide), "key": sha256.Sum256(deadKey)}
	for id, img := range imgs {
		got[fmt.Sprint("page ", id)] = sha256.Sum256(img)
	}
	for name, sum := range sums {
		if got[name] != sum {
			t.Errorf("%s was written", name)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDropsTheLists: a checkpoint forgets every retired and free
// row, because the chunk table they refer into is replaced by the images,
// and the rows stored after it are carved from a new slab.
func TestCheckpointDropsTheLists(t *testing.T) {
	tr, rc := reclaiming()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), row8('a'), nil)
	}
	e := rc.Begin()
	for i := 0; i < 10; i++ {
		tr.Put(key(i), row8('b'), nil)
	}
	rc.End(e)
	tr.Put(key(500), row8('c'), nil) // reaps the ten, reuses one
	open := rc.Begin()
	for i := 10; i < 20; i++ {
		tr.Put(key(i), bytes.Repeat([]byte{'d'}, 9), nil) // 9 bytes: the free 8-byte rows stay free
	}
	if len(tr.free[8]) != 9 || len(tr.retired)-tr.reaped != 10 {
		t.Fatalf("fixture: %d free, %d retired", len(tr.free[8]), len(tr.retired)-tr.reaped)
	}
	imgs := images(tr)
	if tr.free != nil || tr.retired != nil || tr.carved != nil {
		t.Fatalf("after a checkpoint: %d free lengths, %d retired, %d carved words", len(tr.free), len(tr.retired), len(tr.carved))
	}
	rc.End(open)
	sums := map[int][sha256.Size]byte{}
	for id, img := range imgs {
		sums[int(id)] = sha256.Sum256(img)
	}
	for i := 0; i < 100; i++ {
		tr.Put(key(i), row8('e'), nil)
	}
	for id, img := range imgs {
		if sha256.Sum256(img) != sums[int(id)] {
			t.Fatalf("page %d was written after the checkpoint", id)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRowReuse plays Puts, Deletes and Gets interleaved with attempts
// opening and closing against a map model. Each attempt keeps every view it
// takes (a Get's value, a Put's prev, a Delete's value) with a copy of its
// bytes, and each view must still hold them when its attempt ends; every
// read must agree with the model.
func FuzzRowReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 10, 11, 12, 13, 4, 5, 20, 21, 22, 6, 7, 30, 31, 32, 33, 34})
	f.Add(bytes.Repeat([]byte{0, 9, 18, 27, 36, 45, 54, 63, 72, 81}, 8))
	f.Add(bytes.Repeat([]byte{1, 1, 8, 2, 16, 3, 24, 5, 32, 7, 40, 6, 48, 4}, 10))
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(i * 37 % 251)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rc := reclaiming()
		model := map[int][]byte{}
		type view struct{ got, want []byte }
		type attempt struct {
			epoch uint64
			views []view
		}
		var open []*attempt
		keep := func(v []byte) {
			if len(open) > 0 {
				a := open[len(open)-1]
				a.views = append(a.views, view{v, bytes.Clone(v)})
			}
		}
		for i, op := range data {
			k := int(op>>3) % 12
			n := 1 + int(op>>5)%3 // rows of 1 to 3 bytes: plenty of reuse
			row := bytes.Repeat([]byte{byte(i)}, n)
			switch op & 7 {
			case 0, 1: // put
				prev, existed := tr.Put(key(k), row, nil)
				want, had := model[k]
				if existed != had || !bytes.Equal(prev, want) {
					t.Fatalf("op %d: Put(%d) replaced %x %v, want %x %v", i, k, prev, existed, want, had)
				}
				if existed {
					keep(prev)
				}
				model[k] = row
			case 2: // delete
				v, ok := tr.Delete(key(k), nil)
				want, had := model[k]
				if ok != had || !bytes.Equal(v, want) {
					t.Fatalf("op %d: Delete(%d) = %x %v, want %x %v", i, k, v, ok, want, had)
				}
				if ok {
					keep(v)
				}
				delete(model, k)
			case 3, 4: // get
				v, ok := tr.Get(key(k), nil)
				want, had := model[k]
				if ok != had || !bytes.Equal(v, want) {
					t.Fatalf("op %d: Get(%d) = %x %v, want %x %v", i, k, v, ok, want, had)
				}
				if ok {
					keep(v)
				}
			case 5, 6: // begin an attempt
				if len(open) < 4 {
					open = append(open, &attempt{epoch: rc.Begin()})
				}
			case 7: // end the attempt op picks
				if len(open) == 0 {
					break
				}
				j := k % len(open)
				a := open[j]
				for _, v := range a.views {
					if !bytes.Equal(v.got, v.want) {
						t.Fatalf("op %d: a view taken in attempt %d reads %x before it ended, want %x", i, a.epoch, v.got, v.want)
					}
				}
				rc.End(a.epoch)
				open = append(open[:j], open[j+1:]...)
			}
		}
		for _, a := range open {
			for _, v := range a.views {
				if !bytes.Equal(v.got, v.want) {
					t.Fatalf("a view taken in open attempt %d reads %x, want %x", a.epoch, v.got, v.want)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		tr.Scan(nil, nil, nil, func(k, v []byte) bool {
			i := int(binary.BigEndian.Uint64(k))
			if !bytes.Equal(v, model[i]) {
				t.Fatalf("key %d holds %x, want %x", i, v, model[i])
			}
			return true
		})
		if tr.Size() != len(model) {
			t.Fatalf("%d keys, want %d", tr.Size(), len(model))
		}
	})
}

// BenchmarkReplace replaces random rows of a 100 000-row tree with rows of
// the same length, each in an attempt of its own: with a reclaimer every
// replace reuses the bytes the one before it freed, without one every
// replace takes new slab bytes.
func BenchmarkReplace(b *testing.B) {
	for _, reclaim := range []bool{false, true} {
		b.Run(fmt.Sprintf("reclaim=%v", reclaim), func(b *testing.B) {
			tr, rc := New(Config{}), &Reclaimer{}
			if reclaim {
				tr.SetReclaimer(rc)
			}
			for i := 0; i < 100000; i++ {
				tr.Put(key(i), row8('a'), nil)
			}
			row := row8('b')
			var k [8]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := rc.Begin()
				binary.BigEndian.PutUint64(k[:], uint64(i)*0x9E3779B97F4A7C15%100000)
				tr.Put(k[:], row, nil)
				rc.End(e)
			}
		})
	}
}
