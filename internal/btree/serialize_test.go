package btree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"bionicdb/internal/storage"
)

// images checkpoints tr into a page map, keeping each image as handed out.
func images(tr *Tree) map[storage.PageID][]byte {
	out := map[storage.PageID][]byte{}
	if err := tr.Checkpoint(func(id storage.PageID, img []byte) { out[id] = img }); err != nil {
		panic(err)
	}
	return out
}

// threeLevels is an order-4 tree of height 3 and its checkpoint images.
func threeLevels(t testing.TB) (*Tree, map[storage.PageID][]byte) {
	tr := small()
	for i := 0; i < 20; i++ {
		tr.Put(key(i), val(i), nil)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	return tr, images(tr)
}

// TestCheckpointImagesHaveExactSize: each image is serialized into one
// buffer of exactly its size, which the disk manager keeps as is, and a
// checkpoint allocates per page, not per key.
func TestCheckpointImagesHaveExactSize(t *testing.T) {
	tr, imgs := threeLevels(t)
	for id, img := range imgs {
		if cap(img) != len(img) {
			t.Errorf("page %d image has len %d, cap %d", id, len(img), cap(img))
		}
	}
	// Per page: its image; per checkpoint: the chunk table and the size
	// list's doublings.
	pages := len(imgs)
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Checkpoint(func(storage.PageID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(pages + 4 + bits.Len(uint(pages))); allocs > limit {
		t.Errorf("a checkpoint of %d pages allocates %.0f times, want <= %.0f", pages, allocs, limit)
	}
}

// TestLoadAliasesImages: a loaded tree's key and value references point into
// the images, the keys and values it hands out are views of them clipped so
// that appending to one reallocates and leaves the image alone, and a load
// allocates per node, not per key.
func TestLoadAliasesImages(t *testing.T) {
	tr := sized(16)
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i), nil)
	}
	imgs := images(tr)
	orig := map[storage.PageID][]byte{}
	for id, img := range imgs {
		orig[id] = append([]byte(nil), img...)
	}
	read := func(id storage.PageID) []byte { return imgs[id] }
	loaded, err := Load(Config{Order: 16}, tr.RootID(), read)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	loaded.Scan(nil, nil, nil, func(k, v []byte) bool {
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("key %x: key cap %d len %d, value cap %d len %d", k, cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, 0xFF, 0xFF)
		_ = append(v, 0xFF, 0xFF)
		n++
		return true
	})
	if n != 500 {
		t.Fatalf("scanned %d rows", n)
	}
	for id, img := range imgs {
		if !bytes.Equal(img, orig[id]) {
			t.Fatalf("page %d image changed after appending to loaded keys and values", id)
		}
	}
	// Per node: the node, its key slice and its value or child slice; per
	// load: the tree, its discarded empty root, the descent path and the
	// chunk table's doublings.
	pages := len(imgs)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Load(Config{Order: 16}, tr.RootID(), read); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3*pages + 9 + bits.Len(uint(pages))); allocs > limit {
		t.Errorf("Load of %d pages (500 keys) allocates %.0f times, want <= %.0f", pages, allocs, limit)
	}
	// The loaded tree stays fully functional.
	for i := 500; i < 600; i++ {
		loaded.Put(key(i), val(i), nil)
	}
	for i := 0; i < 300; i++ {
		loaded.Delete(key(i), nil)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, img := range imgs {
		if !bytes.Equal(img, orig[id]) {
			t.Fatalf("page %d image changed after inserts and deletes on the loaded tree", id)
		}
	}
	// Views, not copies: every node's key and value references resolve
	// through its own image, and overwriting the key and value bytes of a private set
	// of leaf images (their length prefixes kept) shows through every key
	// and value loaded from them.
	scratch := map[storage.PageID][]byte{}
	for id, img := range orig {
		scratch[id] = append([]byte(nil), img...)
	}
	viewed, err := Load(Config{Order: 16}, tr.RootID(), func(id storage.PageID) []byte { return scratch[id] })
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i, r := range n.keys {
			if c := viewed.chunks[r.chunk]; &c[0] != &scratch[n.id][0] {
				t.Fatalf("page %d key %d refers outside the page's image", n.id, i)
			}
		}
		for i, r := range n.vals {
			if c := viewed.chunks[r.chunk]; &c[0] != &scratch[n.id][0] || r.off&wide != 0 {
				t.Fatalf("page %d value %d refers outside the page's image", n.id, i)
			}
		}
		for _, kid := range n.kids {
			walk(kid)
		}
	}
	walk(viewed.root)
	for _, img := range scratch {
		if img[0] != 1 {
			continue // inner separators stay: the scan descends by them
		}
		for i, off := 0, nodeHeader; i < 2*int(binary.LittleEndian.Uint16(img[1:])); i++ {
			field, next, _ := view16(img, off)
			for j := range field {
				field[j] = 0xDB
			}
			off = next
		}
	}
	viewed.Scan(nil, nil, nil, func(k, v []byte) bool {
		if bytes.Count(k, []byte{0xDB}) != len(k) || bytes.Count(v, []byte{0xDB}) != len(v) {
			t.Fatalf("key %x or its value %x was copied out of its image", k, v)
		}
		return true
	})
}

// TestCheckpointAdoptsImages: after a checkpoint every key and value
// reference of a node refers to its field in the image written for that
// node, the chunk table is exactly those images (no slab chunk is left), and
// the keys and values handed out are views of the images with no spare
// capacity. Replaces, inserts that split
// and deletes that borrow and merge then leave the tree valid, its content
// that of a twin that never checkpointed, and every image as it was written.
func TestCheckpointAdoptsImages(t *testing.T) {
	tr, twin := sized(16), sized(16)
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i), nil)
		twin.Put(key(i), val(i), nil)
	}
	imgs := images(tr)
	sums := map[storage.PageID][sha256.Size]byte{}
	for id, img := range imgs {
		sums[id] = sha256.Sum256(img)
	}
	if cap(tr.slab) != 0 {
		t.Errorf("the slab kept a %d-byte chunk", cap(tr.slab))
	}
	if len(tr.chunks) != len(imgs) {
		t.Fatalf("%d chunks for %d images", len(tr.chunks), len(imgs))
	}
	chunk := 0
	preorder(tr.root, func(n *node) bool {
		img := imgs[n.id]
		if c := tr.chunks[chunk]; &c[0] != &img[0] || len(c) != len(img) {
			t.Fatalf("chunk %d is not page %d's image", chunk, n.id)
		}
		chunk++
		off := nodeHeader
		for i, r := range n.keys {
			if c := tr.chunks[r.chunk]; &c[0] != &img[0] || int(r.off) != off {
				t.Fatalf("page %d key %d does not refer to its field in the page's image", n.id, i)
			}
			_, off, _ = view16(img, off)
			if !n.leaf {
				continue
			}
			if r := n.vals[i]; &tr.chunks[r.chunk][0] != &img[0] || int(r.off) != off {
				t.Fatalf("page %d value %d does not refer to its field in the page's image", n.id, i)
			}
			field, next, _ := view16(img, off)
			off = next
			if v := tr.val(n.vals[i]); &v[0] != &field[0] || len(v) != len(field) || cap(v) != len(v) {
				t.Fatalf("page %d value %d is not a clipped view of its field in the page's image", n.id, i)
			}
		}
		return true
	})
	tr.Scan(nil, nil, nil, func(k, v []byte) bool {
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("key %x: key cap %d len %d, value cap %d len %d", k, cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, 0xFF, 0xFF)
		_ = append(v, 0xFF, 0xFF)
		return true
	})

	var tally Trace
	both := func(op func(tr *Tree, tc *Trace)) {
		var tc Trace
		op(tr, &tc)
		op(twin, nil)
		tally.Splits += tc.Splits
		tally.Borrows += tc.Borrows
		tally.Merges += tc.Merges
	}
	for i := 0; i < 500; i += 7 {
		both(func(tr *Tree, tc *Trace) { tr.Put(key(i), []byte(fmt.Sprintf("replaced-%d", i)), tc) })
	}
	for i := 500; i < 800; i++ {
		both(func(tr *Tree, tc *Trace) { tr.Put(key(i), val(i), tc) })
	}
	for i := 0; i < 800; i += 3 {
		both(func(tr *Tree, tc *Trace) { tr.Delete(key(i), tc) })
	}
	for i := 100; i < 400; i++ {
		both(func(tr *Tree, tc *Trace) { tr.Delete(key(i), tc) })
	}
	if tally.Splits == 0 || tally.Borrows == 0 || tally.Merges == 0 {
		t.Fatalf("the operations made %d splits, %d borrows and %d merges; want some of each", tally.Splits, tally.Borrows, tally.Merges)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := content(tr), content(twin); !slices.Equal(got, want) {
		t.Fatalf("the checkpointed tree holds %d entries, its twin %d, and they differ", len(got)/2, len(want)/2)
	}
	for id, img := range imgs {
		if sha256.Sum256(img) != sums[id] {
			t.Fatalf("page %d image changed after the checkpointed tree was written to", id)
		}
	}
}

// content lists tr's keys and values in order, as strings.
func content(tr *Tree) []string {
	var out []string
	tr.Scan(nil, nil, nil, func(k, v []byte) bool {
		out = append(out, string(k), string(v))
		return true
	})
	return out
}

// TestLoadRejectsCorruptImages: every way an image can be malformed is an
// error that names the page, never a panic, an endless descent or a tree
// that fails Validate.
func TestLoadRejectsCorruptImages(t *testing.T) {
	tr, base := threeLevels(t)
	root := tr.RootID()
	rootImg := base[root]
	nkeys := int(binary.LittleEndian.Uint16(rootImg[1:]))
	kidAt := func(img []byte, i int) storage.PageID {
		nk := int(binary.LittleEndian.Uint16(img[1:]))
		return storage.PageID(binary.LittleEndian.Uint64(img[len(img)-8*(nk+1)+8*i:]))
	}
	inner := kidAt(rootImg, 0) // an inner node on level 2
	leaf := kidAt(base[inner], 0)
	lastLeaf := kidAt(base[kidAt(rootImg, nkeys)], 0) // a leaf under the root's last separator
	if base[inner][0] != 0 || base[leaf][0] != 1 {
		t.Fatal("fixture: expected an inner page and a leaf page")
	}
	setKid := func(img []byte, i int, id storage.PageID) []byte {
		out := append([]byte(nil), img...)
		nk := int(binary.LittleEndian.Uint16(out[1:]))
		binary.LittleEndian.PutUint64(out[len(out)-8*(nk+1)+8*i:], uint64(id))
		return out
	}
	edit := func(img []byte, fn func(b []byte)) []byte {
		out := append([]byte(nil), img...)
		fn(out)
		return out
	}
	lone := &node{leaf: true, keys: []ref{tr.cloneKey(key(0))}, vals: []ref{tr.clone(val(0))}}
	size, err := tr.imageSize(lone)
	if err != nil {
		t.Fatal(err)
	}
	underfull := tr.serializeNode(lone, size, 0)
	for _, tc := range []struct {
		name  string
		page  storage.PageID
		img   []byte
		named storage.PageID // the page the error names, when not page
	}{
		{"empty image", leaf, []byte{}, 0},
		{"truncated header", leaf, base[leaf][:2], 0},
		{"truncated leaf", leaf, base[leaf][:len(base[leaf])-1], 0},
		{"truncated child ids", inner, base[inner][:len(base[inner])-4], 0},
		{"kind byte 2", leaf, edit(base[leaf], func(b []byte) { b[0] = 2 }), 0},
		{"key count past the image", leaf, edit(base[leaf], func(b []byte) { binary.LittleEndian.PutUint16(b[1:], 4) }), 0},
		{"key count above the order", leaf, edit(base[leaf], func(b []byte) { binary.LittleEndian.PutUint16(b[1:], 60000) }), 0},
		{"key length past the image", leaf, edit(base[leaf], func(b []byte) { binary.LittleEndian.PutUint16(b[3:], 0xFFFF) }), 0},
		{"trailing bytes on a leaf", leaf, append(append([]byte(nil), base[leaf]...), 0), 0},
		{"trailing bytes on an inner node", inner, append(append([]byte(nil), base[inner]...), 0), 0},
		{"a page that is its own child", inner, setKid(base[inner], 1, inner), 0},
		{"a child that is an ancestor", inner, setKid(base[inner], 0, root), 0},
		{"two children share a page", inner, setKid(base[inner], 1, leaf), leaf},
		{"keys out of order", leaf, edit(base[leaf], func(b []byte) { b[3+2+7] = 0xFF }), 0},
		{"a leaf above its level", root, setKid(rootImg, nkeys, lastLeaf), lastLeaf},
		{"an underfull node", leaf, underfull, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			imgs := map[storage.PageID][]byte{}
			for id, img := range base {
				imgs[id] = img
			}
			imgs[tc.page] = tc.img
			_, err := Load(Config{Order: 4}, root, func(id storage.PageID) []byte { return imgs[id] })
			if err == nil {
				t.Fatal("loaded a corrupt checkpoint")
			}
			t.Log(err)
			named := tc.page
			if tc.named != 0 {
				named = tc.named
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("page %d:", named)) {
				t.Errorf("error %q does not name page %d", err, named)
			}
		})
	}
}

// encodePages is FuzzLoad's input format: each page as u16 id, u16 length
// and its image, the root first.
func encodePages(root storage.PageID, imgs map[storage.PageID][]byte) []byte {
	var out []byte
	put := func(id storage.PageID) {
		out = binary.LittleEndian.AppendUint16(out, uint16(id))
		out = appendBytes16(out, imgs[id])
	}
	put(root)
	var rest []storage.PageID
	for id := range imgs {
		if id != root {
			rest = append(rest, id)
		}
	}
	slices.Sort(rest)
	for _, id := range rest {
		put(id)
	}
	return out
}

// FuzzLoad: whatever the checkpoint images hold, Load either returns an
// error or a tree that passes Validate and survives inserts and deletes.
func FuzzLoad(f *testing.F) {
	tr, imgs := threeLevels(f)
	f.Add(encodePages(tr.RootID(), imgs))
	one := small()
	one.Put(key(1), val(1), nil)
	f.Add(encodePages(one.RootID(), images(one)))
	// A root that is its own child.
	f.Add(encodePages(1, map[storage.PageID][]byte{1: {0, 1, 0, 1, 0, 'k', 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		imgs := map[storage.PageID][]byte{}
		var root storage.PageID
		for off := 0; len(data)-off >= 4; {
			id := storage.PageID(binary.LittleEndian.Uint16(data[off:]))
			n := int(binary.LittleEndian.Uint16(data[off+2:]))
			off += 4
			if n > len(data)-off {
				break
			}
			if len(imgs) == 0 {
				root = id
			}
			imgs[id] = data[off : off+n]
			off += n
		}
		loaded, err := Load(Config{Order: 4}, root, func(id storage.PageID) []byte { return imgs[id] })
		if err != nil {
			return
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("Load returned a tree that fails Validate: %v", err)
		}
		for i := 0; i < 20; i++ {
			loaded.Put(key(i), val(i), nil)
		}
		for i := 0; i < 20; i += 2 {
			loaded.Delete(key(i), nil)
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("a loaded tree broke under inserts and deletes: %v", err)
		}
	})
}

// TestCheckpointRefusesOverlongValues: a value of 65 535 bytes, the most an
// image's u16 length field holds, round-trips through Checkpoint and Load,
// and one byte more is an error at Checkpoint naming the value's page and
// length, not an image that Load later finds out of order, before it writes
// any page.
func TestCheckpointRefusesOverlongValues(t *testing.T) {
	for _, size := range []int{math.MaxUint16, math.MaxUint16 + 1} {
		tr := small()
		for i := 0; i < 10; i++ {
			tr.Put(key(i), val(i), nil)
		}
		long := bytes.Repeat([]byte{0xAB}, size)
		var trace Trace
		tr.Put(key(5), long, &trace)
		page := trace.Visits[len(trace.Visits)-1].ID
		imgs := map[storage.PageID][]byte{}
		err := tr.Checkpoint(func(id storage.PageID, img []byte) { imgs[id] = img })
		if size > math.MaxUint16 {
			if err == nil {
				t.Fatalf("checkpointed a %d-byte value", size)
			}
			t.Log(err)
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("page %d:", page)) || !strings.Contains(msg, fmt.Sprint(size)) {
				t.Errorf("error %q names neither page %d nor the %d-byte length", err, page, size)
			}
			if len(imgs) != 0 {
				t.Errorf("the failed checkpoint wrote %d pages", len(imgs))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(Config{Order: 4}, tr.RootID(), func(id storage.PageID) []byte { return imgs[id] })
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := loaded.Get(key(5), nil); !ok || !bytes.Equal(v, long) {
			t.Fatalf("the %d-byte value did not survive Checkpoint and Load", size)
		}
	}
}
