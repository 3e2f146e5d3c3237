package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"bionicdb/internal/storage"
)

// Node image format (checkpoint pages):
//
//	u8  kind (0 = inner, 1 = leaf)
//	u16 nkeys
//	leaf:  nkeys × (u16 klen, key, u16 vlen, val)
//	inner: nkeys × (u16 klen, key) then (nkeys+1) × u64 child page id
//
// Leaf chains are rebuilt from in-order traversal at load time, so next
// pointers are not stored.

// nodeHeader is the size of an image's kind byte and key count.
const nodeHeader = 3

// maxImage is the largest image a reference can reach every offset of.
const maxImage uint64 = maxChunk

// imageSize returns the exact size of n's checkpoint image. A value longer
// than its u16 length field can hold, or an image past maxImage, is an error
// naming the page (a stored key never is: cloneKey refuses one).
func (t *Tree) imageSize(n *node) (int, error) {
	size := nodeHeader
	for i, r := range n.keys {
		size += 2 + len(t.key(r))
		if n.leaf {
			v := len(t.val(n.vals[i]))
			if v > math.MaxUint16 {
				return 0, corrupt(n.id, "value %d is %d bytes, over the image format's %d-byte field limit", i, v, math.MaxUint16)
			}
			size += 2 + v
		}
	}
	if !n.leaf {
		size += 8 * len(n.kids)
	}
	if uint64(size) > maxImage {
		return 0, corrupt(n.id, "a %d-byte image is over the %d-byte limit", size, maxImage)
	}
	return size, nil
}

func appendBytes16(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// imageSizes returns the size of every node's image in Checkpoint's order,
// root first, or the error naming the first node the format cannot hold.
func (t *Tree) imageSizes() ([]int, error) {
	var sizes []int
	var err error
	preorder(t.root, func(n *node) bool {
		var size int
		size, err = t.imageSize(n)
		sizes = append(sizes, size)
		return err == nil
	})
	return sizes, err
}

// CheckImages returns the error Checkpoint would return, and neither writes
// nor changes anything: the first node, root first, whose image the format
// cannot hold. A caller that checkpoints several trees as one checks every
// tree before it checkpoints any.
func (t *Tree) CheckImages() error {
	_, err := t.imageSizes()
	return err
}

// serializeNode writes n's checkpoint image into one buffer of exactly size
// bytes (imageSize's) and binds n to it, as chunk number chunk of the chunk
// table Checkpoint is building: each entry is bound as soon as it is
// written, while its offset is known. The buffer never grows, so the views
// stay in the image that is returned.
func (t *Tree) serializeNode(n *node, size int, chunk uint32) []byte {
	out := make([]byte, 0, size)
	kind := byte(0)
	if n.leaf {
		kind = 1
	}
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(n.keys)))
	for i, r := range n.keys {
		off := len(out)
		out = appendBytes16(out, t.key(r))
		if n.leaf {
			out = appendBytes16(out, t.val(n.vals[i]))
		}
		_, _ = bind(n, i, chunk, out, off) // just written: it cannot overrun out
	}
	if !n.leaf {
		for _, kid := range n.kids {
			out = binary.LittleEndian.AppendUint64(out, uint64(kid.id))
		}
	}
	return out
}

// Checkpoint hands every node's page id and checkpoint image to write, root
// first, and adopts the images as the tree's storage. Together with the root
// id (RootID) the images fully reconstruct the tree via Load.
//
// Each image is a fresh buffer of exact size that write may keep. The tree
// keeps it too: every key and row reference of a node comes to refer into
// that node's image, as Load makes them, the chunk table becomes exactly the
// images, and the slab restarts empty, so the tree no longer holds the slab
// chunks, or the buffers AddChunk registered, that it held before, and it
// forgets the rows it had retired or freed for reuse (Reclaimer), which
// were in those chunks: only rows carved from the new slab are reused after
// it. Neither the tree nor write may ever write to an image: Put stores a
// new row instead of writing into the old one, and reuses only the bytes of
// rows its own slab holds. write must not use the tree, which is half
// adopted until Checkpoint returns.
//
// Every node is sized before the first is written. A node the image format
// cannot hold (a value over 65 535 bytes) is an error naming its page, and
// then write has seen nothing and the tree is unchanged.
func (t *Tree) Checkpoint(write func(id storage.PageID, image []byte)) error {
	sizes, err := t.imageSizes()
	if err != nil {
		return err
	}
	chunks := make([][]byte, 0, len(sizes))
	preorder(t.root, func(n *node) bool {
		img := t.serializeNode(n, sizes[len(chunks)], uint32(len(chunks)))
		chunks = append(chunks, img)
		write(n.id, img)
		return true
	})
	t.chunks, t.slab = chunks, nil
	t.dropRetired()
	return nil
}

// Load reconstructs a tree from checkpoint images. read must return the
// image for a page id (as written by Checkpoint). The returned tree uses
// cfg for future allocations; its id counter resumes above the largest
// loaded id.
//
// The tree copies nothing out of the images: each image joins the tree's
// chunk table, and every key and row it restores is a reference to its
// length prefix in the image. The keys and values it hands out are views
// into the image, clipped so their capacity is their length (appending to
// one reallocates instead of writing into the image). The images must
// therefore never be written again; stored keys and rows are immutable, so
// the tree itself never does.
//
// A corrupt image is an error naming its page, never a panic: a truncated
// image, an unknown kind byte, a length or the child-id array running past
// the image, trailing bytes, a child already on its descent path (a cycle),
// and any violation of the invariants Validate checks (key order, separator
// bounds, occupancy, uniform leaf depth). A tree Load returns passes
// Validate. The bounds also rule out a page shared by two subtrees: its keys
// would have to lie in two disjoint ranges, and only the root may be empty.
func Load(cfg Config, rootID storage.PageID, read func(id storage.PageID) []byte) (*Tree, error) {
	l := loader{t: New(cfg), read: read}
	l.t.height = 0 // set by the first leaf
	root, err := l.build(rootID, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	l.t.root = root
	l.t.nextID = l.maxID + 1
	return l.t, nil
}

// loader is one Load's state: the tree being built, the inner pages on the
// current descent path, and the last leaf of the rebuilt chain.
type loader struct {
	t     *Tree
	read  func(id storage.PageID) []byte
	path  []storage.PageID
	maxID storage.PageID
	prev  *node // the last leaf built, in key order
}

// corrupt returns the error naming checkpoint page id: a malformed image at
// Load, or a node Checkpoint cannot write.
func corrupt(id storage.PageID, format string, args ...any) error {
	return fmt.Errorf("btree: checkpoint page %d: %s", id, fmt.Sprintf(format, args...))
}

// view16 returns the u16-length-prefixed field at img[off:] as a
// capacity-clipped view and the offset past it; ok is false when the length
// or the field runs past the image.
func view16(img []byte, off int) (field []byte, next int, ok bool) {
	if len(img)-off < 2 {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint16(img[off:]))
	off += 2
	if len(img)-off < n {
		return nil, 0, false
	}
	return img[off : off+n : off+n], off + n, true
}

// bind points entry i of n into img, chunk number chunk of the tree's chunk
// table, where the entry's fields start at off: its key reference at the
// key's length prefix and, in a leaf, its value reference at the value's. It
// returns the offset past the entry, or an error naming the field that runs
// past the image. Load binds the entries of the images it reads, and
// serializeNode those of the images it writes, so a loaded tree and a
// checkpointed one hold the same references.
func bind(n *node, i int, chunk uint32, img []byte, off int) (int, error) {
	n.keys[i] = ref{chunk: chunk, off: uint32(off)}
	_, off, ok := view16(img, off)
	if !ok {
		return 0, corrupt(n.id, "key %d overruns the %d-byte image", i, len(img))
	}
	if n.leaf {
		n.vals[i] = ref{chunk: chunk, off: uint32(off)}
		if _, off, ok = view16(img, off); !ok {
			return 0, corrupt(n.id, "value %d overruns the %d-byte image", i, len(img))
		}
	}
	return off, nil
}

// build decodes page id at depth (0 for the root), whose keys must lie in
// [lo, hi) (nil for no bound), and the subtree under it.
func (l *loader) build(id storage.PageID, depth int, lo, hi []byte) (*node, error) {
	t := l.t
	img := l.read(id)
	if img == nil {
		return nil, fmt.Errorf("btree: missing checkpoint image for page %d", id)
	}
	if len(img) < nodeHeader {
		return nil, corrupt(id, "%d-byte image is shorter than its header", len(img))
	}
	if uint64(len(img)) > maxImage {
		return nil, corrupt(id, "a %d-byte image is over the %d-byte limit", len(img), maxImage)
	}
	if img[0] > 1 {
		return nil, corrupt(id, "kind byte %d", img[0])
	}
	leaf := img[0] == 1
	nkeys := int(binary.LittleEndian.Uint16(img[1:]))
	if depth > 0 && nkeys < t.minKeys() {
		return nil, corrupt(id, "underflow: %d keys < min %d", nkeys, t.minKeys())
	}
	if nkeys > t.cfg.Order {
		return nil, corrupt(id, "overflow: %d keys > order %d", nkeys, t.cfg.Order)
	}
	if id > l.maxID {
		l.maxID = id
	}
	n := &node{id: id, addr: t.addrOf(id), leaf: leaf, keys: make([]ref, nkeys)}
	if leaf {
		n.vals = make([]ref, nkeys)
	}
	chunk := uint32(len(t.chunks))
	t.chunks = append(t.chunks, img)
	off := nodeHeader
	var err error
	for i := range n.keys {
		if off, err = bind(n, i, chunk, img, off); err != nil {
			return nil, err
		}
	}
	if err := t.checkOrder(id, n.keys, lo, hi); err != nil {
		return nil, err
	}
	if leaf {
		if off != len(img) {
			return nil, corrupt(id, "%d trailing bytes", len(img)-off)
		}
		if t.height == 0 {
			t.height = depth + 1
		} else if depth+1 != t.height {
			return nil, corrupt(id, "leaf at depth %d, an earlier leaf at %d", depth+1, t.height)
		}
		t.size += nkeys
		if l.prev != nil {
			l.prev.next = n
		}
		l.prev = n
		return n, nil
	}
	if len(img)-off != 8*(nkeys+1) {
		return nil, corrupt(id, "%d bytes of child ids, want %d for %d children", len(img)-off, 8*(nkeys+1), nkeys+1)
	}
	n.kids = make([]*node, nkeys+1)
	l.path = append(l.path, id)
	for i := range n.kids {
		kidID := storage.PageID(binary.LittleEndian.Uint64(img[off+8*i:]))
		if slices.Contains(l.path, kidID) {
			return nil, corrupt(id, "child %d is page %d, already on its descent path", i, kidID)
		}
		klo, khi := lo, hi
		if i > 0 {
			klo = t.key(n.keys[i-1])
		}
		if i < nkeys {
			khi = t.key(n.keys[i])
		}
		kid, err := l.build(kidID, depth+1, klo, khi)
		if err != nil {
			return nil, err
		}
		n.kids[i] = kid
	}
	l.path = l.path[:len(l.path)-1]
	return n, nil
}

// checkOrder reports keys that are not strictly ascending or fall outside
// [lo, hi) (nil for no bound), the order Validate requires.
func (t *Tree) checkOrder(id storage.PageID, keys []ref, lo, hi []byte) error {
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(t.key(keys[i-1]), t.key(keys[i])) >= 0 {
			return corrupt(id, "keys out of order at %d", i)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if lo != nil && bytes.Compare(t.key(keys[0]), lo) < 0 {
		return corrupt(id, "key below its separator bound")
	}
	if hi != nil && bytes.Compare(t.key(keys[len(keys)-1]), hi) >= 0 {
		return corrupt(id, "key above its separator bound")
	}
	return nil
}
