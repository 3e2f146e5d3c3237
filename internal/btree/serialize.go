package btree

import (
	"encoding/binary"
	"fmt"

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

func appendBytes16(dst, b []byte) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

func readBytes16(b []byte, off int) ([]byte, int) {
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	return b[off : off+n], off + n
}

func serializeNode(n *node) []byte {
	out := make([]byte, 0, 256)
	kind := byte(0)
	if n.leaf {
		kind = 1
	}
	out = append(out, kind)
	var cnt [2]byte
	binary.LittleEndian.PutUint16(cnt[:], uint16(len(n.keys)))
	out = append(out, cnt[:]...)
	for i, k := range n.keys {
		out = appendBytes16(out, k)
		if n.leaf {
			out = appendBytes16(out, n.vals[i])
		}
	}
	if !n.leaf {
		var idb [8]byte
		for _, kid := range n.kids {
			binary.LittleEndian.PutUint64(idb[:], uint64(kid.id))
			out = append(out, idb[:]...)
		}
	}
	return out
}

// Checkpoint walks the tree and hands every node's page id and serialized
// image to write, root first. Together with the root id (RootID) the images
// fully reconstruct the tree via Load.
func (t *Tree) Checkpoint(write func(id storage.PageID, image []byte)) {
	var walk func(n *node)
	walk = func(n *node) {
		write(n.id, serializeNode(n))
		if !n.leaf {
			for _, kid := range n.kids {
				walk(kid)
			}
		}
	}
	walk(t.root)
}

// Load reconstructs a tree from checkpoint images. read must return the
// image for a page id (as written by Checkpoint). The returned tree uses
// cfg for future allocations; its id counter resumes above the largest
// loaded id.
func Load(cfg Config, rootID storage.PageID, read func(id storage.PageID) []byte) (*Tree, error) {
	t := New(cfg)
	maxID := storage.PageID(0)
	var build func(id storage.PageID, depth int) (*node, error)
	build = func(id storage.PageID, depth int) (*node, error) {
		img := read(id)
		if img == nil {
			return nil, fmt.Errorf("btree: missing checkpoint image for page %d", id)
		}
		if id > maxID {
			maxID = id
		}
		n := &node{id: id, leaf: img[0] == 1}
		if t.cfg.AddrOf != nil {
			n.addr = t.cfg.AddrOf(id, t.cfg.Order*32)
		} else {
			n.addr = uint64(id) * 8192
		}
		nkeys := int(binary.LittleEndian.Uint16(img[1:]))
		off := 3
		for i := 0; i < nkeys; i++ {
			var k []byte
			k, off = readBytes16(img, off)
			n.keys = append(n.keys, t.cloneKey(k))
			if n.leaf {
				var v []byte
				v, off = readBytes16(img, off)
				n.vals = append(n.vals, append([]byte(nil), v...))
			}
		}
		if n.leaf {
			if depth+1 > t.height {
				t.height = depth + 1
			}
			t.size += nkeys
			return n, nil
		}
		for i := 0; i < nkeys+1; i++ {
			kidID := storage.PageID(binary.LittleEndian.Uint64(img[off:]))
			off += 8
			kid, err := build(kidID, depth+1)
			if err != nil {
				return nil, err
			}
			n.kids = append(n.kids, kid)
		}
		return n, nil
	}
	t.size = 0
	t.height = 0
	root, err := build(rootID, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if t.height == 0 {
		t.height = 1
	}
	// Rebuild the leaf chain by in-order traversal.
	var prev *node
	var chain func(n *node)
	chain = func(n *node) {
		if n.leaf {
			if prev != nil {
				prev.next = n
			}
			prev = n
			return
		}
		for _, kid := range n.kids {
			chain(kid)
		}
	}
	chain(t.root)
	t.nextID = maxID + 1
	return t, nil
}
