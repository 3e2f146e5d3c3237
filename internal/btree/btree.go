// Package btree implements the B+Tree used by every engine: byte-string
// keys in lexicographic order (with order-preserving integer encodings from
// package storage), values in the leaves, a linked leaf level for range
// scans, and split/borrow/merge rebalancing. The tree is a pure data
// structure — it charges no simulated time itself. Instead each operation
// can fill a Trace describing the nodes it touched and the comparisons it
// made, and the engines convert traces into CPU, cache or SG-DRAM charges.
// This is what lets one tree serve both the software path (cache-modelled
// probes) and the hardware tree-probe engine (SG-DRAM-modelled probes).
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"bionicdb/internal/storage"
)

// DefaultOrder is the default maximum number of keys per node. With ~32-byte
// keys+values this keeps nodes within an 8 KiB page, giving the "branching
// factors of several hundred" the paper assumes.
const DefaultOrder = 128

// Config parameterizes a tree.
type Config struct {
	// Order is the maximum number of keys per node (min 4); nodes split
	// when they exceed it and rebalance below Order/2.
	Order int
	// AddrOf assigns a timing-model address to a newly allocated node
	// given its page id and approximate byte size. Nil uses a synthetic
	// host address (suitable for unit tests).
	AddrOf func(id storage.PageID, size int) uint64
	// NextID allocates node page ids. Nil uses a private counter.
	NextID func() storage.PageID
}

// Visit records one node touched during an operation.
type Visit struct {
	ID    storage.PageID
	Addr  uint64
	Cmps  int // key comparisons performed in this node
	Leaf  bool
	Bytes int // approximate bytes examined (for hardware transfer sizing)
}

// Trace accumulates the work done by one tree operation so engines can
// charge it to the timing model. Reuse traces across operations via Reset.
type Trace struct {
	Visits  []Visit
	Splits  int
	Merges  int
	Borrows int
	// NewPages lists pages born during this operation (splits, root
	// growth); page caches install them without I/O.
	NewPages []storage.PageID
}

// Reset clears the trace for reuse without freeing its storage.
func (t *Trace) Reset() {
	t.Visits = t.Visits[:0]
	t.Splits, t.Merges, t.Borrows = 0, 0, 0
	t.NewPages = t.NewPages[:0]
}

// TracePool is a free list of traces. Engines draw a trace per tree
// operation and return it after charging, so steady-state operations reuse
// the visit storage instead of growing a fresh slice each time. The pool is
// not safe for concurrent use from multiple goroutines; that matches the
// simulator's execution model (one environment runs one process at a time),
// and each engine owns its own pool.
type TracePool struct {
	free []*Trace
}

// Get returns a reset trace, reusing a returned one when available.
func (p *TracePool) Get() *Trace {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		return t
	}
	return &Trace{}
}

// Put returns a trace to the pool. The caller must not use it afterwards.
func (p *TracePool) Put(t *Trace) {
	t.Reset()
	p.free = append(p.free, t)
}

type node struct {
	id   storage.PageID
	addr uint64
	leaf bool
	keys []ref
	vals []ref   // leaf only; parallel to keys
	kids []*node // inner only; len(kids) == len(keys)+1
	next *node   // leaf chain
}

// ref locates a stored byte string, a key or a row: its length prefix
// starts at byte off of the tree's chunk number chunk, and its bytes follow.
// The prefix is a u16, the checkpoint image's own field layout, so a loaded
// key or row refers into its page image as it is; with the wide bit set in
// off it is a u32, a crash log's after-image layout, so a replayed row
// refers into the log as it is. A ref is 8 bytes and holds no pointer: node
// key and value arrays are a third the size of slice headers, and the
// collector does not scan them.
type ref struct{ chunk, off uint32 }

// wide marks a ref whose length prefix is a u32. Keys are never wide; a row
// is wide when it comes from a crash log or is longer than maxKeyLen.
const wide = 1 << 31

// maxChunk is the largest chunk a ref reaches every offset of: offsets
// below the wide bit.
const maxChunk = wide - 1

// maxKeyLen is the longest key a tree stores: a key's length prefix, like
// the checkpoint image's, is a u16.
const maxKeyLen = math.MaxUint16

// Tree is a B+Tree. The zero value is not usable; create trees with New.
type Tree struct {
	cfg    Config
	root   *node
	height int
	size   int
	nextID storage.PageID
	// chunks is what refs resolve through: every slab chunk clone has
	// carved since the tree was made, loaded or last checkpointed, every
	// page image Load or Checkpoint bound keys and rows into, and every
	// buffer AddChunk registered.
	chunks [][]byte
	slab   []byte // the chunk clone is filling; len is the used part
	slabAt uint32 // slab's chunk number

	// With a reclaimer (SetReclaimer), the rows Put replaces and Delete
	// removes are retired, oldest first from retired[reaped:], and then free
	// for a later row of their length; carved has a bit set for each chunk
	// clone carved, the only chunks whose rows are retired. Checkpoint drops
	// all of it with the chunk table it describes.
	rc      *Reclaimer
	carved  []uint64
	retired []retiredRow
	reaped  int
	free    map[int][]ref
}

// slabChunk is the size of one chunk of a tree's slab: a few dozen of the
// shipped workloads' rows with their keys (8 to 40-byte keys, rows of up to
// about a hundred bytes) per allocation.
const slabChunk = 4096

// key resolves r to the key's bytes, a view whose capacity is its length, so
// appending to a key the tree hands out never writes into its neighbour.
func (t *Tree) key(r ref) []byte {
	c := t.chunks[r.chunk]
	off := int(r.off) + 2
	end := off + int(binary.LittleEndian.Uint16(c[r.off:]))
	return c[off:end:end]
}

// val resolves r to the row's bytes, a view clipped like key's.
func (t *Tree) val(r ref) []byte {
	if r.off&wide == 0 {
		return t.key(r)
	}
	c := t.chunks[r.chunk]
	off := int(r.off&^wide) + 4
	end := off + int(binary.LittleEndian.Uint32(c[off-4:]))
	return c[off:end:end]
}

// clone copies b into the tree's slab, behind its length prefix, and
// returns its ref: a u16 prefix, or a u32 one with the wide bit for b over
// maxKeyLen bytes. The chunk table keeps every chunk until a Checkpoint binds
// every key and row into the images. Stored keys are never written again;
// a stored row is written again only when a tree with a reclaimer reuses
// its bytes for a later row of the same length (cloneRow), after no attempt
// can read it any more.
func (t *Tree) clone(b []byte) ref {
	prefix := 2
	if len(b) > maxKeyLen {
		prefix = 4
	}
	need := prefix + len(b)
	if need > maxChunk {
		panic(fmt.Sprintf("btree: a %d-byte row exceeds the %d-byte limit on a stored row", len(b), maxChunk-4))
	}
	if need > cap(t.slab)-len(t.slab) {
		t.slab = make([]byte, 0, max(slabChunk, need))
		t.slabAt = uint32(len(t.chunks))
		t.chunks = append(t.chunks, t.slab[:cap(t.slab)])
		t.carve(t.slabAt)
	}
	r := ref{chunk: t.slabAt, off: uint32(len(t.slab))}
	if prefix == 2 {
		t.slab = binary.LittleEndian.AppendUint16(t.slab, uint16(len(b)))
	} else {
		r.off |= wide
		t.slab = binary.LittleEndian.AppendUint32(t.slab, uint32(len(b)))
	}
	t.slab = append(t.slab, b...)
	return r
}

// cloneKey is clone for a key. A key longer than maxKeyLen panics: Put has
// no error to return.
func (t *Tree) cloneKey(key []byte) ref {
	if len(key) > maxKeyLen {
		panic(fmt.Sprintf("btree: a %d-byte key exceeds the %d-byte limit on a stored key", len(key), maxKeyLen))
	}
	return t.clone(key)
}

// Chunk names a buffer AddChunk registered with a tree.
type Chunk uint32

// AddChunk registers buf as one of the tree's chunks without copying it, so
// that PutAt can store fields of it as rows: how recovery installs a crash
// log's after-images. The tree keeps buf until its next Checkpoint, and
// nothing may write to buf again. A buf over 2 GiB - 1, beyond what a
// reference's offset reaches, is an error.
func (t *Tree) AddChunk(buf []byte) (Chunk, error) {
	if len(buf) > maxChunk {
		return 0, fmt.Errorf("btree: a %d-byte chunk is over the %d-byte limit", len(buf), maxChunk)
	}
	t.chunks = append(t.chunks, buf[:len(buf):len(buf)])
	return Chunk(len(t.chunks) - 1), nil
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.Order == 0 {
		cfg.Order = DefaultOrder
	}
	if cfg.Order < 4 {
		cfg.Order = 4
	}
	t := &Tree{cfg: cfg, nextID: 1}
	t.root = t.newNode(true)
	t.height = 1
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	var id storage.PageID
	if t.cfg.NextID != nil {
		id = t.cfg.NextID()
	} else {
		id = t.nextID
		t.nextID++
	}
	return &node{id: id, addr: t.addrOf(id), leaf: leaf}
}

// addrOf returns the timing-model address of node id.
func (t *Tree) addrOf(id storage.PageID) uint64 {
	if t.cfg.AddrOf != nil {
		return t.cfg.AddrOf(id, t.cfg.Order*32)
	}
	return uint64(id) * 8192
}

// Size returns the number of keys stored.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int { return t.height }

// RootID returns the page id of the root node, for checkpoint catalogs.
func (t *Tree) RootID() storage.PageID { return t.root.id }

func (t *Tree) minKeys() int { return t.cfg.Order / 2 }

// searchIdx returns the number of keys in n that are <= key (the child
// index to descend into) and the comparisons a binary search performs.
func (t *Tree) searchIdx(n *node, key []byte) (idx, cmps int) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		cmps++
		if bytes.Compare(t.key(n.keys[mid]), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, cmps
}

// leafIdx returns the position of key in leaf n (found) or its insertion
// point (!found), plus comparisons.
func (t *Tree) leafIdx(n *node, key []byte) (idx int, found bool, cmps int) {
	idx, cmps = t.searchIdx(n, key)
	// searchIdx counts keys <= key, so an exact match is at idx-1.
	if idx > 0 && bytes.Equal(t.key(n.keys[idx-1]), key) {
		return idx - 1, true, cmps
	}
	return idx, false, cmps
}

func (t *Tree) visit(tr *Trace, n *node, cmps int) {
	if tr == nil {
		return
	}
	b := 16 // header
	if cmps > 0 {
		b += cmps * 24 // examined key slots
	}
	tr.Visits = append(tr.Visits, Visit{ID: n.id, Addr: n.addr, Cmps: cmps, Leaf: n.leaf, Bytes: b})
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte, tr *Trace) (val []byte, ok bool) {
	n := t.root
	for !n.leaf {
		idx, cmps := t.searchIdx(n, key)
		t.visit(tr, n, cmps)
		n = n.kids[idx]
	}
	idx, found, cmps := t.leafIdx(n, key)
	t.visit(tr, n, cmps)
	if !found {
		return nil, false
	}
	return t.val(n.vals[idx]), true
}

// Put inserts or replaces key's value and returns the previous value, if
// any. The tree owns its keys and rows: val is copied into the tree's slab,
// and so is a key it does not hold yet (a replace keeps the stored key), so
// the caller may reuse or overwrite the bytes of both once Put returns. A
// replace stores the new row beside the old one, so prev, and any view of
// the old row a caller holds, keeps its bytes: for good in a tree without a
// reclaimer, and until the attempts open when the row was replaced have
// ended in a tree with one, which then reuses the old row's bytes for a
// later row of the same length (Reclaimer). Every value the tree hands out
// is a view whose capacity is its length.
//
// An untraced Put whose key is at or above the first key of the rightmost
// leaf, and which cannot split that leaf, stores there without a descent:
// every separator on the right spine is a lower bound of that leaf's keys, so
// the descent would pick the last child at every level and reach the same
// leaf. The tree it leaves is the one the descent leaves, down to node ids,
// array capacities and slab layout, which is what makes ordered population
// cheap. A traced Put keeps the descent, because its per-node comparisons are
// what the engines charge; PutAt keeps it too, because recovery replays in
// log order, not key order.
func (t *Tree) Put(key, val []byte, tr *Trace) (prev []byte, existed bool) {
	v := t.cloneRow(val)
	if tr == nil {
		if prev, existed, ok := t.putRightmost(key, v); ok {
			return prev, existed
		}
	}
	return t.put(key, v, tr)
}

// putRightmost stores key's row v in the rightmost leaf, as insert would,
// when key is at or above that leaf's first key and the leaf is below Order,
// so no split follows, and reports whether it did; otherwise it changes
// nothing.
func (t *Tree) putRightmost(key []byte, v ref) (prev []byte, existed, ok bool) {
	n := t.root
	for !n.leaf {
		n = n.kids[len(n.kids)-1]
	}
	idx := len(n.keys)
	switch {
	case idx == 0 || idx >= t.cfg.Order:
		return nil, false, false
	case bytes.Compare(key, t.key(n.keys[idx-1])) > 0:
		// Above the last key: an append.
	case bytes.Compare(key, t.key(n.keys[0])) < 0:
		return nil, false, false
	default:
		var found bool
		if idx, found, _ = t.leafIdx(n, key); found {
			prev = t.val(n.vals[idx])
			t.retire(n.vals[idx])
			n.vals[idx] = v
			return prev, true, true
		}
	}
	n.keys = insertAt(n.keys, idx, t.cloneKey(key))
	n.vals = insertAt(n.vals, idx, v)
	t.size++
	return nil, false, true
}

// PutAt is Put of the row stored at byte off of chunk c behind a u32
// length, which it refers to instead of copying: a crash log's after-image,
// installed by recovery. A field that runs past the chunk panics.
func (t *Tree) PutAt(key []byte, c Chunk, off int, tr *Trace) (prev []byte, existed bool) {
	buf := t.chunks[c]
	if off < 0 || len(buf)-off < 4 || uint64(len(buf)-off-4) < uint64(binary.LittleEndian.Uint32(buf[off:])) {
		panic(fmt.Sprintf("btree: a row at byte %d overruns its %d-byte chunk", off, len(buf)))
	}
	return t.put(key, ref{chunk: uint32(c), off: uint32(off) | wide}, tr)
}

// put inserts or replaces key's value with the row v refers to.
func (t *Tree) put(key []byte, v ref, tr *Trace) (prev []byte, existed bool) {
	prev, existed, splitKey, right := t.insert(t.root, key, v, tr)
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.keys = append(newRoot.keys, splitKey)
		newRoot.kids = append(newRoot.kids, t.root, right)
		t.root = newRoot
		t.height++
		if tr != nil {
			tr.NewPages = append(tr.NewPages, newRoot.id)
		}
	}
	if !existed {
		t.size++
	}
	return prev, existed
}

// insert descends into n; on child split it returns the separator and new
// right sibling for the caller to install.
func (t *Tree) insert(n *node, key []byte, v ref, tr *Trace) (prev []byte, existed bool, splitKey ref, right *node) {
	if n.leaf {
		idx, found, cmps := t.leafIdx(n, key)
		t.visit(tr, n, cmps)
		if found {
			prev = t.val(n.vals[idx])
			t.retire(n.vals[idx])
			n.vals[idx] = v
			return prev, true, ref{}, nil
		}
		n.keys = insertAt(n.keys, idx, t.cloneKey(key))
		n.vals = insertAt(n.vals, idx, v)
		if len(n.keys) > t.cfg.Order {
			splitKey, right = t.splitLeaf(n, tr)
		}
		return nil, false, splitKey, right
	}
	idx, cmps := t.searchIdx(n, key)
	t.visit(tr, n, cmps)
	prev, existed, sk, r := t.insert(n.kids[idx], key, v, tr)
	if r != nil {
		n.keys = insertAt(n.keys, idx, sk)
		n.kids = insertAt(n.kids, idx+1, r)
		if len(n.keys) > t.cfg.Order {
			splitKey, right = t.splitInner(n, tr)
		}
	}
	return prev, existed, splitKey, right
}

func (t *Tree) splitLeaf(n *node, tr *Trace) (ref, *node) {
	mid := len(n.keys) / 2
	r := t.newNode(true)
	if tr != nil {
		tr.Splits++
		tr.NewPages = append(tr.NewPages, r.id)
	}
	n.keys, r.keys = split(n.keys, mid, mid)
	n.vals, r.vals = split(n.vals, mid, mid)
	r.next = n.next
	n.next = r
	return r.keys[0], r
}

func (t *Tree) splitInner(n *node, tr *Trace) (ref, *node) {
	mid := len(n.keys) / 2
	pivot := n.keys[mid]
	r := t.newNode(false)
	if tr != nil {
		tr.Splits++
		tr.NewPages = append(tr.NewPages, r.id)
	}
	n.keys, r.keys = split(n.keys, mid, mid+1)
	n.kids, r.kids = split(n.kids, mid+1, mid+1)
	return pivot, r
}

// Delete removes key and returns its value, if present: a view that keeps
// its bytes as a replaced row's does (Put).
func (t *Tree) Delete(key []byte, tr *Trace) (val []byte, ok bool) {
	val, ok = t.remove(t.root, key, tr)
	if ok {
		t.size--
	}
	// Collapse a root with a single child.
	for !t.root.leaf && len(t.root.keys) == 0 {
		t.root = t.root.kids[0]
		t.height--
	}
	return val, ok
}

// remove deletes key under n, rebalancing children that underflow.
func (t *Tree) remove(n *node, key []byte, tr *Trace) (val []byte, ok bool) {
	if n.leaf {
		idx, found, cmps := t.leafIdx(n, key)
		t.visit(tr, n, cmps)
		if !found {
			return nil, false
		}
		val = t.val(n.vals[idx])
		t.retire(n.vals[idx])
		n.keys = removeAt(n.keys, idx)
		n.vals = removeAt(n.vals, idx)
		return val, true
	}
	idx, cmps := t.searchIdx(n, key)
	t.visit(tr, n, cmps)
	val, ok = t.remove(n.kids[idx], key, tr)
	if ok && len(n.kids[idx].keys) < t.minKeys() {
		t.rebalance(n, idx, tr)
	}
	return val, ok
}

// rebalance fixes underflow of n.kids[idx] by borrowing from a sibling or
// merging with one.
func (t *Tree) rebalance(n *node, idx int, tr *Trace) {
	child := n.kids[idx]
	// Try borrowing from the left sibling.
	if idx > 0 {
		left := n.kids[idx-1]
		if len(left.keys) > t.minKeys() {
			if tr != nil {
				tr.Borrows++
			}
			if child.leaf {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, left.keys[last])
				child.vals = insertAt(child.vals, 0, left.vals[last])
				left.keys = clip(left.keys[:last])
				left.vals = clip(left.vals[:last])
				n.keys[idx-1] = child.keys[0]
			} else {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, n.keys[idx-1])
				n.keys[idx-1] = left.keys[last]
				child.kids = insertAt(child.kids, 0, left.kids[last+1])
				left.keys = clip(left.keys[:last])
				left.kids = clip(left.kids[:last+1])
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if idx < len(n.kids)-1 {
		rightSib := n.kids[idx+1]
		if len(rightSib.keys) > t.minKeys() {
			if tr != nil {
				tr.Borrows++
			}
			if child.leaf {
				child.keys = append(child.keys, rightSib.keys[0])
				child.vals = append(child.vals, rightSib.vals[0])
				rightSib.keys = removeAt(rightSib.keys, 0)
				rightSib.vals = removeAt(rightSib.vals, 0)
				n.keys[idx] = rightSib.keys[0]
			} else {
				child.keys = append(child.keys, n.keys[idx])
				n.keys[idx] = rightSib.keys[0]
				child.kids = append(child.kids, rightSib.kids[0])
				rightSib.keys = removeAt(rightSib.keys, 0)
				rightSib.kids = removeAt(rightSib.kids, 0)
			}
			return
		}
	}
	// Merge with a sibling.
	if tr != nil {
		tr.Merges++
	}
	if idx > 0 {
		t.merge(n, idx-1)
	} else {
		t.merge(n, idx)
	}
}

// merge folds n.kids[i+1] into n.kids[i] and drops separator n.keys[i].
func (t *Tree) merge(n *node, i int) {
	left, right := n.kids[i], n.kids[i+1]
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.kids = append(left.kids, right.kids...)
	}
	n.keys = removeAt(n.keys, i)
	n.kids = removeAt(n.kids, i+1)
}

// Scan calls fn for each key in [from, to) in ascending order; a nil to
// means no upper bound, a nil from starts at the smallest key. fn returning
// false stops the scan. The trace records the descent to the first leaf and
// each additional leaf visited.
func (t *Tree) Scan(from, to []byte, tr *Trace, fn func(key, val []byte) bool) {
	n := t.root
	for !n.leaf {
		idx, cmps := t.searchIdx(n, from)
		t.visit(tr, n, cmps)
		n = n.kids[idx]
	}
	idx := 0
	if from != nil {
		var cmps int
		idx, _, cmps = t.leafIdx(n, from)
		t.visit(tr, n, cmps)
	} else {
		t.visit(tr, n, 0)
	}
	for n != nil {
		for ; idx < len(n.keys); idx++ {
			k := t.key(n.keys[idx])
			if to != nil && bytes.Compare(k, to) >= 0 {
				return
			}
			if !fn(k, t.val(n.vals[idx])) {
				return
			}
		}
		n = n.next
		idx = 0
		if n != nil {
			t.visit(tr, n, 0)
		}
	}
}

// Min returns the smallest key and its value.
func (t *Tree) Min(tr *Trace) (key, val []byte, ok bool) {
	n := t.root
	for !n.leaf {
		t.visit(tr, n, 0)
		n = n.kids[0]
	}
	t.visit(tr, n, 0)
	if len(n.keys) == 0 {
		return nil, nil, false
	}
	return t.key(n.keys[0]), t.val(n.vals[0]), true
}

// Pages calls fn for every node in the tree (root first), reporting its
// page id and whether it is a leaf. Engines use it to prewarm page caches
// after population.
func (t *Tree) Pages(fn func(id storage.PageID, leaf bool)) {
	preorder(t.root, func(n *node) bool {
		fn(n.id, n.leaf)
		return true
	})
}

// preorder calls fn on n and then on each subtree under it in key order,
// until fn returns false, and reports whether it never did.
func preorder(n *node, fn func(*node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, kid := range n.kids {
		if !preorder(kid, fn) {
			return false
		}
	}
	return true
}

// Validate checks every structural invariant and returns the first
// violation: key ordering, node occupancy, separator bounds, uniform leaf
// depth, leaf-chain consistency and size agreement. It is the oracle for
// the property-based tests.
func (t *Tree) Validate() error {
	count := 0
	var leaves []*node
	var walk func(n *node, depth int, lo, hi []byte) error
	walk = func(n *node, depth int, lo, hi []byte) error {
		if n != t.root && len(n.keys) < t.minKeys() {
			return fmt.Errorf("node %d underflow: %d keys < min %d", n.id, len(n.keys), t.minKeys())
		}
		if len(n.keys) > t.cfg.Order {
			return fmt.Errorf("node %d overflow: %d keys > order %d", n.id, len(n.keys), t.cfg.Order)
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(t.key(n.keys[i-1]), t.key(n.keys[i])) >= 0 {
				return fmt.Errorf("node %d keys out of order at %d", n.id, i)
			}
		}
		for _, r := range n.keys {
			k := t.key(r)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("node %d key below separator bound", n.id)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("node %d key above separator bound", n.id)
			}
		}
		if n.leaf {
			if depth != t.height {
				return fmt.Errorf("leaf %d at depth %d, height %d", n.id, depth, t.height)
			}
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("leaf %d has %d vals for %d keys", n.id, len(n.vals), len(n.keys))
			}
			count += len(n.keys)
			leaves = append(leaves, n)
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("inner %d has %d kids for %d keys", n.id, len(n.kids), len(n.keys))
		}
		for i, kid := range n.kids {
			klo, khi := lo, hi
			if i > 0 {
				klo = t.key(n.keys[i-1])
			}
			if i < len(n.keys) {
				khi = t.key(n.keys[i])
			}
			if err := walk(kid, depth+1, klo, khi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d keys found", t.size, count)
	}
	// Leaf chain must enumerate exactly the in-order leaves.
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	for i, leaf := range leaves {
		if n != leaf {
			return fmt.Errorf("leaf chain diverges at leaf %d", i)
		}
		n = n.next
	}
	if n != nil {
		return fmt.Errorf("leaf chain has trailing nodes")
	}
	return nil
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// split divides a splitting node's array: left is an exact-size copy of
// s[:i], and right is s[j:] moved to the front of s's own array, whose
// vacated tail is cleared. Ascending loads and right-edge inserts go on
// filling the right half, which therefore keeps the spare capacity; the left
// half, which they no longer reach, holds no slot it does not use.
func split[T any](s []T, i, j int) (left, right []T) {
	left = make([]T, i)
	copy(left, s)
	n := copy(s, s[j:])
	clear(s[n:])
	return left, s[:n]
}

// clip clears s's storage past len(s), so references dropped from the end
// can be collected; s keeps its capacity.
func clip[T any](s []T) []T {
	clear(s[len(s):cap(s)])
	return s
}
