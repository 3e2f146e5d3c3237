package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// A putOp is one step of a put-order sequence: a Put of key, or its Delete.
type putOp struct {
	del    bool
	traced bool // a put that passes a Trace, and so takes the full descent
	key    int
}

// play applies ops to a new tree of the given order and returns it with each
// op's prev and existed (or val and ok). With descend set every put passes a
// Trace; otherwise only the ops marked traced do.
func play(order int, ops []putOp, descend bool) (*Tree, []string) {
	tr := sized(order)
	var trace Trace
	out := make([]string, len(ops))
	for i, op := range ops {
		var prev []byte
		var existed bool
		switch {
		case op.del:
			prev, existed = tr.Delete(key(op.key), nil)
		case descend || op.traced:
			trace.Reset()
			prev, existed = tr.Put(key(op.key), val(i), &trace)
		default:
			prev, existed = tr.Put(key(op.key), val(i), nil)
		}
		out[i] = fmt.Sprintf("%q %v", prev, existed)
	}
	return tr, out
}

// sameTree returns the first difference between a and b: size, height, the
// next page id, the slab's chunks byte for byte, and node by node in
// preorder the id, address, leaf flag, the length and capacity of keys, vals
// and kids, every key and value ref with its bytes, and the leaf chain.
func sameTree(a, b *Tree) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("first tree: %v", err)
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("second tree: %v", err)
	}
	if a.Size() != b.Size() || a.Height() != b.Height() || a.nextID != b.nextID {
		return fmt.Errorf("size %d/%d, height %d/%d, next id %d/%d", a.Size(), b.Size(), a.Height(), b.Height(), a.nextID, b.nextID)
	}
	if len(a.chunks) != len(b.chunks) || len(a.slab) != len(b.slab) || a.slabAt != b.slabAt {
		return fmt.Errorf("slab: %d/%d chunks, %d/%d bytes used", len(a.chunks), len(b.chunks), len(a.slab), len(b.slab))
	}
	for i := range a.chunks {
		if !bytes.Equal(a.chunks[i], b.chunks[i]) {
			return fmt.Errorf("chunk %d differs", i)
		}
	}
	var na, nb []*node
	preorder(a.root, func(n *node) bool { na = append(na, n); return true })
	preorder(b.root, func(n *node) bool { nb = append(nb, n); return true })
	if len(na) != len(nb) {
		return fmt.Errorf("%d nodes / %d", len(na), len(nb))
	}
	for i, x := range na {
		y := nb[i]
		switch {
		case x.id != y.id || x.addr != y.addr || x.leaf != y.leaf:
			return fmt.Errorf("node %d: id %d/%d, leaf %v/%v", i, x.id, y.id, x.leaf, y.leaf)
		case len(x.keys) != len(y.keys) || cap(x.keys) != cap(y.keys):
			return fmt.Errorf("node %d: keys len %d/%d cap %d/%d", x.id, len(x.keys), len(y.keys), cap(x.keys), cap(y.keys))
		case len(x.vals) != len(y.vals) || cap(x.vals) != cap(y.vals):
			return fmt.Errorf("node %d: vals len %d/%d cap %d/%d", x.id, len(x.vals), len(y.vals), cap(x.vals), cap(y.vals))
		case len(x.kids) != len(y.kids) || cap(x.kids) != cap(y.kids):
			return fmt.Errorf("node %d: kids len %d/%d cap %d/%d", x.id, len(x.kids), len(y.kids), cap(x.kids), cap(y.kids))
		case (x.next == nil) != (y.next == nil) || x.next != nil && x.next.id != y.next.id:
			return fmt.Errorf("node %d: leaf chain differs", x.id)
		}
		for j := range x.keys {
			if x.keys[j] != y.keys[j] || !bytes.Equal(a.key(x.keys[j]), b.key(y.keys[j])) {
				return fmt.Errorf("node %d: key %d differs", x.id, j)
			}
		}
		for j := range x.vals {
			if x.vals[j] != y.vals[j] || !bytes.Equal(a.val(x.vals[j]), b.val(y.vals[j])) {
				return fmt.Errorf("node %d: value %d differs", x.id, j)
			}
		}
	}
	return nil
}

// rightmostLeaf is the leaf an untraced Put tries first.
func rightmostLeaf(tr *Tree) *node {
	n := tr.root
	for !n.leaf {
		n = n.kids[len(n.kids)-1]
	}
	return n
}

func putsOf(keys []int) []putOp {
	ops := make([]putOp, len(keys))
	for i, k := range keys {
		ops[i] = putOp{key: k}
	}
	return ops
}

func ascending(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// putOrders are the sequences the untraced and traced trees must agree on, n
// keys each at the given order.
func putOrders(t testing.TB, order, n int) map[string][]putOp {
	seqs := map[string][]putOp{
		"empty":      nil,
		"one key":    putsOf([]int{7}),
		"root only":  putsOf(ascending(0, order)),
		"root split": putsOf(ascending(0, order+1)),
		"ascending":  putsOf(ascending(0, n)),
		"descending": putsOf(reverseInts(n)),
		"shuffled":   putsOf(shuffleInts(n, 11)),
	}
	// Ascending with right-edge replaces: the last key, the one before it,
	// and now and then the rightmost leaf's first key, each put again.
	var replaces []putOp
	for i := 0; i < n; i++ {
		replaces = append(replaces, putOp{key: i})
		switch {
		case i%3 == 0:
			replaces = append(replaces, putOp{key: i})
		case i%5 == 1:
			replaces = append(replaces, putOp{key: i - 1})
		case i%7 == 2:
			replaces = append(replaces, putOp{key: i / 2 * 2})
		}
	}
	seqs["right-edge replaces"] = replaces
	// Ascending after deleting the rightmost leaf's first key, which leaves
	// its separator below the leaf's new first key; then the deleted key,
	// between the two, comes back.
	pre := putsOf(ascending(0, n))
	built, _ := play(order, pre, true)
	parent := built.root
	for !parent.kids[len(parent.kids)-1].leaf {
		parent = parent.kids[len(parent.kids)-1]
	}
	leaf := rightmostLeaf(built)
	first := int(binary.BigEndian.Uint64(built.key(leaf.keys[0])))
	built.Delete(key(first), nil)
	if rightmostLeaf(built) != leaf || bytes.Compare(built.key(parent.keys[len(parent.keys)-1]), built.key(leaf.keys[0])) >= 0 {
		t.Fatalf("order %d, %d keys: deleting the rightmost leaf's first key leaves no separator below its new first key", order, n)
	}
	stale := append(pre, putOp{del: true, key: first})
	stale = append(stale, putsOf(ascending(n, n/2))...)
	stale = append(stale, putOp{key: first}, putOp{key: n + n/2 - 1})
	seqs["below a stale separator"] = stale
	return seqs
}

// TestUntracedPutBuildsTheTracedTree: an untraced Put, which stores in the
// rightmost leaf without a descent when the key belongs there, leaves the
// tree a traced Put's descent leaves, node ids, array capacities and slab
// layout included, and returns the same prev and existed.
func TestUntracedPutBuildsTheTracedTree(t *testing.T) {
	for _, c := range []struct{ order, n int }{{4, 300}, {DefaultOrder, 20000}} {
		for name, ops := range putOrders(t, c.order, c.n) {
			hinted, hr := play(c.order, ops, false)
			descended, dr := play(c.order, ops, true)
			for i := range hr {
				if hr[i] != dr[i] {
					t.Fatalf("order %d, %s: op %d returned %s untraced, %s traced", c.order, name, i, hr[i], dr[i])
				}
			}
			if err := sameTree(hinted, descended); err != nil {
				t.Fatalf("order %d, %s: %v", c.order, name, err)
			}
		}
	}
}

// encodeOps is FuzzPutOrder's input format: the order's offset from 4 in one
// byte, then per op a kind byte (0 untraced put, 1 traced put, 2 delete) and
// the key as a u16.
func encodeOps(order int, ops []putOp) []byte {
	out := []byte{byte(order - 4)}
	for _, op := range ops {
		kind := byte(0)
		if op.traced {
			kind = 1
		}
		if op.del {
			kind = 2
		}
		out = append(out, kind)
		out = binary.BigEndian.AppendUint16(out, uint16(op.key))
	}
	return out
}

// FuzzPutOrder: any mix of untraced puts, traced puts and deletes leaves the
// tree, and the answers, that the same ops with every put traced leave. The
// seeds are the test's sequences at 40 keys: at 300 the minimizer spends its
// minute on each new input and the fuzzer stalls.
func FuzzPutOrder(f *testing.F) {
	seqs := putOrders(f, 4, 40)
	names := make([]string, 0, len(seqs))
	for name := range seqs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(encodeOps(4, seqs[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		order := 4 + int(data[0]%8)
		var ops []putOp
		for off := 1; len(data)-off >= 3; off += 3 {
			kind := data[off] % 3
			ops = append(ops, putOp{del: kind == 2, traced: kind == 1, key: int(binary.BigEndian.Uint16(data[off+1:]))})
		}
		mixed, mr := play(order, ops, false)
		descended, dr := play(order, ops, true)
		for i := range mr {
			if mr[i] != dr[i] {
				t.Fatalf("op %d returned %s, %s with every put traced", i, mr[i], dr[i])
			}
		}
		if err := sameTree(mixed, descended); err != nil {
			t.Fatal(err)
		}
	})
}
