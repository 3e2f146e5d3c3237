package btree

// Reclaimer decides when a row a tree replaced or deleted can no longer be
// read, so that its slab bytes can hold a later row: epoch-based
// reclamation over transaction attempts. Each attempt takes an epoch from
// Begin and hands it back to End when it ends; a row a tree retires is
// stamped with the last epoch begun, and becomes free once every attempt
// that began at or before that stamp has ended. A view of a row (from Get,
// Scan, Put's prev or Delete) taken inside an attempt is therefore good
// until that attempt ends, however many times the row is replaced
// meanwhile.
//
// One reclaimer serves every tree of an engine (SetReclaimer). A tree
// without one never reuses a byte. The zero value is ready to use. Like the
// trees, it is not safe for concurrent use from several goroutines.
type Reclaimer struct {
	begun uint64 // attempts begun: the stamp a row retired now gets
	// ended holds, for each attempt from the oldest still open to the last
	// begun, whether it has ended; the oldest open one is always false, so
	// begun+1-len(ended) is the oldest open attempt (begun+1 when none is).
	ended []bool
}

// Begin opens a transaction attempt and returns its epoch.
func (rc *Reclaimer) Begin() uint64 {
	rc.begun++
	rc.ended = append(rc.ended, false)
	return rc.begun
}

// End closes the attempt Begin returned epoch for.
func (rc *Reclaimer) End(epoch uint64) {
	rc.ended[epoch-rc.oldest()] = true
	n := 0
	for n < len(rc.ended) && rc.ended[n] {
		n++
	}
	if n > 0 {
		rc.ended = rc.ended[:copy(rc.ended, rc.ended[n:])]
	}
}

// oldest is the epoch of the oldest attempt that has not ended, or one past
// the last begun when every attempt has: a row stamped below it is free.
func (rc *Reclaimer) oldest() uint64 { return rc.begun + 1 - uint64(len(rc.ended)) }

// retiredRow is a row a tree replaced or deleted, and the epoch it was
// retired in.
type retiredRow struct {
	r     ref
	stamp uint64
}

// SetReclaimer makes the tree reuse the slab bytes of the rows it replaces
// and deletes once rc says no attempt can still read them. Call it on a new
// tree, before its first Put.
func (t *Tree) SetReclaimer(rc *Reclaimer) { t.rc = rc }

// carve records chunk c as a slab chunk clone carved, the only chunks
// whose rows retire may reuse.
func (t *Tree) carve(c uint32) {
	for int(c>>6) >= len(t.carved) {
		t.carved = append(t.carved, 0)
	}
	t.carved[c>>6] |= 1 << (c & 63)
}

// retire queues row r, which a Put has replaced or a Delete removed, for
// reuse once no attempt can still read it. Only a narrow row in a chunk
// clone carved is ever queued: never a key (a key may stay on as a
// separator), a row in a checkpoint image or an AddChunk buffer, or a wide
// row.
func (t *Tree) retire(r ref) {
	c := r.chunk
	if t.rc == nil || r.off&wide != 0 || int(c>>6) >= len(t.carved) || t.carved[c>>6]&(1<<(c&63)) == 0 {
		return
	}
	if len(t.retired) == cap(t.retired) && t.reaped >= len(t.retired)/2 {
		t.retired = t.retired[:copy(t.retired, t.retired[t.reaped:])]
		t.reaped = 0
	}
	t.retired = append(t.retired, retiredRow{r, t.rc.begun})
}

// reap moves every retired row no open attempt can read onto the free list
// of its length, poisoning its bytes under the race build tag.
func (t *Tree) reap() {
	oldest := t.rc.oldest()
	for t.reaped < len(t.retired) && t.retired[t.reaped].stamp < oldest {
		r := t.retired[t.reaped].r
		t.reaped++
		v := t.key(r)
		if rowPoison {
			for i := range v {
				v[i] = 0xDB
			}
		}
		if t.free == nil {
			t.free = make(map[int][]ref)
		}
		t.free[len(v)] = append(t.free[len(v)], r)
	}
	if t.reaped == len(t.retired) {
		t.retired, t.reaped = t.retired[:0], 0
	}
}

// cloneRow is clone for a row: with a reclaimer, a narrow row takes the
// bytes of a free row of its length when there is one.
func (t *Tree) cloneRow(val []byte) ref {
	if t.rc == nil || len(val) > maxKeyLen {
		return t.clone(val)
	}
	if t.reaped < len(t.retired) {
		t.reap()
	}
	if len(t.free) == 0 {
		return t.clone(val) // nothing freed yet: population, for one
	}
	fl := t.free[len(val)]
	if len(fl) == 0 {
		return t.clone(val)
	}
	r := fl[len(fl)-1]
	t.free[len(val)] = fl[:len(fl)-1]
	copy(t.chunks[r.chunk][r.off+2:], val)
	return r
}

// dropRetired forgets every retired and free row: the chunk table they
// were in has been replaced.
func (t *Tree) dropRetired() {
	t.carved, t.retired, t.reaped, t.free = nil, nil, 0, nil
}
