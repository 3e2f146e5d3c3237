package obs

import "sort"

// ShardRec is one span ring. It is written only from the simulation (or by
// the driver between runs), so it needs no locking. All methods are
// nil-safe: instrumented layers keep a possibly-nil *ShardRec and call
// Record unconditionally, so the untraced hot path costs one nil check.
type ShardRec struct {
	shard   int
	cap     int
	spans   []Span
	next    int    // ring write position once len(spans) == cap
	seq     uint64 // total spans ever recorded
	dropped uint64 // spans overwritten after the ring filled
}

// Record appends a span to the ring, overwriting the oldest span when full.
func (r *ShardRec) Record(sp Span) {
	if r == nil {
		return
	}
	sp.Shard = int32(r.shard)
	sp.seq = r.seq
	r.seq++
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, sp)
		return
	}
	r.spans[r.next] = sp
	r.next = (r.next + 1) % r.cap
	r.dropped++
}

// Dropped reports how many spans were overwritten after the ring filled.
func (r *ShardRec) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Recorder is the per-run trace: a set of span rings. Runs record into
// ring 0; the rest of the set survives only for callers that still size
// it by a shard count.
type Recorder struct {
	shards []*ShardRec
}

// NewRecorder builds a recorder with the given number of rings, each of the
// given capacity.
func NewRecorder(shards, cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	rec := &Recorder{shards: make([]*ShardRec, shards)}
	for i := range rec.shards {
		rec.shards[i] = &ShardRec{shard: i, cap: cap}
	}
	return rec
}

// Shard returns ring i. Nil-safe: a nil recorder yields a nil
// *ShardRec, whose Record is a no-op.
func (rec *Recorder) Shard(i int) *ShardRec {
	if rec == nil {
		return nil
	}
	return rec.shards[i]
}

// Dropped sums the overwritten-span counts across rings.
func (rec *Recorder) Dropped() uint64 {
	var n uint64
	if rec == nil {
		return 0
	}
	for _, r := range rec.shards {
		n += r.Dropped()
	}
	return n
}

// Merged returns every recorded span in the canonical total order
// (start time, ring, per-ring sequence): a pure function of the
// simulation, identical at any GOMAXPROCS.
func (rec *Recorder) Merged() []Span {
	if rec == nil {
		return nil
	}
	var out []Span
	for _, r := range rec.shards {
		out = append(out, r.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.seq < b.seq
	})
	return out
}
