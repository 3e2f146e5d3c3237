package platform

// cacheLevel is a set-associative cache with true-LRU replacement, tracked
// at cache-line granularity. It stores tags only: the simulation keeps data
// in ordinary Go structures and uses the cache purely as a timing model.
//
// The tags of all sets live in one flat array, assoc ways per set in MRU
// order: a probe reaches its tags without loading a per-set slice header
// first, and filling a set allocates nothing. A way holds its line address
// plus one, so that the zero the array starts as is a way never filled;
// filled ways always precede unfilled ones.
type cacheLevel struct {
	lineShift uint
	setMask   uint64
	assoc     uint64
	tags      []uint64 // set i is tags[i*assoc : (i+1)*assoc], MRU first
	hits      int64
	misses    int64
}

func newCacheLevel(size, assoc, lineSize int) *cacheLevel {
	nSets := size / (assoc * lineSize)
	if nSets < 1 {
		nSets = 1
	}
	// Round down to a power of two so the set index is a mask.
	for nSets&(nSets-1) != 0 {
		nSets &^= nSets & -nSets
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	c := &cacheLevel{
		lineShift: shift,
		setMask:   uint64(nSets - 1),
		assoc:     uint64(assoc),
		tags:      make([]uint64, nSets*assoc),
	}
	return c
}

// access probes the cache for the line containing addr, installing it on a
// miss (evicting the LRU way, or taking an unfilled one: they sit at the LRU
// end). It returns whether the probe hit. Core.access inlines it, three
// times per reference: keep it inside the inliner's budget.
func (c *cacheLevel) access(lineAddr uint64) bool {
	tag := lineAddr + 1
	base := (lineAddr & c.setMask) * c.assoc
	set := c.tags[base : base+c.assoc]
	for i, t := range set {
		if t == tag {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	copy(set[1:], set)
	set[0] = tag
	return false
}

// CacheStats summarizes hierarchy behaviour for reports and tests.
type CacheStats struct {
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	L3Hits, L3Misses int64
}

// MissRatio returns LLC misses per L1 access, the fraction of accesses that
// reached DRAM.
func (s CacheStats) MissRatio() float64 {
	total := s.L1Hits + s.L1Misses
	if total == 0 {
		return 0
	}
	return float64(s.L3Misses) / float64(total)
}
