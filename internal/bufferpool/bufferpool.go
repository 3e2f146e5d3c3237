// Package bufferpool implements the page cache used by the software
// baselines. It is a timing-model component: tree nodes live in Go memory,
// and the pool decides whether touching a page costs a hash probe (hit) or
// a disk read plus possible dirty write-back (miss). Its bookkeeping costs
// — hash, latch, pin counts, clock hand — are what Figure 3 charges to
// "Bpool mgmt"; the bionic engine replaces the pool with the FPGA-side
// overlay (§5.6).
package bufferpool

import (
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// Config tunes the pool.
type Config struct {
	// Frames is the number of page frames (pool capacity in pages).
	Frames int
	// FixInstr is the instruction cost of one fix: hash probe, latch
	// acquire/release, pin-count update.
	FixInstr int
	// UnfixInstr is the instruction cost of one unfix.
	UnfixInstr int
	// PageSize is the transfer size for misses and write-backs.
	PageSize int
}

// DefaultConfig returns the calibrated baseline costs.
func DefaultConfig(frames, pageSize int) Config {
	return Config{Frames: frames, FixInstr: 80, UnfixInstr: 20, PageSize: pageSize}
}

// frame is one page's entry in the frame table.
type frame struct {
	pins     int32
	resident bool
	dirty    bool
	refbit   bool
}

// Pool is a clock-replacement page cache over one storage device.
type Pool struct {
	cfg   Config
	dev   *platform.Device
	latch *sim.Resource

	// frames is indexed by page id (the DiskManager hands out dense ids) and
	// grows as pages appear; ring holds the resident pages' ids in clock
	// order, so its length is the resident count.
	frames []frame
	ring   []storage.PageID
	hand   int

	tableAddr uint64 // timing address of the hash table

	hits       int64
	misses     int64
	writebacks int64
}

// New creates a pool caching pages of dev.
func New(pl *platform.Platform, dev *platform.Device, cfg Config) *Pool {
	if cfg.Frames < 1 {
		panic("bufferpool: need at least one frame")
	}
	return &Pool{
		cfg:       cfg,
		dev:       dev,
		latch:     sim.NewResource(pl.Env, "bpool-latch", 1),
		tableAddr: pl.AllocHost(cfg.Frames * 64),
	}
}

// Fix pins page id, charging the hit path or the miss path (victim
// write-back if dirty, then a page read). It returns whether the page was
// resident. Fixes of pages already being read by another process are
// treated as independent misses — rare and conservatively costed.
func (bp *Pool) Fix(t *platform.Task, id storage.PageID) (hit bool) {
	t.Exec(stats.CompBpool, bp.cfg.FixInstr)
	t.Access(stats.CompBpool, bp.tableAddr+(uint64(id)*64)%uint64(bp.cfg.Frames*64), 16)
	t.Flush()
	bp.latch.Acquire(t.P)
	if f := bp.lookup(id); f != nil {
		f.pins++
		f.refbit = true
		bp.hits++
		bp.latch.Release()
		return true
	}
	bp.misses++
	victimDirty := false
	if len(bp.ring) >= bp.cfg.Frames {
		victimDirty = bp.evict(t)
	}
	bp.install(id, 1)
	// I/O happens outside the latch so other fixes proceed: release it, then
	// the victim's write-back and the page read, under one park.
	sc := t.P.Script()
	sc.Release(bp.latch)
	if victimDirty {
		bp.writebacks++
		bp.dev.AddTransfer(sc, bp.cfg.PageSize)
	}
	bp.dev.AddTransfer(sc, bp.cfg.PageSize)
	sc.Run()
	return false
}

// lookup returns page id's frame when the page is resident, else nil.
func (bp *Pool) lookup(id storage.PageID) *frame {
	if id < storage.PageID(len(bp.frames)) && bp.frames[id].resident {
		return &bp.frames[id]
	}
	return nil
}

// install makes page id resident with pins pins, at the end of the clock ring.
func (bp *Pool) install(id storage.PageID, pins int32) {
	if n := int(id) + 1; n > len(bp.frames) {
		bp.frames = append(bp.frames, make([]frame, n-len(bp.frames))...)
	}
	bp.frames[id] = frame{pins: pins, resident: true, refbit: true}
	bp.ring = append(bp.ring, id)
}

// evict advances the clock hand to a victim and removes it, reporting
// whether it was dirty. Called with the latch held.
func (bp *Pool) evict(t *platform.Task) (wasDirty bool) {
	for spins := 0; spins < 4*len(bp.ring); spins++ {
		if bp.hand >= len(bp.ring) {
			bp.hand = 0
		}
		f := &bp.frames[bp.ring[bp.hand]]
		if f.pins > 0 {
			bp.hand++
			continue
		}
		if f.refbit {
			f.refbit = false
			bp.hand++
			continue
		}
		f.resident = false
		bp.ring = append(bp.ring[:bp.hand], bp.ring[bp.hand+1:]...)
		return f.dirty
	}
	panic("bufferpool: all frames pinned")
}

// Unfix releases a pin; dirty marks the page modified (write-back on evict).
func (bp *Pool) Unfix(t *platform.Task, id storage.PageID, dirty bool) {
	t.Exec(stats.CompBpool, bp.cfg.UnfixInstr)
	f := bp.lookup(id)
	if f == nil || f.pins <= 0 {
		panic("bufferpool: unfix of unpinned page")
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// Prewarm installs page id in a frame without charging time or I/O, for
// post-population cache warming. It is a no-op when the page is already
// resident or the pool is full.
func (bp *Pool) Prewarm(id storage.PageID) {
	if bp.lookup(id) != nil || len(bp.ring) >= bp.cfg.Frames {
		return
	}
	bp.install(id, 0)
}

// Resident reports whether a page occupies a frame (no cost charged).
func (bp *Pool) Resident(id storage.PageID) bool { return bp.lookup(id) != nil }

// Hits returns the number of fix hits.
func (bp *Pool) Hits() int64 { return bp.hits }

// Misses returns the number of fix misses.
func (bp *Pool) Misses() int64 { return bp.misses }

// Writebacks returns the number of dirty-victim write-backs.
func (bp *Pool) Writebacks() int64 { return bp.writebacks }

// HitRatio returns hits/(hits+misses), or 0 before any fix.
func (bp *Pool) HitRatio() float64 {
	total := bp.hits + bp.misses
	if total == 0 {
		return 0
	}
	return float64(bp.hits) / float64(total)
}
