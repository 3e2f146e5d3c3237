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
// treated as independent misses — rare and conservatively costed. It runs
// StepFix as one kernel script, so the task's process parks at most once.
func (bp *Pool) Fix(t *platform.Task, id storage.PageID) (hit bool) {
	c := calls.Get(t)
	c.bp, c.fix, c.isUnfix = bp, FixOp{ID: id}, false
	t.RunChain(c)
	return c.fix.Hit
}

// FixOp is one page fix in progress (StepFix). A fix begins from the value
// with ID set and the rest zero; Hit is its result once StepFix is done.
type FixOp struct {
	ID  storage.PageID
	Hit bool
	pc  uint8
}

// StepFix runs fix f on t from inside a continuation of t's process
// (sim.Script): the fix's instructions and hash-table access, the pool latch,
// the lookup, and on a miss the eviction, the latch's release and the I/O
// outside it. Each thing it does happens at the instant Fix's process would
// have done it. It returns false once it has appended kernel steps that must
// run before it can go on (core time, the latch, a charge's cut): the caller
// calls it again, with the same f, from a continuation behind them. It
// returns true when the page is pinned; steps may still be pending then (the
// miss's I/O), and the fix is over once they have run.
func (bp *Pool) StepFix(sc *sim.Script, t *platform.Task, f *FixOp) (done bool) {
	switch f.pc {
	case 0:
		f.pc++
		t.Exec(stats.CompBpool, bp.cfg.FixInstr)
		if sc.Pending() {
			return false
		}
		fallthrough
	case 1:
		f.pc++
		t.Access(stats.CompBpool, bp.tableAddr+(uint64(f.ID)*64)%uint64(bp.cfg.Frames*64), 16)
		t.Flush() // empty when the access reached the burst cap
		sc.Acquire(bp.latch)
		return false
	}
	if fr := bp.lookup(f.ID); fr != nil {
		fr.pins++
		fr.refbit = true
		bp.latch.Release()
		f.Hit = true
		return true
	}
	victimDirty := false
	if len(bp.ring) >= bp.cfg.Frames {
		victimDirty = bp.evict()
	}
	bp.install(f.ID, 1)
	// I/O happens outside the latch so other fixes proceed: release it, then
	// the victim's write-back and the page read.
	bp.latch.Release()
	if victimDirty {
		bp.dev.AddTransfer(sc, bp.cfg.PageSize)
	}
	bp.dev.AddTransfer(sc, bp.cfg.PageSize)
	return true
}

// UnfixOp is one unfix in progress (StepUnfix), begun from the value with ID
// and Dirty set and the rest zero.
type UnfixOp struct {
	ID    storage.PageID
	Dirty bool
	pc    uint8
}

// StepUnfix runs unfix u on t from inside a continuation of t's process, as
// StepFix runs a fix: false when its instructions reached the task's burst
// cap and the caller must call it again behind the core time, true once the
// pin is released.
func (bp *Pool) StepUnfix(sc *sim.Script, t *platform.Task, u *UnfixOp) (done bool) {
	if u.pc == 0 {
		u.pc++
		t.Exec(stats.CompBpool, bp.cfg.UnfixInstr)
		if sc.Pending() {
			return false
		}
	}
	f := bp.lookup(u.ID)
	if f == nil || f.pins <= 0 {
		panic("bufferpool: unfix of unpinned page")
	}
	f.pins--
	if u.Dirty {
		f.dirty = true
	}
	return true
}

// call is a task's blocking Fix or Unfix in progress, and its continuation.
// It is built when the task first fixes a page.
type call struct {
	bp      *Pool
	t       *platform.Task
	fix     FixOp
	unfix   UnfixOp
	isUnfix bool
}

var calls = platform.NewLocal(func(t *platform.Task) *call { return &call{t: t} })

// Continue implements sim.Continuation.
func (c *call) Continue(sc *sim.Script) {
	var done bool
	if c.isUnfix {
		done = c.bp.StepUnfix(sc, c.t, &c.unfix)
	} else {
		done = c.bp.StepFix(sc, c.t, &c.fix)
	}
	if !done {
		sc.Then(c)
	}
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
func (bp *Pool) evict() (wasDirty bool) {
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
// It runs StepUnfix as one kernel script.
func (bp *Pool) Unfix(t *platform.Task, id storage.PageID, dirty bool) {
	c := calls.Get(t)
	c.bp, c.unfix, c.isUnfix = bp, UnfixOp{ID: id, Dirty: dirty}, true
	t.RunChain(c)
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
