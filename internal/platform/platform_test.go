package platform

import (
	"fmt"
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func newTestPlatform() (*sim.Env, *Platform) {
	env := sim.NewEnv()
	return env, New(env, HC2())
}

func TestConfigCycleTimes(t *testing.T) {
	cfg := HC2()
	if ct := cfg.CycleTime(); ct != 400*sim.Picosecond {
		t.Errorf("2.5GHz cycle = %v, want 400ps", ct)
	}
	if fc := cfg.FPGACycle(); fc < 6600 || fc > 6700 {
		t.Errorf("150MHz FPGA cycle = %dps, want ~6667ps", fc)
	}
	if it := cfg.InstrTime(100); it != 40*sim.Nanosecond {
		t.Errorf("100 instr = %v, want 40ns", it)
	}
}

func TestTransferTime(t *testing.T) {
	// 4 GB/s: 4096 bytes should take ~1.024us... 4096B / 4B-per-ns = 1024ns.
	if d := transferTime(4096, 4); d != 1024*sim.Nanosecond {
		t.Errorf("4KB over 4GB/s = %v, want 1.024us", d)
	}
	if d := transferTime(0, 4); d != 0 {
		t.Errorf("0 bytes = %v", d)
	}
}

func TestCacheLevelHitMiss(t *testing.T) {
	c := newCacheLevel(32<<10, 8, 64) // 64 sets
	if c.access(1) {
		t.Fatal("cold access hit")
	}
	if !c.access(1) {
		t.Fatal("warm access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLevelLRUEviction(t *testing.T) {
	c := newCacheLevel(8*64, 8, 64) // one set, 8 ways
	for i := uint64(0); i < 8; i++ {
		c.access(i)
	}
	c.access(0)  // touch 0, making 1 the LRU
	c.access(99) // evicts 1
	if !c.access(0) {
		t.Error("recently used line evicted")
	}
	if c.access(1) {
		t.Error("LRU line not evicted")
	}
}

// nestedCache is the cache model as it was before the tags went into one
// flat array: a slice of MRU-ordered tag slices grown on first touch. The
// flat cacheLevel must answer every probe as it does.
type nestedCache struct {
	assoc int
	mask  uint64
	sets  [][]uint64
}

func (c *nestedCache) access(line uint64) bool {
	set := c.sets[line&c.mask]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.assoc {
		set = append(set, 0)
		c.sets[line&c.mask] = set
	}
	copy(set[1:], set)
	set[0] = line
	return false
}

func TestCacheLevelMatchesNestedModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 8, 16} {
		c := newCacheLevel(16*assoc*64, assoc, 64) // 16 sets
		ref := &nestedCache{assoc: assoc, mask: c.setMask, sets: make([][]uint64, c.setMask+1)}
		r := sim.NewRand(uint64(assoc))
		for i := 0; i < 200000; i++ {
			// A working set a little over capacity, with reuse: hits, fills
			// and evictions all occur.
			line := uint64(r.Intn(16 * assoc * 3 / 2))
			if r.Intn(4) == 0 {
				line = uint64(r.Intn(1 << 20))
			}
			if got, want := c.access(line), ref.access(line); got != want {
				t.Fatalf("assoc %d, probe %d of line %d: hit=%v, nested model says %v", assoc, i, line, got, want)
			}
		}
		if c.hits == 0 || c.misses == 0 {
			t.Fatalf("assoc %d: %d hits, %d misses: the probe stream is one-sided", assoc, c.hits, c.misses)
		}
	}
}

func TestCacheSetConflicts(t *testing.T) {
	c := newCacheLevel(32<<10, 8, 64) // 64 sets, 8 ways
	// 9 lines mapping to set 0: line addresses multiples of 64.
	for i := uint64(0); i < 9; i++ {
		c.access(i * 64)
	}
	if c.access(0) {
		t.Error("conflict-evicted line still present")
	}
	if !c.access(8 * 64) {
		t.Error("most recent conflicting line missing")
	}
}

func TestDeviceBandwidthAndLatency(t *testing.T) {
	env, pl := newTestPlatform()
	var took sim.Duration
	env.Spawn("xfer", func(p *sim.Proc) {
		took = pl.PCIe.Transfer(p, 4096)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1024*sim.Nanosecond + 1*sim.Microsecond // serialization + latency
	if took != want {
		t.Errorf("PCIe 4KB transfer = %v, want %v", took, want)
	}
	if pl.PCIe.Bytes() != 4096 {
		t.Errorf("bytes=%d", pl.PCIe.Bytes())
	}
}

func TestDevicePipelinedLatencyOverlaps(t *testing.T) {
	env, pl := newTestPlatform()
	// 16 concurrent 8-byte SG-DRAM reads should take ~one latency, not 16.
	for i := 0; i < 16; i++ {
		env.Spawn("rd", func(p *sim.Proc) {
			pl.SGDRAM.Transfer(p, 8)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() > sim.Time(500*sim.Nanosecond) {
		t.Errorf("16 parallel SG reads took %v, want ~400ns", env.Now())
	}
}

func TestHoldingDeviceSerializes(t *testing.T) {
	env, pl := newTestPlatform()
	// Two 0-byte SSD ops on 1 channel: 20us each, serialized = 40us.
	for i := 0; i < 2; i++ {
		env.Spawn("wr", func(p *sim.Proc) {
			pl.SSD.Transfer(p, 0)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != sim.Time(40*sim.Microsecond) {
		t.Errorf("2 serialized SSD ops finished at %v, want 40us", env.Now())
	}
}

func TestDiskSeekDominates(t *testing.T) {
	env, pl := newTestPlatform()
	var took sim.Duration
	env.Spawn("rd", func(p *sim.Proc) {
		took = pl.Disk.Transfer(p, 8192)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took < 5*sim.Millisecond || took > 6*sim.Millisecond {
		t.Errorf("disk page read = %v, want ~5ms", took)
	}
}

func TestTaskExecChargesCoreAndBreakdown(t *testing.T) {
	env, pl := newTestPlatform()
	var bd stats.Breakdown
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &bd)
		task.Exec(stats.CompBtree, 1000)
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 400 * sim.Nanosecond // 1000 instr × 400ps
	if got := bd.Get(stats.CompBtree); got != want {
		t.Errorf("breakdown charge %v, want %v", got, want)
	}
	if got := pl.Cores[0].BusyTime(); got != want {
		t.Errorf("core busy %v, want %v", got, want)
	}
	if pl.Instructions() != 1000 {
		t.Errorf("instructions = %d", pl.Instructions())
	}
}

func TestTaskAccessWarmVsCold(t *testing.T) {
	env, pl := newTestPlatform()
	var bd stats.Breakdown
	var coldTime, warmTime sim.Duration
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &bd)
		addr := pl.AllocHost(64)
		task.Access(stats.CompOther, addr, 8)
		coldTime = bd.Get(stats.CompOther)
		task.Access(stats.CompOther, addr, 8)
		warmTime = bd.Get(stats.CompOther) - coldTime
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if coldTime != pl.Cfg.DRAMMissLat {
		t.Errorf("cold access %v, want %v", coldTime, pl.Cfg.DRAMMissLat)
	}
	if warmTime != pl.Cfg.L1Lat {
		t.Errorf("warm access %v, want %v", warmTime, pl.Cfg.L1Lat)
	}
}

func TestTaskAccessSpansLines(t *testing.T) {
	env, pl := newTestPlatform()
	var bd stats.Breakdown
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &bd)
		addr := pl.AllocHost(256)
		task.Access(stats.CompOther, addr, 128) // exactly 2 lines
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := bd.Get(stats.CompOther); got != 2*pl.Cfg.DRAMMissLat {
		t.Errorf("2-line access charged %v, want %v", got, 2*pl.Cfg.DRAMMissLat)
	}
}

func TestTaskFlushBurstCap(t *testing.T) {
	env, pl := newTestPlatform()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		// 10us of work must flush at least at the burst cap without an
		// explicit Flush in between.
		for i := 0; i < 10; i++ {
			task.Exec(stats.CompOther, 2500) // 1us each
		}
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pl.Cores[0].BusyTime(); got != 10*sim.Microsecond {
		t.Errorf("core busy %v, want 10us", got)
	}
}

// TestTaskResetDropsPendingCharge pins what reusing a Task must reproduce
// from the days every unit of work got a fresh one: a charge that was never
// flushed stays in the Breakdown but is never served by the core, and costs
// no simulated time. (dora's deferral path leaves such a charge behind; see
// ROADMAP [accounts] — it is a modelling bug with its own re-pin, not something a
// reused task may quietly fix.)
func TestTaskResetDropsPendingCharge(t *testing.T) {
	env, pl := newTestPlatform()
	bd := &stats.Breakdown{}
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		task.Exec(stats.CompOther, 2500) // 1us, flushed
		task.Flush()
		task.Exec(stats.CompOther, 1250) // 0.5us, left pending
		task.Reset()
		task.Flush()                     // nothing to serve
		task.Exec(stats.CompOther, 2500) // 1us: the next unit of work
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pl.Cores[0].BusyTime(); got != 2*sim.Microsecond {
		t.Errorf("core busy %v, want 2us: the dropped 0.5us must not be served", got)
	}
	if env.Now() != sim.Time(2*sim.Microsecond) {
		t.Errorf("finished at %v, want 2us", env.Now())
	}
	if got := bd.Get(stats.CompOther); got != 2500*sim.Nanosecond {
		t.Errorf("breakdown has %v, want 2.5us: it keeps the dropped charge", got)
	}
}

func TestTwoTasksShareCore(t *testing.T) {
	env, pl := newTestPlatform()
	for i := 0; i < 2; i++ {
		env.Spawn("w", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[0], nil)
			task.Exec(stats.CompOther, 2500) // 1us
			task.Flush()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != sim.Time(2*sim.Microsecond) {
		t.Errorf("2 tasks on one core finished at %v, want 2us", env.Now())
	}
}

func TestHWUnitPipelineParallelism(t *testing.T) {
	env, pl := newTestPlatform()
	unit := pl.NewHWUnit("probe", 4)
	ops := 0
	for i := 0; i < 8; i++ {
		env.Spawn("op", func(p *sim.Proc) {
			unit.Work(p, 150) // 1us at 150MHz
			ops++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 ops, 4 slots, ~1us each → ~2us (FPGA cycle rounds to whole ps).
	if env.Now() < sim.Time(1990*sim.Nanosecond) || env.Now() > sim.Time(2010*sim.Nanosecond) {
		t.Errorf("8 ops on 4 slots finished at %v, want ~2us", env.Now())
	}
	if ops != 8 {
		t.Errorf("ops=%d", ops)
	}
}

func TestAllocSeparatesDomains(t *testing.T) {
	_, pl := newTestPlatform()
	h := pl.AllocHost(100)
	f := pl.AllocFPGA(100)
	if IsFPGAAddr(h) {
		t.Error("host address classified as FPGA")
	}
	if !IsFPGAAddr(f) {
		t.Error("FPGA address classified as host")
	}
	h2 := pl.AllocHost(1)
	if h2 <= h {
		t.Error("allocator did not advance")
	}
	if h2%64 != h%64 {
		t.Error("allocations not 64-byte aligned")
	}
}

func TestEnergyReportWindow(t *testing.T) {
	env, pl := newTestPlatform()
	s0 := pl.Snapshot()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		task.Exec(stats.CompOther, 2500000) // 1ms of CPU
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	r := pl.Energy(s0, pl.Snapshot())
	if r.Window != sim.Duration(1*sim.Millisecond) {
		t.Fatalf("window %v", r.Window)
	}
	// 1ms busy at (10-2)W dynamic = 8mJ; idle 8 cores × 2W × 1ms = 16mJ.
	if r.CPUDynamic < 7.9e-3 || r.CPUDynamic > 8.1e-3 {
		t.Errorf("CPUDynamic = %v J, want ~8e-3", r.CPUDynamic)
	}
	if r.CPUIdle < 15.9e-3 || r.CPUIdle > 16.1e-3 {
		t.Errorf("CPUIdle = %v J, want ~16e-3", r.CPUIdle)
	}
	if r.Total() <= 0 {
		t.Error("empty total")
	}
}

func TestEnergyDRAMAndPCIeBytes(t *testing.T) {
	env, pl := newTestPlatform()
	s0 := pl.Snapshot()
	env.Spawn("w", func(p *sim.Proc) {
		pl.PCIe.Transfer(p, 1<<20)
		pl.SGDRAM.Transfer(p, 1<<20)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	r := pl.Energy(s0, pl.Snapshot())
	wantPCIe := float64(1<<20) * pl.Cfg.PCIePJPerByte * 1e-12
	if r.PCIe < wantPCIe*0.99 || r.PCIe > wantPCIe*1.01 {
		t.Errorf("PCIe energy %v, want %v", r.PCIe, wantPCIe)
	}
	wantDRAM := float64(1<<20) * pl.Cfg.DRAMPJPerByte * 1e-12
	if r.DRAM < wantDRAM*0.99 || r.DRAM > wantDRAM*1.01 {
		t.Errorf("DRAM energy %v, want %v", r.DRAM, wantDRAM)
	}
}

func TestCacheStatsAggregation(t *testing.T) {
	env, pl := newTestPlatform()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], nil)
		a := pl.AllocHost(64)
		task.Access(stats.CompOther, a, 8)
		task.Access(stats.CompOther, a, 8)
		task.Flush()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := pl.CacheStats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.L3Misses != 1 {
		t.Errorf("stats %+v", s)
	}
	if r := s.MissRatio(); r != 0.5 {
		t.Errorf("miss ratio %v, want 0.5", r)
	}
}

// TestTransferParksOnce pins the host cost of a transfer as an exact count:
// four processes contend for PCIe's one channel, so a transfer queues, holds
// and then waits out the latency, and the process is resumed once for all of
// it (three times before kernel scripts).
func TestTransferParksOnce(t *testing.T) {
	env, pl := newTestPlatform()
	const procs, each = 4, 50
	for i := 0; i < procs; i++ {
		env.Spawn("xfer", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				pl.PCIe.Transfer(p, 4096)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// One resume starts each process; a transfer adds at most one.
	if got, max := env.Switches(), uint64(procs+procs*each); got > max || got < max-procs {
		t.Errorf("%d resumes for %d transfers by %d processes, want %d less at most %d fast-path tails",
			got, procs*each, procs, max, procs)
	}
	if pl.PCIe.Bytes() != procs*each*4096 {
		t.Errorf("bytes=%d", pl.PCIe.Bytes())
	}
}

// TestCountersMoveWhenTheStepStarts checks the instant traffic counters
// advance, which the harness depends on when it snapshots them at the edges
// of the measurement window: a transfer counts from the moment it queues for
// a channel, not from when it gets one, and a transfer chained behind a
// flush in one script counts only once the flush is over.
func TestCountersMoveWhenTheStepStarts(t *testing.T) {
	env, pl := newTestPlatform()
	unit := pl.NewHWUnit("u", 1)
	type reading struct{ ssdBytes, pcieBytes int64 }
	read := func() reading {
		return reading{pl.SSD.Bytes(), pl.PCIe.Bytes()}
	}
	at := make(map[sim.Duration]reading)
	for _, d := range []sim.Duration{sim.Microsecond, 25 * sim.Microsecond, 60 * sim.Microsecond} {
		d := d
		env.At(sim.Time(d), func() { at[d] = read() })
	}
	// The SSD's one channel is held for 20us a transfer: the second queues.
	for i := 0; i < 2; i++ {
		env.Spawn("ssd", func(p *sim.Proc) { pl.SSD.Transfer(p, 512) })
	}
	// Core 0 is busy for 50us, so the chained flush waits that long for it.
	env.Spawn("hog", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		task.charge(stats.CompOther, 50*sim.Microsecond)
	})
	env.Spawn("chained", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], nil)
		task.Exec(stats.CompOther, 250)
		sc := task.Script()
		pl.PCIe.AddTransfer(sc, 64)
		unit.AddWork(sc, 15)
		sc.Run()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := at[sim.Microsecond], (reading{ssdBytes: 1024}); got != want {
		t.Errorf("at 1us: %+v, want %+v (both SSD transfers counted, the chained ones not begun)", got, want)
	}
	if got, want := at[25*sim.Microsecond], (reading{ssdBytes: 1024}); got != want {
		t.Errorf("at 25us: %+v, want %+v (the flush still waits for its core)", got, want)
	}
	if got, want := at[60*sim.Microsecond], (reading{1024, 64}); got != want {
		t.Errorf("at 60us: %+v, want %+v", got, want)
	}
}

// chargeChain makes a fixed run of charges from a continuation (RunChain),
// each one host work whose instant it records, going on behind whatever a
// charge that reached the burst cap appended.
type chargeChain struct {
	t     *Task
	n, i  int
	note  func()
	addr  uint64
	steps int // continuations run
}

func (c *chargeChain) charge(i int) {
	c.note()
	if i%3 == 0 {
		c.t.Access(stats.CompOther, c.addr+uint64(i)*4096, 64)
	} else {
		c.t.Exec(stats.CompOther, 700)
	}
}

func (c *chargeChain) Continue(sc *sim.Script) {
	c.steps++
	for c.i < c.n {
		c.charge(c.i)
		c.i++
		if sc.Pending() {
			sc.Then(c)
			return
		}
	}
	c.t.Flush()
}

// TestChainChargesCutAtBurstCap runs three tasks on one core that make the
// same charges, once one call at a time and once from a continuation, and
// wants the same charge instants, core accounting and event count: in a
// continuation a charge that reaches the burst cap appends the core time
// instead of parking, and the continuation goes on behind it, so the cut
// points stay where they were while each task parks once per run.
func TestChainChargesCutAtBurstCap(t *testing.T) {
	run := func(chained bool) (trace string, executed, switches uint64, busy sim.Duration, steps int) {
		env := sim.NewEnv()
		pl := New(env, HC2())
		var rec []string
		for k := 0; k < 3; k++ {
			k := k
			env.Spawn("charger", func(p *sim.Proc) {
				c := &chargeChain{t: pl.NewTask(p, pl.Cores[0], nil), n: 40, addr: pl.AllocHost(1 << 20)}
				c.note = func() { rec = append(rec, fmt.Sprintf("%d@%v", k, p.Now())) }
				for round := 0; round < 3; round++ {
					c.i = 0
					if chained {
						c.t.RunChain(c)
						continue
					}
					for ; c.i < c.n; c.i++ {
						c.charge(c.i)
					}
					c.t.Flush()
				}
				steps += c.steps
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rec), env.Executed(), env.Switches(), pl.Cores[0].BusyTime(), steps
	}
	ht, he, hs, hb, _ := run(false)
	ct, ce, cs, cb, steps := run(true)
	if ht != ct || he != ce || hb != cb {
		t.Errorf("by hand %d events, core busy %v; chained %d events, core busy %v; traces equal %v",
			he, hb, ce, cb, ht == ct)
	}
	if steps <= 9 {
		t.Errorf("%d continuation steps over 9 chains: no charge reached the burst cap", steps)
	}
	if cs >= hs {
		t.Errorf("chained resumed %d times, by hand %d: nothing was saved", cs, hs)
	}
}

// Hits returns the number of hits recorded so far.
func (c *cacheLevel) Hits() int64 { return c.hits }

// Misses returns the number of misses recorded so far.
func (c *cacheLevel) Misses() int64 { return c.misses }

// BusyTime returns how long the core has been executing charged work.
func (c *Core) BusyTime() sim.Duration { return c.res.BusyTime() }
