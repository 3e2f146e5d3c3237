package core_test

import (
	"runtime"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// benchConfigs are the repository benchmark's three core.Run machines,
// engines, scales and client counts (benchmark/workloads.go) with a tenth of
// its simulated window, and the machine and database of its fourth workload.
// TestSwitchesPerEvent and TestAllocsPerTxn pin exact host-cost counts on
// them, and TestPopulateHeap and TestCheckpointHeap the live heap of their
// databases, loaded and then checkpointed; all four repeat on every host.
var benchConfigs = []struct {
	name      string
	terminals int
	measure   sim.Duration
	switches  float64 // ceiling on coroutine resumes per kernel event
	allocs    float64 // ceiling on heap allocations per transaction issued
	kb        float64 // ceiling on heap KB allocated per transaction issued
	heap      float64 // ceiling on live heap bytes per loaded row after Open
	ckptHeap  float64 // the same after Open and Checkpoint, images included
	build     func() (core.Workload, func(*sim.Env) core.Engine)
}{
	{"tatp-bionic", 64, 40 * sim.Millisecond, 0.11, 0.093, 0.059, 79, 87, func() (core.Workload, func(*sim.Env) core.Engine) {
		wl := tatp.New(tatp.Config{Subscribers: 100000})
		return wl, func(env *sim.Env) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
		}
	}},
	{"tpcc-conv", 64, 40 * sim.Millisecond, 0.17, 3.45, 2.92, 94, 99, func() (core.Workload, func(*sim.Env) core.Engine) {
		wl := tpcc.New(tpcc.DefaultConfig())
		return wl, func(env *sim.Env) core.Engine {
			return core.NewConventional(env, platform.HC2(), wl.Tables())
		}
	}},
	{"ycsb-dora-4s", 128, 20 * sim.Millisecond, 0.26, 0.076, 0.0098, 163, 179, func() (core.Workload, func(*sim.Env) core.Engine) {
		cfg := ycsb.WorkloadA()
		cfg.Records, cfg.FieldSize, cfg.Theta = 400000, 100, 0.7
		wl := ycsb.New(cfg)
		return wl, func(env *sim.Env) core.Engine {
			return core.NewDORA(env, platform.HC2ScaledSharded(4), wl.Tables(), wl.Scheme(32))
		}
	}},
	// crash-recover-2s's machine and database, run as a plain window: the
	// bionic engine's TPC-C path (overlay, per-action arenas, entity locks).
	{"tpcc-bionic-2s", 64, 15 * sim.Millisecond, 0.05, 6.25, 7.45, 96, 101, func() (core.Workload, func(*sim.Env) core.Engine) {
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses = 8
		wl := tpcc.New(cfg)
		return wl, func(env *sim.Env) core.Engine {
			return core.NewBionic(env, platform.HC2ScaledSharded(2), wl.Tables(), wl.Scheme(16), core.AllOffloads(), 8)
		}
	}},
}

// TestSwitchesPerEvent pins how chatty the engines are toward the coroutine
// layer: the share of kernel events that resume a process instead of running
// inline in the dispatch loop. A ceiling that starts failing means a blocking
// chain somewhere was split back into one park per step. Before kernel
// scripts the ratios were 0.93, 0.94 and 0.70 (tpcc-bionic-2s, added later,
// measures 0.18; ycsb-dora-4s measures 0.59 now that it parks on cross-socket
// conflicts where it used to refuse and retry: 2.54M events became 2.38M).
// Before a page latch and the log latch were taken in the script of the
// flush ahead of them, tpcc-conv measured 0.658 (2 093 732 resumes / 3 184 179
// events, then 2 009 911) and ycsb-dora-4s 0.592 (then 0.542), against
// ceilings of 0.70 and 0.62. Before the conventional engine's page walk,
// lock pair, release loop and software log insert ran as kernel
// continuations, each parking at most once, tpcc-conv measured 0.631
// (2 009 911 resumes / 3 184 179 events) and ycsb-dora-4s 0.542 (1 290 868 /
// 2 381 902) against ceilings of 0.65 and 0.56; they measure 0.155 (493 914
// / 3 184 179) and 0.419 (997 854 / 2 381 902), the event counts unchanged.
// Before DORA's partition servers, coordinator fan-outs and commit tails,
// the tree probe and the overlay's scans and write completions ran as
// kernel continuations, tatp-bionic measured 0.333 (1 042 637 / 3 134 835),
// ycsb-dora-4s 0.419 and tpcc-bionic-2s 0.182 (784 828 / 4 308 825) against
// ceilings of 0.45, 0.44 and 0.25; they measure 0.093 (290 919), 0.243
// (578 261) and 0.041 (177 552), the event counts unchanged. What is left
// switches into a body: a data action's Run, the transaction logic between
// its phases and commit, and a probe's caller once per probe.
func TestSwitchesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("populates three benchmark-scale databases")
	}
	for _, c := range benchConfigs {
		t.Run(c.name, func(t *testing.T) {
			wl, mk := c.build()
			res, err := core.Run(core.RunConfig{
				Terminals: c.terminals, Warmup: 20 * sim.Millisecond, Measure: c.measure, Seed: 42,
			}, wl, mk)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(res.Switches) / float64(res.Events)
			t.Logf("%d resumes / %d events = %.3f", res.Switches, res.Events, ratio)
			if res.Switches == 0 || ratio > c.switches {
				t.Errorf("resumes per event = %.3f (%d / %d), want in (0, %.2f]",
					ratio, res.Switches, res.Events, c.switches)
			}
		})
	}
}

// TestConventionalTPCCRetries keeps the conventional baseline a competent one
// at the benchmark's tpcc-conv configuration (4 warehouses, 64 terminals): the
// engine may not abort its own transactions over lock upgrades the workload
// could have asked for up front. While every read-modify-write was a Read (S)
// then an Update (X), two transactions on one district both held S, both
// asked for X, and one was the deadlock victim: 2.25 aborts per commit, and
// transactions that spent all 25 retries. With ReadForUpdate at those sites
// what is left (0.002) is the workload's: StockLevel's S locks on a district's
// recent stock rows against NewOrder's X locks on its own, taken in different
// orders, and Delivery's Scan (S) then Delete (X) on a district's oldest
// new-order row, which two Deliveries of one warehouse can both reach.
func TestConventionalTPCCRetries(t *testing.T) {
	c := benchConfigs[1]
	if c.name != "tpcc-conv" {
		t.Fatalf("benchConfigs[1] is %s", c.name)
	}
	wl, mk := c.build()
	var eng core.Engine
	res, err := core.Run(core.RunConfig{
		Terminals: c.terminals, Warmup: 20 * sim.Millisecond, Measure: c.measure, Seed: 42,
	}, wl, func(env *sim.Env) core.Engine {
		eng = mk(env)
		return eng
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.TxnNames() {
		n, r := res.TxnCounts[name], res.TxnRetries[name]
		t.Logf("%-12s %6d in window, %5d retries, %.4f per transaction", name, n, r, float64(r)/float64(n))
	}
	ctr := eng.Counters()
	commits, deadlocks := ctr.Get("commits"), ctr.Get("aborts.deadlock")
	t.Logf("whole run: %d commits, %d deadlock aborts (%.4f per commit), %d user aborts, %d give-ups",
		commits, deadlocks, float64(deadlocks)/float64(commits), ctr.Get("aborts.user"), ctr.Get("aborts.giveup"))
	if commits == 0 || float64(deadlocks) > 0.02*float64(commits) {
		t.Errorf("%d deadlock aborts for %d commits, want at most 0.02 per commit", deadlocks, commits)
	}
	if n := ctr.Get("aborts.giveup"); n != 0 {
		t.Errorf("%d transactions ran out of retries, want 0", n)
	}
	if err := tpcc.CheckConsistency(eng, wl.(*tpcc.Workload).Config()); err != nil {
		t.Error(err)
	}
}

// steadyAllocs wraps a workload to count what the steady state allocates:
// heap objects from the first transaction drawn to wherever the caller reads
// the counter again, and how many transactions were drawn.
type steadyAllocs struct {
	core.Workload
	issued  int
	mallocs uint64 // runtime.MemStats.Mallocs at the first NextTxn
	bytes   uint64 // runtime.MemStats.TotalAlloc at the first NextTxn
}

func (w *steadyAllocs) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	if w.issued == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.mallocs, w.bytes = ms.Mallocs, ms.TotalAlloc
	}
	w.issued++
	return w.Workload.NextTxn(r)
}

// TestAllocsPerTxn pins the transaction path's allocation diet: heap objects
// and heap bytes allocated from the first transaction drawn to the end of
// core.Run, over transactions drawn. Population and engine construction are
// outside the count; the workload's own key and row building is inside. An
// object ceiling that starts failing means some per-transaction object
// stopped being re-armed by its owner (DESIGN.md, "Pools above the kernel"),
// or a key, a row or a decoded string went back to the heap; a byte ceiling,
// that something started copying what it already holds. The ceilings sit
// 3-5 % above what this scale measures: objects 0.089, 5.04, 0.073, 6.03
// (the last few objects are the runtime's and move by a dozen per run;
// ycsb-dora-4s measured 16.37 while sharded-log software DORA ran a second,
// engine-on-shard layout), KB 0.044, 2.81, 0.0094, 6.81, the objects since
// measured at 0.087, 4.93, 0.060 and 5.81. What is left is the trees' slab
// chunks, which the inserted rows and keys fill, and the rows that replace
// one of another length, and the growth of per-terminal and per-engine
// storage over a window this short. tpcc-conv now measures 3.39 objects
// and 2.80 KB under a ceiling of 3.45 objects, ycsb-dora-4s 0.063 objects:
// each task builds the state of its blocking chains (the page walk, a lock
// call, a log insert) the first time it runs one, and terminals start in
// this window (before that state, 3.33 / 2.79 KB and 0.060). Before a lock state kept its
// first four holders in its own storage and its waiters in a list through
// the waiters themselves, a contended lock usually drew a free state whose
// holder slice had room for one and whose queue had none: 4.93 objects and
// 2.81 KB under a ceiling of 5.25. Before the trees reused the bytes of a
// replaced or deleted row once no attempt could still read it (btree
// Reclaimer), every new row version took new slab bytes: KB 0.056, 3.29,
// 0.059 and 7.07 under ceilings of 0.059, 3.45, 0.062 and 7.45.
// Before a log store kept bytes only for a registered reader (none of these
// runs checkpoints or ships, so none has one), every logged byte was copied
// into the store's segments: KB 0.131, 5.98, 0.254, 9.93 under ceilings of
// 0.136, 6.10, 0.265 and 10.3.
// Before rows were built in the attempt's arena and copied into the tree's
// slab, each was a heap object of its own: objects 0.27, 21.90, 0.56, 22.97,
// KB 0.145, 5.75, 0.259, 9.77. The two TPC-C machines' KB rose because the
// arenas that now hold each attempt's rows reach their size inside this
// window (the benchmark's ten times longer windows allocate fewer bytes per
// transaction than before), which leaves tpcc-conv's 2 % under its ceiling.
// Earlier documents measured KB 0.172, 5.88 and 10.23 on the same code.
// Before the lock table was keyed by the name's hash,
// with holder slices and hold lists of states, tpcc-conv measured 22.16
// objects and 7.39 KB (hold lists of 72-byte names and a growing map keyed
// by them). Before a B-tree split handed its node arrays to the
// right half and copied the left half to exact size, TPC-C's right-edge
// inserts regrew every new right half by doubling: objects 22.31 and 23.16,
// KB 8.04 and 10.92 on the two TPC-C machines. Before each transaction type
// became an input struct with its logic, bodies and scan callbacks bound once
// per terminal stream,
// every draw built a logic closure, its body closures and a variadic Phase
// slice, and TPC-C built scratch maps too: objects 3.31, 45.86, 3.54, 48.06, KB
// 0.281, 11.17, 0.383, 14.07. Before the durable log became a list of segments
// that never move, wal.Store doubled one buffer and copied the whole log at
// each doubling: KB 0.449, 16.33, 0.581, 18.29. Before the
// overlay's dirty set took inline keys, the B-tree cloned keys into a slab,
// and the vector-durable join and the DORA waits-for registry reused their
// storage, the object counts were 3.48, 52.07, 3.55 and 77.16. Before the key
// arenas, view decoding and dora.Entity they were 6.28, 115.24, 18.48 and
// 146.76; before transaction frames 29.39, 376.30 and 50.19, and tpcc-conv's
// was 153.05 while it ran each transaction 3.25 times
// (TestConventionalTPCCRetries).
func TestAllocsPerTxn(t *testing.T) {
	for _, c := range benchConfigs {
		t.Run(c.name, func(t *testing.T) {
			wl, mk := c.build()
			checkAllocsPerTxn(t, wl, mk, c.terminals, c.measure, c.allocs, c.kb)
		})
	}
}

// checkAllocsPerTxn runs wl on mk's engine for a 20 ms warmup and a window
// of measure, and fails if the heap objects or KB allocated per transaction
// drawn exceed the ceilings.
func checkAllocsPerTxn(t *testing.T, wl core.Workload, mk func(*sim.Env) core.Engine,
	terminals int, measure sim.Duration, allocs, kbCeiling float64) {
	t.Helper()
	counted := &steadyAllocs{Workload: wl}
	if _, err := core.Run(core.RunConfig{
		Terminals: terminals, Warmup: 20 * sim.Millisecond, Measure: measure, Seed: 42,
	}, counted, mk); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := ms.Mallocs - counted.mallocs
	per := float64(n) / float64(counted.issued)
	kb := float64(ms.TotalAlloc-counted.bytes) / 1024 / float64(counted.issued)
	t.Logf("%d allocations / %d transactions = %.3f, %.3f KB per transaction", n, counted.issued, per, kb)
	if counted.issued == 0 || per > allocs {
		t.Errorf("allocations per transaction = %.3f (%d / %d), want <= %.3f",
			per, n, counted.issued, allocs)
	}
	if kb > kbCeiling {
		t.Errorf("KB allocated per transaction = %.3f, want <= %.3f", kb, kbCeiling)
	}
}

// TestReplicatedCommitAllocs pins what a replicated commit allocates: YCSB-A
// on software DORA on two sockets with a log shard per socket, shipping to
// two replicas, under each commit-wait mode. A sync or quorum commit waits
// for the replicas' acks through the transaction's reused wal.DurableJoin,
// on each shard's replicated point, and builds no closure or waiter of its
// own. The ceilings sit 3-5 % above what this scale measures: objects
// 0.083, 0.225 and 0.206, KB 0.603, 0.783 and 0.717. Before the ack wait
// joined through the DurableJoin, each sync or quorum commit built a
// countdown closure and the state it captured: objects 3.220 and 3.202, KB
// 0.837 and 0.772, on the same simulated runs.
func TestReplicatedCommitAllocs(t *testing.T) {
	for _, c := range []struct {
		mode       stats.ReplMode
		allocs, kb float64
	}{
		{stats.ReplAsync, 0.087, 0.63},
		{stats.ReplSync, 0.233, 0.815},
		{stats.ReplQuorum, 0.214, 0.745},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			cfg := ycsb.WorkloadA()
			cfg.Records, cfg.FieldSize, cfg.Theta = 400000, 100, 0.7
			wl := ycsb.New(cfg)
			checkAllocsPerTxn(t, wl, func(env *sim.Env) core.Engine {
				pcfg := platform.HC2Replicated(2, 2, c.mode)
				pcfg.LogDevPerSocket = true
				return core.NewDORA(env, pcfg, wl.Tables(), wl.Scheme(16))
			}, 128, 20*sim.Millisecond, c.allocs, c.kb)
		})
	}
}

// TestPopulateHeap pins what a populated database keeps live: the heap bytes
// core.Open leaves reachable after a collection, per row loaded into the
// engine's primary trees. Rows, keys and the trees' node arrays dominate it.
// A ceiling that starts failing means population started stranding memory
// it no longer uses, or keeping a second copy of what it stores. The
// ceilings sit 3-5 % above what this scale measures: 76.3, 90.3, 157.0 and
// 92.2 B (78.3, 67.9, 59.9 and 130.0 MiB). Before a leaf's rows moved into
// the tree's slab behind 8-byte references, each was a heap object behind a
// 24-byte slice header: 103.0, 118.0, 184.4 and 119.0 B. Before a node's keys became
// 8-byte references into the tree's key chunks, each was a 24-byte slice
// header: 121.2, 136.1, 202.7 and 137.0 B. Before the buffer pool's frame
// table became a slice indexed by page id, its map pre-sized for 2^18 frames
// kept ~9 MiB live on the two software engines: 148.1 and 226.6 B. Before a
// B-tree split copied
// the half that stops growing to exact size, the left half of every split
// kept the whole node array: 193.8, 210.4, 299.2 and 198.6 B.
func TestPopulateHeap(t *testing.T) {
	for _, c := range benchConfigs {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			wl, mk := c.build()
			s := core.Open(wl, 42, mk)
			defer s.Close()
			runtime.GC()
			runtime.ReadMemStats(&after)
			rows := 0
			for _, tree := range s.Eng.Tables() {
				rows += tree.Size()
			}
			live := after.HeapAlloc - before.HeapAlloc
			per := float64(live) / float64(rows)
			t.Logf("%.1f MiB live for %d rows = %.1f B per row", float64(live)/(1<<20), rows, per)
			if rows == 0 || per > c.heap {
				t.Errorf("live heap per loaded row = %.1f B (%d rows), want <= %.0f", per, rows, c.heap)
			}
		})
	}
}

// TestCheckpointHeap pins what a checkpointed database keeps live: the heap
// bytes core.Open and Session.Checkpoint leave reachable after a collection,
// per row in the engine's primary trees, the disk manager's page images
// included. A checkpointed tree adopts the images it writes, so its rows and
// keys exist once, as the images, and the rows and key chunks population
// made are garbage. A ceiling that starts failing means a checkpoint started
// keeping a second copy of what the trees store. The ceilings sit 3-5 %
// above what this scale measures: 83.7, 95.1, 171.9 and 97.0 B (85.8, 71.6,
// 65.6 and 136.8 MiB), a little over what TestPopulateHeap measures after
// Open alone: one exact-size image per node where the slab packs rows and
// keys into 4 KiB chunks. Before a leaf's rows were 8-byte references, their
// slice headers took 103.7, 115.0, 191.9 and 116.9 B; before the trees
// adopted their images, each row and key was held by the tree and again by
// its image: 166.0, 188.7, 313.6 and 191.7 B.
func TestCheckpointHeap(t *testing.T) {
	for _, c := range benchConfigs {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			wl, mk := c.build()
			s := core.Open(wl, 42, mk)
			defer s.Close()
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			rows := 0
			for _, tree := range s.Eng.Tables() {
				rows += tree.Size()
			}
			live := after.HeapAlloc - before.HeapAlloc
			per := float64(live) / float64(rows)
			t.Logf("%.1f MiB live for %d rows = %.1f B per row", float64(live)/(1<<20), rows, per)
			if rows == 0 || per > c.ckptHeap {
				t.Errorf("live heap per checkpointed row = %.1f B (%d rows), want <= %.0f", per, rows, c.ckptHeap)
			}
		})
	}
}

// TestHeapPerSimulatedSecond bounds how fast a run's live heap grows with
// simulated time, at the tpcc-conv configuration: the live heap after a
// collection at the end of two back-to-back windows after the 20 ms warmup,
// the second window's growth over its simulated seconds. The first window
// is not counted: per-terminal storage (attempt arenas, undo lists, hold
// lists, lock states) still reaches its size there. A ceiling that starts
// failing means something the run keeps grows with the work done, not with
// the data it holds. The log line splits the growth: the keys and rows the
// trees hold (with their length prefixes and references), which TPC-C's
// inserts of orders, order lines and history grow and no reuse can shrink,
// and the rest, dead row versions first. The ceiling sits 6 % above what
// this scale measures, 51.7 MiB per simulated second, of which 44.7 the
// trees hold; the first window reads 79.3. While the first window was the
// one counted, it measured 78.9 to 79.8 under a ceiling of 85; before the
// trees reused the bytes of rows no attempt could still read, 121.8
// (ceiling 128); before a log store kept bytes only for a registered
// reader, every byte the run logged stayed live as well, and nothing ever
// read it back (297).
func TestHeapPerSimulatedSecond(t *testing.T) {
	c := benchConfigs[1]
	wl, mk := c.build()
	s := core.Open(wl, 42, mk)
	defer s.Close()
	s.Start(c.terminals, nil, nil)
	live := func(at sim.Time) (heap, held uint64) {
		if err := s.RunTo(at); err != nil {
			t.Fatal(err)
		}
		for _, tree := range s.Eng.Tables() {
			tree.Scan(nil, nil, nil, func(k, v []byte) bool {
				held += uint64(len(k) + len(v) + 2*(2+8))
				return true
			})
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, held
	}
	from := sim.Time(20 * sim.Millisecond)
	start, _ := live(from)
	before, heldBefore := live(from + sim.Time(c.measure))
	after, heldAfter := live(from + 2*sim.Time(c.measure))
	perSec := func(a, b uint64) float64 { return (float64(b) - float64(a)) / (1 << 20) / c.measure.Seconds() }
	total, held := perSec(before, after), perSec(heldBefore, heldAfter)
	t.Logf("live heap %.1f → %.1f → %.1f MiB over two windows of %v simulated: %.1f MiB per simulated second in the first, %.1f in the second, of which %.1f the keys and rows the trees hold, %.1f the rest",
		float64(start)/(1<<20), float64(before)/(1<<20), float64(after)/(1<<20), c.measure, perSec(start, before), total, held, total-held)
	const heapPerSimSecond = 55.0
	if total > heapPerSimSecond {
		t.Errorf("live heap grows %.1f MiB per simulated second, want <= %.0f", total, heapPerSimSecond)
	}
}
