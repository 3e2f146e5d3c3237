package dora

import (
	"fmt"
	"strings"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func fixture(window int) (*sim.Env, *platform.Platform, *Partition, *stats.Breakdown) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	bd := &stats.Breakdown{}
	pt := NewPartition(pl, NewRegistry(), 0, pl.Cores[0], DefaultCosts(), window, bd)
	pt.Start()
	return env, pl, pt, bd
}

func TestRVPJoinsVotes(t *testing.T) {
	env := sim.NewEnv()
	rvp := NewRVP(env, 3)
	var result bool
	env.Spawn("waiter", func(p *sim.Proc) {
		result = rvp.Await(p)
	})
	env.Spawn("arrivals", func(p *sim.Proc) {
		rvp.Arrive(true)
		p.Wait(sim.Microsecond)
		rvp.Arrive(true)
		p.Wait(sim.Microsecond)
		rvp.Arrive(true)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !result {
		t.Fatal("unanimous true votes should succeed")
	}
}

func TestRVPAbortVote(t *testing.T) {
	env := sim.NewEnv()
	rvp := NewRVP(env, 2)
	var result bool
	env.Spawn("waiter", func(p *sim.Proc) { result = rvp.Await(p) })
	env.Spawn("arrivals", func(p *sim.Proc) {
		rvp.Arrive(true)
		rvp.Arrive(false)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if result {
		t.Fatal("abort vote ignored")
	}
}

func TestRVPOverArrivePanics(t *testing.T) {
	env := sim.NewEnv()
	rvp := NewRVP(env, 1)
	env.Spawn("p", func(p *sim.Proc) {
		rvp.Arrive(true)
		rvp.Arrive(true)
	})
	if err := env.Run(); err == nil {
		t.Fatal("expected over-arrive panic")
	}
}

func TestPartitionExecutesActionsInOrder(t *testing.T) {
	env, pl, pt, _ := fixture(1)
	var order []int
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 3)
		for i := 0; i < 3; i++ {
			i := i
			pt.Enqueue(task, &Action{TxnID: 1, RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
				order = append(order, i)
				t.Exec(stats.CompOther, 100)
				return true
			}})
		}
		task.Flush()
		if !rvp.Await(p) {
			t.Error("vote failed")
		}
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order %v", order)
	}
	if pt.done != 3 {
		t.Fatalf("done=%d", pt.done)
	}
}

func TestWindowOneSerializesBlockingActions(t *testing.T) {
	// With window 1, a blocked action stalls the whole partition.
	env, pl, pt, _ := fixture(1)
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 2)
		for i := 0; i < 2; i++ {
			pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
				t.Flush()
				t.P.Wait(10 * sim.Microsecond) // async hardware-style wait
				return true
			}})
		}
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() < sim.Time(20*sim.Microsecond) {
		t.Fatalf("window-1 overlapped blocking actions: %v", env.Now())
	}
}

func TestWindowedPartitionOverlapsBlockedActions(t *testing.T) {
	env, pl, pt, _ := fixture(8)
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 8)
		for i := 0; i < 8; i++ {
			pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
				t.Flush()
				t.P.Wait(10 * sim.Microsecond)
				return true
			}})
		}
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 × 10us waits overlapped should finish well under 80us serial time.
	if env.Now() > sim.Time(30*sim.Microsecond) {
		t.Fatalf("windowed partition failed to overlap: %v", env.Now())
	}
}

func TestWindowCapsInflight(t *testing.T) {
	env, pl, pt, _ := fixture(2)
	inflight, maxInflight := 0, 0
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 6)
		for i := 0; i < 6; i++ {
			pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
				inflight++
				if inflight > maxInflight {
					maxInflight = inflight
				}
				t.Flush()
				t.P.Wait(5 * sim.Microsecond)
				inflight--
				return true
			}})
		}
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInflight > 2 {
		t.Fatalf("window 2 exceeded: %d in flight", maxInflight)
	}
}

// ent names a test entity by a short text ("" = no lock).
func ent(name string) Entity {
	if name == "" {
		return Entity{}
	}
	return KeyEntity([]byte(name))
}

// sendLocked enqueues a locking action for txn and returns its RVP.
func sendLocked(env *sim.Env, task *platform.Task, pt *Partition, txn uint64, key string, body func(t *platform.Task) bool) *RVP {
	rvp := NewRVP(env, 1)
	pt.Enqueue(task, &Action{TxnID: txn, LockKey: ent(key), RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
		if body == nil {
			return true
		}
		return body(t)
	}})
	return rvp
}

// release enqueues a lock-release action for txn.
func release(env *sim.Env, task *platform.Task, pt *Partition, txn uint64) *RVP {
	rvp := NewRVP(env, 1)
	pt.Enqueue(task, &Action{TxnID: txn, RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
		w.ReleaseLocks(t, txn)
		return true
	}})
	return rvp
}

func TestEntityLockDefersConflicts(t *testing.T) {
	env, pl, pt, _ := fixture(1)
	var events []string
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		// T1 takes the entity and keeps it across a phase boundary.
		r1 := sendLocked(env, task, pt, 1, "entity-5", func(t *platform.Task) bool {
			events = append(events, "t1-run")
			return true
		})
		task.Flush()
		r1.Await(p)
		// T2 conflicts: its action must be deferred, not run.
		r2 := sendLocked(env, task, pt, 2, "entity-5", func(t *platform.Task) bool {
			events = append(events, "t2-run")
			return true
		})
		task.Flush()
		p.Wait(20 * sim.Microsecond)
		if w := pt.reg.waits[2]; len(w) != 1 || w[0] != 1 {
			t.Errorf("t2 waits for %v, want [1]", w)
		}
		if len(events) != 1 {
			t.Errorf("t2 ran while t1 held the entity: %v", events)
		}
		// Release T1: T2's deferred action must now run.
		release(env, task, pt, 1)
		task.Flush()
		r2.Await(p)
		if len(events) != 2 || events[1] != "t2-run" {
			t.Errorf("events %v", events)
		}
		if !pt.HoldsLock(ent("entity-5"), 2) {
			t.Error("entity not handed to T2")
		}
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReentrantEntityLock(t *testing.T) {
	env, pl, pt, _ := fixture(1)
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		r1 := sendLocked(env, task, pt, 1, "e", nil)
		task.Flush()
		r1.Await(p)
		// Same transaction locks the same entity in a later phase: runs.
		r2 := sendLocked(env, task, pt, 1, "e", nil)
		task.Flush()
		if !r2.Await(p) {
			t.Error("reentrant lock voted abort")
		}
		if len(pt.reg.waits) != 0 || len(pt.reg.free) != 0 {
			t.Error("the reentrant lock deferred")
		}
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntityCycleVotesAbort(t *testing.T) {
	// T1 holds A and wants B; T2 holds B and wants A. The second defer
	// attempt must abort-vote instead of deferring.
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	bd := &stats.Breakdown{}
	reg := NewRegistry()
	pa := NewPartition(pl, reg, 0, pl.Cores[0], DefaultCosts(), 1, bd)
	pb := NewPartition(pl, reg, 1, pl.Cores[1], DefaultCosts(), 1, bd)
	pa.Start()
	pb.Start()
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[2], &stats.Breakdown{})
		// Phase 1: each grabs its first entity.
		r1 := sendLocked(env, task, pa, 1, "A", nil)
		r2 := sendLocked(env, task, pb, 2, "B", nil)
		task.Flush()
		r1.Await(p)
		r2.Await(p)
		// Phase 2: crossed requests.
		ra := sendLocked(env, task, pb, 1, "B", nil) // T1 wants B (deferred)
		task.Flush()
		p.Wait(5 * sim.Microsecond)
		rb := sendLocked(env, task, pa, 2, "A", nil) // T2 wants A: cycle!
		task.Flush()
		if rb.Await(p) {
			t.Error("cycle-closing action did not vote abort")
		}
		// T2 aborts: release its lock so T1's deferred action proceeds.
		release(env, task, pb, 2)
		task.Flush()
		if !ra.Await(p) {
			t.Error("T1's deferred action should eventually run")
		}
		release(env, task, pa, 1)
		release(env, task, pb, 1)
		task.Flush()
		pa.Close()
		pb.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryReusesItsStorage runs defer and release cycles on the waits-for
// registry: a cycle check before each deferral, the edge added (twice, as two
// deferred actions of one transaction behind one holder add it), then every
// edge removed. After the first round nothing allocates.
func TestRegistryReusesItsStorage(t *testing.T) {
	reg := NewRegistry()
	cycle := func() {
		for w := uint64(1); w <= 8; w++ {
			for h := w + 1; h <= w+3; h++ {
				if reg.wouldCycle(w, h) {
					t.Fatalf("%d waiting for %d reported as a cycle", w, h)
				}
				reg.add(w, h)
				reg.add(w, h)
			}
		}
		if !reg.wouldCycle(9, 1) {
			t.Fatal("9 waiting for 1, which reaches 9, not reported as a cycle")
		}
		for w := uint64(1); w <= 8; w++ {
			for h := w + 1; h <= w+3; h++ {
				reg.remove(w, h)
			}
		}
		if len(reg.waits) != 0 {
			t.Fatalf("%d waiters left after every edge was removed", len(reg.waits))
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("%v allocations per round of 24 defers and releases, want 0", n)
	}
}

func TestEnqueueChargesDoraComponent(t *testing.T) {
	env, pl, pt, bd := fixture(1)
	senderBD := &stats.Breakdown{}
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], senderBD)
		rvp := NewRVP(env, 1)
		pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool { return true }})
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if senderBD.Get(stats.CompDora) == 0 {
		t.Fatal("enqueue charged nothing to Dora")
	}
	if bd.Get(stats.CompDora) == 0 {
		t.Fatal("dequeue charged nothing to Dora")
	}
}

func TestHWQueuePathUsesUnit(t *testing.T) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	bd := &stats.Breakdown{}
	pt := NewPartition(pl, NewRegistry(), 0, pl.Cores[0], DefaultCosts(), 1, bd)
	pt.HWQueue = pl.NewHWUnit("queue-engine", 4)
	pt.HWQueueCycles = 3
	pt.Start()
	senderBD := &stats.Breakdown{}
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], senderBD)
		rvp := NewRVP(env, 1)
		pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool { return true }})
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if pt.HWQueue.Utilization() == 0 {
		t.Fatal("the hardware queue served nothing")
	}
	// The CPU-side cost must be well below the software enqueue cost.
	if senderBD.Get(stats.CompDora) >= sim.Duration(DefaultCosts().EnqueueInstr)*400 {
		t.Fatalf("hw enqueue charged %v of CPU", senderBD.Get(stats.CompDora))
	}
}

func TestPartitionCloseDrains(t *testing.T) {
	env, pl, pt, _ := fixture(4)
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 10)
		for i := 0; i < 10; i++ {
			pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
				t.Flush()
				t.P.Wait(2 * sim.Microsecond)
				return true
			}})
		}
		task.Flush()
		pt.Close() // close before completion: worker must drain all 10
		rvp.Await(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if pt.done != 10 {
		t.Fatalf("done=%d after close-drain", pt.done)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes leaked", env.Live())
	}
}

func TestPriorityActionJumpsQueue(t *testing.T) {
	env, pl, pt, _ := fixture(1)
	var order []string
	env.Spawn("sender", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		rvp := NewRVP(env, 3)
		// A slow action occupies the worker; two more queue behind it.
		pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
			t.Flush()
			t.P.Wait(10 * sim.Microsecond)
			order = append(order, "slow")
			return true
		}})
		pt.Enqueue(task, &Action{RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
			order = append(order, "normal")
			return true
		}})
		pt.Enqueue(task, &Action{Priority: true, RVP: rvp, Run: func(t *platform.Task, w *Partition) bool {
			order = append(order, "priority")
			return true
		}})
		task.Flush()
		rvp.Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "slow" || order[1] != "priority" || order[2] != "normal" {
		t.Fatalf("order %v, want priority before normal", order)
	}
}

func TestReleaseHandsOffToDeferred(t *testing.T) {
	env, pl, pt, _ := fixture(4)
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		r1 := sendLocked(env, task, pt, 1, "e", nil)
		task.Flush()
		r1.Await(p)
		// Three transactions defer behind T1.
		var rvps []*RVP
		for txn := uint64(2); txn <= 4; txn++ {
			rvps = append(rvps, sendLocked(env, task, pt, txn, "e", nil))
		}
		task.Flush()
		p.Wait(10 * sim.Microsecond)
		// Release T1: T2 must own the entity; T3/T4 re-defer behind it.
		release(env, task, pt, 1)
		task.Flush()
		if !rvps[0].Await(p) {
			t.Error("first deferred action failed")
		}
		if !pt.HoldsLock(ent("e"), 2) {
			t.Error("handoff skipped FIFO order")
		}
		for txn := uint64(2); txn <= 4; txn++ {
			release(env, task, pt, txn)
		}
		task.Flush()
		for _, r := range rvps[1:] {
			if !r.Await(p) {
				t.Error("chained deferred action failed")
			}
		}
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRVPResetPanicsBeforeLastArrival(t *testing.T) {
	env := sim.NewEnv()
	rvp := NewRVP(env, 2)
	rvp.Arrive(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset with an arrival outstanding did not panic")
			}
		}()
		rvp.Reset(1)
	}()
	rvp.Arrive(true)
	rvp.Reset(3) // every arrival is in and nobody awaited: legal
	env.Spawn("waiter", func(p *sim.Proc) {
		if rvp.Await(p) {
			t.Error("re-armed RVP lost the abort vote")
		}
	})
	env.Spawn("arrivals", func(p *sim.Proc) {
		rvp.Arrive(true)
		rvp.Arrive(false)
		p.Wait(sim.Microsecond)
		rvp.Arrive(true)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// phaseOutcome is what a coordinator reads off an action after its phase.
type phaseOutcome struct {
	refused                       bool
	queueWait, lockWait, execTime sim.Duration
}

// twoPhases runs transaction 2 through two phases on one partition, the
// second with an action that runs at once, one deferred behind transaction
// 3 and one refused (transaction 1 already waits for transaction 2, so
// waiting for 1 would close a cycle). With reuse the second phase re-arms the
// first phase's Actions and RVP, as a terminal's frame does; without, it
// builds fresh ones, as engines did. It reports both votes, the second
// phase's outcomes, and the clock and event count at the end.
func twoPhases(t *testing.T, reuse bool) (votes [2]bool, out [3]phaseOutcome, end sim.Time, events uint64) {
	env, pl, pt, _ := fixture(1)
	body := func(tk *platform.Task, _ *Partition) bool {
		tk.Exec(stats.CompOther, 2500)
		tk.Flush() // inside the body, so the action's ExecTime sees it
		return true
	}
	env.Spawn("others", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[2], nil)
		sendLocked(env, task, pt, 1, "e", nil).Await(p) // 1 holds e
		sendLocked(env, task, pt, 3, "g", nil).Await(p) // 3 holds g
		p.Wait(10 * sim.Microsecond)
		sendLocked(env, task, pt, 1, "f", nil) // 1 waits for 2, which holds f by then
		task.Flush()
		p.Wait(30 * sim.Microsecond)
		release(env, task, pt, 3).Await(p) // lets 2's deferred action run
	})
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], nil)
		p.Wait(5 * sim.Microsecond)
		acts := make([]*Action, 3)
		var rvp *RVP
		phase := func(keys ...string) bool {
			if rvp == nil || !reuse {
				rvp = NewRVP(env, len(keys))
			} else {
				rvp.Reset(len(keys))
			}
			for i, key := range keys {
				if acts[i] == nil || !reuse {
					acts[i] = &Action{Run: body}
				}
				*acts[i] = Action{TxnID: 2, LockKey: ent(key), RVP: rvp, Run: acts[i].Run}
				pt.Enqueue(task, acts[i])
			}
			task.Flush()
			return rvp.Await(p)
		}
		votes[0] = phase("f", "h")
		p.Wait(15 * sim.Microsecond)
		votes[1] = phase("h", "g", "e")
		for i, a := range acts {
			out[i] = phaseOutcome{a.Refused, a.QueueWait, a.LockWait, a.ExecTime}
		}
		release(env, task, pt, 2).Await(p)
		release(env, task, pt, 1).Await(p)
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return votes, out, env.Now(), env.Executed()
}

// TestReusedActionsMatchFresh re-runs a phase on re-armed Actions and a
// re-armed RVP and requires the votes, the refusal flag and every stamp a
// fresh set reports, at the same instant for the same number of events.
func TestReusedActionsMatchFresh(t *testing.T) {
	fVotes, fOut, fEnd, fEvents := twoPhases(t, false)
	rVotes, rOut, rEnd, rEvents := twoPhases(t, true)
	if fVotes != [2]bool{true, false} {
		t.Fatalf("fresh votes %v, want the first phase to pass and the second to be refused", fVotes)
	}
	if fOut[0].refused || fOut[0].execTime == 0 || fOut[1].refused || fOut[1].lockWait == 0 || !fOut[2].refused {
		t.Fatalf("the scenario does not run one action, defer one and refuse one: %+v", fOut)
	}
	if rVotes != fVotes || rOut != fOut {
		t.Errorf("reused: votes %v outcomes %+v\nfresh:  votes %v outcomes %+v", rVotes, rOut, fVotes, fOut)
	}
	if rEnd != fEnd || rEvents != fEvents {
		t.Errorf("reused run ended at %v after %d events, fresh at %v after %d", rEnd, rEvents, fEnd, fEvents)
	}
}

// TestReleaseMessagesAreRecycled: a partition builds a release message for
// the first release it is sent and reuses it for every later one, and a
// re-dispatched release does what the closure-bodied one did.
func TestReleaseMessagesAreRecycled(t *testing.T) {
	env, pl, pt, _ := fixture(1)
	env.Spawn("coord", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[1], nil)
		for txn := uint64(1); txn <= 20; txn++ {
			sendLocked(env, task, pt, txn, "e", nil).Await(p)
			pt.Release(task, txn)
			task.Flush()
		}
		// A no-lock action behind the last release: once it has run, so
		// has the release.
		sendLocked(env, task, pt, 99, "", nil).Await(p)
		if pt.HeldLocks() != 0 || len(pt.reg.free) != 0 {
			t.Errorf("%d locks held, %d waiters registered after 20 lock/release rounds", pt.HeldLocks(), len(pt.reg.free))
		}
		if len(pt.freeRel) != 1 || len(pt.freeLocks) != 1 {
			t.Errorf("%d release messages and %d entity locks built, want 1 and 1", len(pt.freeRel), len(pt.freeLocks))
		}
		pt.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEntityNamesAndOrder: an Entity renders the name the engines used to
// build as a string, and Compare is that string's order, which a release
// message frees locks in (so "d1.10" still goes before "d1.2").
func TestEntityNamesAndOrder(t *testing.T) {
	ents := []Entity{
		Entity1('w', 3), Entity1('w', 12), Entity1('s', 100000),
		Entity2('d', 1, 2), Entity2('d', 1, 10), Entity2('d', 10, 1), Entity2('s', 1, 99999),
		KeyEntity(storage.Uint64Key(7)), KeyEntity(storage.Uint64Key(1 << 40)), KeyEntity([]byte("e")),
	}
	want := []string{"w3", "w12", "s100000", "d1.2", "d1.10", "d10.1", "s1.99999",
		string(storage.Uint64Key(7)), string(storage.Uint64Key(1 << 40)), "e"}
	for i, e := range ents {
		if e.String() != want[i] {
			t.Errorf("entity %d renders %q, want %q", i, e, want[i])
		}
		if e == (Entity{}) {
			t.Errorf("entity %q equals the no-lock value", e)
		}
	}
	for i, a := range ents {
		for j, b := range ents {
			if got, w := a.Compare(b), strings.Compare(want[i], want[j]); got != w {
				t.Errorf("Compare(%q, %q) = %d, want %d", a, b, got, w)
			}
		}
	}
	if (Entity{}).String() != "" {
		t.Errorf("the no-lock entity renders %q", Entity{})
	}
	a, b := Entity2('d', 1, 2), Entity2('d', 1, 10)
	if n := testing.AllocsPerRun(100, func() { _ = a.Compare(b) }); n != 0 {
		t.Errorf("Compare allocates %.0f times, want 0", n)
	}
}

// Release asks the partition to free every entity lock txnID holds: a
// release message, charged to the sender's task like any Enqueue.
func (pt *Partition) Release(t *platform.Task, txnID uint64) {
	pt.Enqueue(t, pt.ReleaseMessage(txnID))
}

// ReleaseLocks runs a release message's loop from an action body, on the
// body's task, so that the release is awaited through the body's RVP.
func (pt *Partition) ReleaseLocks(t *platform.Task, txnID uint64) {
	var r releaseLoop
	r.begin(pt, txnID)
	var c contFunc
	c = func(sc *sim.Script) {
		for !sc.Pending() {
			if r.step(pt, t) {
				return
			}
		}
		sc.Then(c)
	}
	t.RunChain(c)
}

// contFunc is a function as a sim.Continuation.
type contFunc func(sc *sim.Script)

func (f contFunc) Continue(sc *sim.Script) { f(sc) }

// HeldLocks reports how many entity locks are currently owned (diagnostics).
func (pt *Partition) HeldLocks() int { return len(pt.locks) }

// HoldsLock reports whether txnID owns the entity lock for key (testing
// hook).
func (pt *Partition) HoldsLock(key Entity, txnID uint64) bool {
	l := pt.locks[key]
	return l != nil && l.owner == txnID
}

// TestReleaseMessageRunsWithoutSwitching: a release message is applied
// entirely as kernel steps, by the window-1 worker and by a pooled windowed
// child alike: while it is taken, dequeued and applied and its finish is
// charged, no process switches into its coroutine. The only resume in the
// window is the coordinator's own wake at its end.
func TestReleaseMessageRunsWithoutSwitching(t *testing.T) {
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("window %d", window), func(t *testing.T) {
			env, pl, pt, _ := fixture(window)
			defer env.Close()
			var resumes uint64
			env.Spawn("coord", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[1], nil)
				sendLocked(env, task, pt, 1, "e", nil).Await(p)
				if !pt.HoldsLock(ent("e"), 1) {
					t.Fatal("the locked action's transaction does not hold its entity")
				}
				pt.Release(task, 1)
				task.Flush()
				before := env.Switches()
				p.Wait(100 * sim.Microsecond)
				resumes = env.Switches() - before
				if pt.HeldLocks() != 0 {
					t.Errorf("%d entity locks held after the release", pt.HeldLocks())
				}
				pt.Close()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if resumes != 1 {
				t.Errorf("%d resumes while the release ran, want 1 (the coordinator's wake)", resumes)
			}
		})
	}
}

// TestServerChainAllocatesNothing checks that the partition's server chain
// (the take, the dequeue and lock steps, the switch into the body, the
// finish and the vote), the windowed dispatcher and its children, and the
// release message's loop allocate nothing in steady state: eight
// coordinators send one locked action at a time, over four hot entities, to
// a window-1 and a window-4 partition, so that actions defer and are handed
// their entity by a release, and send a release message behind each.
func TestServerChainAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pl := platform.New(env, platform.HC2())
	reg := NewRegistry()
	parts := []*Partition{
		NewPartition(pl, reg, 0, pl.Cores[0], DefaultCosts(), 1, nil),
		NewPartition(pl, reg, 1, pl.Cores[1], DefaultCosts(), 4, nil),
	}
	for _, pt := range parts {
		pt.Start()
	}
	ents := []Entity{ent("a"), ent("b"), ent("c"), ent("d")}
	body := func(t *platform.Task, _ *Partition) bool {
		t.Exec(stats.CompOther, 400)
		t.Flush()
		t.P.Wait(300 * sim.Nanosecond) // a windowed body parks: its siblings overlap
		return true
	}
	deferred := 0
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("coord", func(p *sim.Proc) {
			task := pl.NewTask(p, pl.Cores[2+i%4], nil)
			pt := parts[i%2]
			rvp := NewRVP(env, 1)
			var a Action
			r := sim.NewRand(uint64(i + 1))
			for txn := uint64(i + 1); ; txn += 8 {
				a = Action{TxnID: txn, LockKey: ents[r.Intn(len(ents))], RVP: rvp, Run: body}
				pt.Enqueue(task, &a)
				task.Flush()
				rvp.Await(p)
				rvp.Reset(1)
				if a.LockWait > 0 {
					deferred++
				}
				pt.Release(task, txn)
				task.Flush()
			}
		})
	}
	horizon := sim.Time(2 * sim.Millisecond)
	if err := env.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	before, deferredBefore := env.Executed(), deferred
	n := testing.AllocsPerRun(20, func() {
		horizon += sim.Time(100 * sim.Microsecond)
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("%v allocations per 100µs of actions and releases, want 0", n)
	}
	if env.Executed() == before || deferred == deferredBefore {
		t.Fatalf("%d events, %d deferred actions while counting: the chains did not run contended",
			env.Executed()-before, deferred-deferredBefore)
	}
}
