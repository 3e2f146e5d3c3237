package lockmgr

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

func fixture() (*sim.Env, *platform.Platform, *Manager) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	return env, pl, New(pl, DefaultConfig())
}

// name makes the lock name a test calls s: the row lock of table 0 under
// that key.
func name(s string) Name { return RowLock(0, []byte(s)) }

func task(pl *platform.Platform, p *sim.Proc, core int) *platform.Task {
	return pl.NewTask(p, pl.Cores[core%len(pl.Cores)], &stats.Breakdown{})
}

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IS, true}, {IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, IS, true}, {S, IX, false}, {S, S, true}, {S, X, false},
		{X, IS, false}, {X, IX, false}, {X, S, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if IS.String() != "IS" || IX.String() != "IX" || S.String() != "S" || X.String() != "X" {
		t.Error("mode names wrong")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	env, pl, m := fixture()
	var maxConcurrent, holders int
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn("r", func(p *sim.Proc) {
			tk := task(pl, p, i)
			if err := m.Acquire(tk, uint64(i+1), name("row"), S); err != nil {
				t.Error(err)
				return
			}
			holders++
			if holders > maxConcurrent {
				maxConcurrent = holders
			}
			p.Wait(10 * sim.Microsecond)
			holders--
			m.ReleaseAll(tk, uint64(i+1))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxConcurrent != 4 {
		t.Fatalf("max concurrent S holders = %d, want 4", maxConcurrent)
	}
}

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	env, pl, m := fixture()
	var order []int
	var grantedAt [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			p.Wait(sim.Duration(i) * sim.Microsecond) // arrive in order
			tk := task(pl, p, i)
			if err := m.Acquire(tk, uint64(i+1), name("row"), X); err != nil {
				t.Error(err)
				return
			}
			order = append(order, i)
			grantedAt[i] = p.Now()
			p.Wait(10 * sim.Microsecond)
			m.ReleaseAll(tk, uint64(i+1))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order %v", order)
	}
	// Writers that ask for X outright queue (each is granted only once its
	// predecessor's 10 µs hold is over); none of them is a victim (each
	// Acquire above returned nil). This is what an update-intent read
	// (core.AccessCtx.ReadForUpdate) relies on.
	for i := 1; i < 3; i++ {
		if grantedAt[i] < grantedAt[i-1]+sim.Time(10*sim.Microsecond) {
			t.Fatalf("writer %d granted at %v, before writer %d (granted at %v) released", i, grantedAt[i], i-1, grantedAt[i-1])
		}
	}
}

func TestReacquireHeldIsFree(t *testing.T) {
	env, pl, m := fixture()
	env.Spawn("w", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		if err := m.Acquire(tk, 1, name("row"), X); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(tk, 1, name("row"), X); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(tk, 1, name("row"), S); err != nil { // weaker: no-op
			t.Error(err)
		}
		m.ReleaseAll(tk, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	env, pl, m := fixture()
	env.Spawn("w", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		if err := m.Acquire(tk, 1, name("row"), S); err != nil {
			t.Error(err)
		}
		if err := m.Acquire(tk, 1, name("row"), X); err != nil {
			t.Errorf("sole-holder upgrade failed: %v", err)
		}
		m.ReleaseAll(tk, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	env, pl, m := fixture()
	var upgradedAt sim.Time
	env.Spawn("reader", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		m.Acquire(tk, 2, name("row"), S)
		p.Wait(50 * sim.Microsecond)
		m.ReleaseAll(tk, 2)
	})
	env.Spawn("upgrader", func(p *sim.Proc) {
		p.Wait(sim.Microsecond)
		tk := task(pl, p, 1)
		m.Acquire(tk, 1, name("row"), S)
		if err := m.Acquire(tk, 1, name("row"), X); err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		upgradedAt = p.Now()
		m.ReleaseAll(tk, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if upgradedAt < sim.Time(50*sim.Microsecond) {
		t.Fatalf("upgrade granted at %v, before reader released", upgradedAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env, pl, m := fixture()
	errs := make([]error, 2)
	// T1: lock A then B. T2: lock B then A.
	env.Spawn("t1", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		m.Acquire(tk, 1, name("A"), X)
		p.Wait(10 * sim.Microsecond)
		errs[0] = m.Acquire(tk, 1, name("B"), X)
		p.Wait(10 * sim.Microsecond)
		m.ReleaseAll(tk, 1)
	})
	env.Spawn("t2", func(p *sim.Proc) {
		tk := task(pl, p, 1)
		p.Wait(2 * sim.Microsecond)
		m.Acquire(tk, 2, name("B"), X)
		p.Wait(10 * sim.Microsecond)
		errs[1] = m.Acquire(tk, 2, name("A"), X)
		m.ReleaseAll(tk, 2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("exactly one transaction should deadlock: %v, %v", errs[0], errs[1])
	}
}

// TestUpgradeDeadlockDetected is the S, S, X, X interleaving: both hold S,
// both ask for the upgrade. Exactly one is the victim and the other gets its
// X once the victim has let go.
func TestUpgradeDeadlockDetected(t *testing.T) {
	env, pl, m := fixture()
	var deadlocks, upgraded int
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("u", func(p *sim.Proc) {
			tk := task(pl, p, i)
			m.Acquire(tk, uint64(i+1), name("row"), S)
			p.Wait(5 * sim.Microsecond)
			switch err := m.Acquire(tk, uint64(i+1), name("row"), X); err {
			case ErrDeadlock:
				deadlocks++
			case nil:
				upgraded++
			default:
				t.Error(err)
			}
			m.ReleaseAll(tk, uint64(i+1))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if deadlocks != 1 || upgraded != 1 {
		t.Fatalf("S->X upgrade race: %d victims, %d upgraded; want 1, 1", deadlocks, upgraded)
	}
}

func TestIntentionLocksAllowRowParallelism(t *testing.T) {
	env, pl, m := fixture()
	done := 0
	queued := false
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			tk := task(pl, p, i)
			txn := uint64(i + 1)
			if err := m.Acquire(tk, txn, TableLock(1), IX); err != nil {
				t.Error(err)
				return
			}
			if err := m.Acquire(tk, txn, RowLock(1, []byte{byte(i)}), X); err != nil {
				t.Error(err)
				return
			}
			// Every writer asks at 0: one that queued behind another is
			// granted no sooner than the other's 10 µs hold ends.
			queued = queued || p.Now() >= sim.Time(10*sim.Microsecond)
			p.Wait(10 * sim.Microsecond)
			m.ReleaseAll(tk, txn)
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("done=%d", done)
	}
	if queued {
		t.Fatal("a row-disjoint writer queued")
	}
	// All should finish in ~one hold period since they don't conflict.
	if env.Now() > sim.Time(30*sim.Microsecond) {
		t.Fatalf("disjoint writers serialized: %v", env.Now())
	}
}

func TestReleaseAllPromotesWaiters(t *testing.T) {
	env, pl, m := fixture()
	granted := 0
	env.Spawn("holder", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		m.Acquire(tk, 1, name("row"), X)
		p.Wait(20 * sim.Microsecond)
		m.ReleaseAll(tk, 1)
	})
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("reader", func(p *sim.Proc) {
			p.Wait(sim.Microsecond)
			tk := task(pl, p, i+1)
			if err := m.Acquire(tk, uint64(i+10), name("row"), S); err != nil {
				t.Error(err)
				return
			}
			granted++
			m.ReleaseAll(tk, uint64(i+10))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if granted != 3 {
		t.Fatalf("granted=%d, want all readers promoted together", granted)
	}
}

func TestLockNamesDistinct(t *testing.T) {
	if RowLock(1, []byte("k")) == RowLock(2, []byte("k")) {
		t.Error("row locks collide across tables")
	}
	if TableLock(1) == TableLock(2) {
		t.Error("table locks collide")
	}
	if RowLock(1, []byte("k")) == TableLock(1) {
		t.Error("row lock collides with table lock")
	}
}

// legacyName is what a lock name was before it became a value: the string
// whose bytes hashName hashed.
func legacyName(kind byte, table uint16, key []byte) string {
	s := string(kind) + strconv.Itoa(int(table))
	if kind == 'r' {
		s += ":" + string(key)
	}
	return s
}

// TestNameHashIsTheLegacyHash draws random tables and keys, on both sides of
// the inline capacity, and checks that a name hashes to FNV-1a over its
// legacy text: the lock table's timing address and latch stripe, and through
// them every simulated result of the conventional engine, depend on it.
func TestNameHashIsTheLegacyHash(t *testing.T) {
	// The hash as it was written over string names (FNV-1a's loop from this
	// package's own offset basis, which is not the standard one).
	fnv := func(name string) uint64 {
		h := uint64(1469598103934665603)
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= 1099511628211
		}
		return h
	}
	r := sim.NewRand(18)
	for i := 0; i < 5000; i++ {
		table := uint16(r.Intn(1 << 16))
		key := make([]byte, r.Intn(2*storage.KeyInline+8))
		for j := range key {
			key[j] = byte(r.Intn(256))
		}
		row := RowLock(table, key)
		if got, want := hashName(row), fnv(legacyName('r', table, key)); got != want {
			t.Fatalf("hashName(RowLock(%d, %x)) = %x, want %x", table, key, got, want)
		}
		if got, want := row.String(), legacyName('r', table, key); got != want {
			t.Fatalf("RowLock(%d, %x).String() = %q, want %q", table, key, got, want)
		}
		if got, want := hashName(TableLock(table)), fnv(legacyName('t', table, nil)); got != want {
			t.Fatalf("hashName(TableLock(%d)) = %x, want %x", table, got, want)
		}
	}
}

// TestLongKeysSpill locks rows whose keys exceed the inline capacity: names
// that differ only beyond it are different locks, equal keys the same lock,
// and building an inline name allocates nothing.
func TestLongKeysSpill(t *testing.T) {
	long := func(last byte) []byte {
		k := make([]byte, storage.KeyInline+12)
		k[len(k)-1] = last
		return k
	}
	if RowLock(1, long(1)) == RowLock(1, long(2)) {
		t.Error("long keys differing in their last byte share a name")
	}
	if RowLock(1, long(1)) != RowLock(1, long(1)) {
		t.Error("equal long keys name different locks")
	}
	env, pl, m := fixture()
	var order []int
	var grantedAt [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			p.Wait(sim.Duration(i) * sim.Microsecond)
			tk := task(pl, p, i)
			if err := m.Acquire(tk, uint64(i+1), RowLock(1, long(7)), X); err != nil {
				t.Error(err)
				return
			}
			grantedAt[i] = p.Now()
			if err := m.Acquire(tk, uint64(i+1), RowLock(1, long(byte(i))), X); err != nil {
				t.Error(err)
			}
			order = append(order, i)
			p.Wait(10 * sim.Microsecond)
			m.ReleaseAll(tk, uint64(i+1))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The shared long key queues the second writer until the first's 10 µs
	// hold ends; the keys differing in their last byte do not.
	if len(order) != 2 || order[0] != 0 || grantedAt[1] < sim.Time(10*sim.Microsecond) {
		t.Fatalf("grant order %v, second writer granted the shared key at %v; want [0 1], after 10µs", order, grantedAt[1])
	}
	key := make([]byte, storage.KeyInline)
	if n := testing.AllocsPerRun(100, func() { _ = hashName(RowLock(3, key)) }); n != 0 {
		t.Errorf("an inline row lock name costs %v allocations", n)
	}
}

// TestWaitersAreRecycled blocks the same two transactions on each other's
// row over and over: after the first round the manager builds no new waiter.
func TestWaitersAreRecycled(t *testing.T) {
	env, pl, m := fixture()
	const rounds = 50
	waits := 0 // releases that found the other transaction queued
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			tk := task(pl, p, i)
			for r := 0; r < rounds; r++ {
				id := uint64(2*r + i + 1)
				if err := m.Acquire(tk, id, name("row"), X); err != nil {
					t.Error(err)
					return
				}
				p.Wait(sim.Microsecond)
				if m.CurWaiters() > 0 {
					waits++
				}
				m.ReleaseAll(tk, id)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if waits < rounds/2 {
		t.Fatalf("only %d waits in %d rounds: the test does not contend", waits, rounds)
	}
	n := 0
	for w := m.freeWaiters; w != nil; w = w.next {
		n++
	}
	if n != 1 {
		t.Errorf("%d waiters built for %d waits of one process at a time, want 1", n, waits)
	}
}

// TestPinnedSchedule runs runSchedule's seeded schedule and checks, after
// every grant, that the lock's holders are pairwise compatible; every
// Acquire returns nil or ErrDeadlock and the env drains. At the end the
// table is empty and every state built is on the free list. The schedule's
// acquire and deadlock counts and the hash of the grant sequence are pinned to what the manager produced
// when its table was a map keyed by Name and each state's holders a map: a
// manager that grants in another order or at another time, or decides a
// wait or a deadlock differently, fails here.
func TestPinnedSchedule(t *testing.T) {
	env, pl, m := fixture()
	built := map[*lockState]bool{}
	res := runSchedule(t, env, pl, m, func(txn uint64, n Name) {
		ls := m.table[hashName(n)%tableSlots]
		for ls != nil && ls.name != n {
			ls = ls.next
		}
		if ls == nil || ls.holderOf(txn) < 0 {
			t.Fatalf("%s granted to %d but not held", n, txn)
		}
		built[ls] = true
		for i, a := range ls.granted {
			for _, b := range ls.granted[i+1:] {
				if a.txn == b.txn || !Compatible(a.mode, b.mode) {
					t.Errorf("%s held by %d in %v and %d in %v", n, a.txn, a.mode, b.txn, b.mode)
				}
			}
		}
	})
	want := scheduleResult{acquires: 3088, deadlocks: 78, grants: 0xb3e557be38f9b06e}
	if res != want {
		t.Errorf("schedule gave %+v, want %+v", res, want)
	}
	for slot, ls := range m.table {
		if ls != nil {
			t.Fatalf("slot %d still holds %s after every transaction released", slot, ls.name)
		}
	}
	free, listed := map[*lockState]bool{}, 0
	for ls := m.freeStates; ls != nil && listed <= len(built); ls = ls.next {
		free[ls] = true
		listed++
	}
	for ls := range built {
		if !free[ls] {
			t.Errorf("state of %s is not on the free list", ls.name)
		}
	}
	if len(free) != listed || len(free) != len(built) {
		t.Errorf("%d states on the free list (%d distinct), %d built", listed, len(free), len(built))
	}
}

// TestSteadyStateAllocatesNothing runs the benchmark ladder's two lock shapes
// once their free lists are warm: the uncontended transaction (an IX table
// lock and three X row locks, released together) and contended rounds in
// which four transactions at a time queue behind two hot rows and are
// promoted. Neither allocates.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2"), []byte("k3"), []byte("k4")}
	env, pl, m := fixture()
	var ladder float64
	env.Spawn("ladder", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		txn := uint64(0)
		round := func() {
			txn++
			if err := m.Acquire(tk, txn, TableLock(1), IX); err != nil {
				t.Error(err)
			}
			for k := 0; k < 3; k++ {
				if err := m.Acquire(tk, txn, RowLock(1, keys[(int(txn)*3+k)%len(keys)]), X); err != nil {
					t.Error(err)
				}
			}
			m.ReleaseAll(tk, txn)
		}
		round()
		ladder = testing.AllocsPerRun(100, round)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ladder != 0 {
		t.Errorf("%v allocations per uncontended transaction, want 0", ladder)
	}

	env, pl, m = fixture()
	defer env.Close()
	waits := 0 // releases that found a request queued
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			tk := task(pl, p, i)
			r := sim.NewRand(uint64(20 + i))
			for txn := uint64(i + 1); ; txn += 4 {
				if err := m.Acquire(tk, txn, RowLock(1, keys[r.Intn(2)]), X); err != nil {
					t.Error(err)
				}
				p.Wait(200 * sim.Nanosecond)
				if m.CurWaiters() > 0 {
					waits++
				}
				m.ReleaseAll(tk, txn)
			}
		})
	}
	horizon := sim.Time(0)
	step := func() {
		horizon += sim.Time(20 * sim.Microsecond)
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step()
	before := waits
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("%v allocations per 20 us of contended rounds, want 0", n)
	}
	if waits == before {
		t.Fatal("no acquire waited while counting allocations")
	}
}

// TestContendedStatesAllocateNothing is the contended lock that draws a
// state no contended round has used: the shape of a long run, whose free
// list holds thousands of states that only ever had one holder. Each round
// first runs an uncontended transaction over one distinct key more than the
// free list holds, which takes every free state and builds one; releasing in
// grant order leaves the new state on top of the list. The contended round
// that follows locks a fresh key, so it draws that state, and runs every
// shape the lock table has: two S holders, two X requests queued behind
// them, an upgrade that queues ahead of both, and an upgrade refused as a
// deadlock victim. The contended rounds after the first, which builds the
// waiters and hold lists, allocate nothing, and every round grants in the
// order FIFO with upgrades first.
func TestContendedStatesAllocateNothing(t *testing.T) {
	const rounds = 16
	const slot, half = 100 * sim.Microsecond, 50 * sim.Microsecond
	keys := make([][]byte, rounds)
	fill := make([][]byte, 32+rounds)
	for i := range keys {
		keys[i] = storage.Uint64Key(uint64(i))
	}
	for i := range fill {
		fill[i] = storage.Uint64Key(uint64(1000 + i))
	}
	env, pl, m := fixture()
	defer env.Close()
	at := func(p *sim.Proc, r int, off sim.Duration) {
		if d := sim.Duration(r)*slot + off - sim.Duration(p.Now()); d > 0 {
			p.Wait(d)
		}
	}
	env.Spawn("fill", func(p *sim.Proc) {
		tk := task(pl, p, 4)
		for r := 0; r < rounds; r++ {
			at(p, r, 0)
			n := 1
			for ls := m.freeStates; ls != nil; ls = ls.next {
				n++
			}
			txn := uint64(100000 + r)
			for _, k := range fill[:max(n, 32)] {
				if err := m.Acquire(tk, txn, RowLock(1, k), X); err != nil {
					t.Error(err)
				}
			}
			m.ReleaseAll(tk, txn)
		}
	})
	// Each round's script, by process: when it acts (µs into the contended
	// half of the slot), what it asks for, and whether it is refused.
	type step struct {
		at      sim.Duration
		mode    Mode
		refused bool
	}
	scripts := [4][]step{
		{{0, S, false}, {4, X, false}}, // S, then an upgrade that waits for the other reader
		{{1, S, false}, {5, X, true}},  // S, then an upgrade that would close a cycle
		{{2, X, false}},                // X behind both readers
		{{3, X, false}},                // X behind the first writer
	}
	release := [4]sim.Duration{7, 6, 8, 9}
	type grant struct { // exported fields, so that a failure prints mode names
		Proc    int
		Mode    Mode
		Refused bool
	}
	want := []grant{{0, S, false}, {1, S, false}, {1, X, true}, {0, X, false}, {2, X, false}, {3, X, false}}
	got := make([]grant, 0, 2*len(want))
	for i := range scripts {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			tk := task(pl, p, i)
			for r := 0; r < rounds; r++ {
				txn := uint64(r*len(scripts) + i + 1)
				for _, s := range scripts[i] {
					at(p, r, half+s.at*sim.Microsecond)
					err := m.Acquire(tk, txn, RowLock(2, keys[r]), s.mode)
					if (err == ErrDeadlock) != s.refused || (err != nil && err != ErrDeadlock) {
						t.Errorf("round %d: process %d asking for %v got %v", r, i, s.mode, err)
					}
					got = append(got, grant{i, s.mode, err != nil})
				}
				at(p, r, half+release[i]*sim.Microsecond)
				m.ReleaseAll(tk, txn)
			}
		})
	}
	for r := 0; r < rounds; r++ {
		if err := env.RunUntil(sim.Time(sim.Duration(r)*slot + half)); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := env.RunUntil(sim.Time(sim.Duration(r+1) * slot)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d granted %v, want %v", r, got, want)
		}
		if n := after.Mallocs - before.Mallocs; r > 0 && n != 0 {
			t.Errorf("round %d: %d allocations in a contended round, want 0", r, n)
		}
	}
}

// TestWaitTimeAccumulates checks that a request queued behind a 100 µs hold
// returns only once the hold is over.
func TestWaitTimeAccumulates(t *testing.T) {
	env, pl, m := fixture()
	env.Spawn("holder", func(p *sim.Proc) {
		tk := task(pl, p, 0)
		m.Acquire(tk, 1, name("row"), X)
		p.Wait(100 * sim.Microsecond)
		m.ReleaseAll(tk, 1)
	})
	var waited sim.Duration
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Wait(sim.Microsecond)
		tk := task(pl, p, 1)
		asked := p.Now()
		m.Acquire(tk, 2, name("row"), X)
		waited = p.Now().Sub(asked)
		m.ReleaseAll(tk, 2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if waited < 90*sim.Microsecond {
		t.Fatalf("wait time %v", waited)
	}
}

// TestReleaseLoopAllocatesNothing checks that ReleaseAll's loop, run as one
// kernel script per call, allocates nothing in steady state while it parks
// on stripe latches and cores and promotes waiters: six processes on two
// cores each hold the table lock and four of twelve rows, taken in key
// order, and release them all at once.
func TestReleaseLoopAllocatesNothing(t *testing.T) {
	keys := make([][]byte, 12)
	for i := range keys {
		keys[i] = []byte{'k', byte('a' + i)}
	}
	env, pl, m := fixture()
	defer env.Close()
	waits := 0 // releases that found a request queued
	for i := 0; i < 6; i++ {
		i := i
		env.Spawn("w", func(p *sim.Proc) {
			tk := task(pl, p, i%2)
			r := sim.NewRand(uint64(40 + i))
			for txn := uint64(i + 1); ; txn += 6 {
				if err := m.Acquire(tk, txn, TableLock(1), IX); err != nil {
					t.Error(err)
				}
				first := r.Intn(len(keys) - 4)
				for k := first; k < first+4; k++ {
					if err := m.Acquire(tk, txn, RowLock(1, keys[k]), X); err != nil {
						t.Error(err)
					}
				}
				tk.Flush()
				p.Wait(100 * sim.Nanosecond)
				if m.CurWaiters() > 0 {
					waits++
				}
				m.ReleaseAll(tk, txn)
				tk.Flush()
			}
		})
	}
	horizon := sim.Time(2 * sim.Millisecond)
	if err := env.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	step := func() {
		horizon += sim.Time(50 * sim.Microsecond)
		if err := env.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	before := waits
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("%v allocations per 50 us of release loops, want 0", n)
	}
	if waits == before {
		t.Fatal("no acquire waited while counting allocations")
	}
}
