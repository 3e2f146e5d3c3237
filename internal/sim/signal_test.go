package sim

import (
	"fmt"
	"testing"
)

// mustPanicWith runs fn and fails unless it panics with want.
func mustPanicWith(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Errorf("%s: panicked with %v, want %q", name, got, want)
		}
	}()
	fn()
}

// TestSignalArm: an armed signal is a join of n completions. The fires
// before the n-th only count: they wake nobody and run no callback, and a
// callback registered between them runs at the n-th. Past the n-th, Fire
// panics as a one-shot signal's second Fire does. Arm wants at least one
// completion on an unfired, unarmed signal, and Reset brings the signal
// back to one Fire.
func TestSignalArm(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	sig.Arm(3)
	var log []string
	sig.OnFire(func() { log = append(log, "early callback") })
	env.Spawn("waiter", func(p *Proc) {
		sig.Await(p)
		log = append(log, fmt.Sprintf("woke at %v", p.Now()))
	})
	env.Spawn("firer", func(p *Proc) {
		p.Wait(Microsecond)
		sig.Fire()
		p.Wait(Microsecond)
		sig.Fire()
		if sig.Fired() || len(log) != 0 {
			t.Errorf("two of three fires completed the signal: fired=%v, %v", sig.Fired(), log)
		}
		sig.OnFire(func() { log = append(log, "late callback") })
		mustPanicWith(t, "Arm between fires", "sim: signal armed twice", func() { sig.Arm(1) })
		mustPanicWith(t, "Reset between fires", "sim: reset of a signal that has not fired", sig.Reset)
		p.Wait(Microsecond)
		sig.Fire()
		if !sig.Fired() {
			t.Error("the third fire did not complete the signal")
		}
		mustPanicWith(t, "over-fire", "sim: signal fired twice", sig.Fire)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early callback", "late callback", fmt.Sprintf("woke at %v", Time(3*Microsecond))}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("completion order %q, want %q", log, want)
	}

	mustPanicWith(t, "Arm on a fired signal", "sim: arm of a fired signal", func() { sig.Arm(2) })
	sig.Reset()
	sig.Fire()
	if !sig.Fired() {
		t.Error("after Reset one Fire did not complete the signal")
	}

	fresh := NewSignal(env)
	mustPanicWith(t, "Arm(0)", "sim: signal armed with fewer than one completion", func() { fresh.Arm(0) })
	fresh.Arm(2)
	mustPanicWith(t, "second Arm", "sim: signal armed twice", func() { fresh.Arm(2) })
	fresh.Fire()
	fresh.Fire()
	fresh.Reset()
	fresh.Arm(1)
	fresh.Fire()
	if !fresh.Fired() {
		t.Error("Arm(1) did not complete at the first Fire")
	}
}

// signalTrace is what one side of FuzzSignalArm observed: the instant the
// join completed, the events the run took and the order its waiters and
// callbacks saw the completion in.
type signalTrace struct {
	done     Time
	executed uint64
	order    []string
}

// runSignalJoin interprets data as a join of n completions and runs it.
// Each firer waits a data-chosen stride, then registers its completion at a
// data-chosen instant: at once when that instant is already due, as a
// horizon does for a point it has passed, and otherwise from an Env.At
// callback. Each waiter waits its own stride, may hook an OnFire callback,
// and awaits the join. armed runs the join as one signal armed with n;
// otherwise it is the construction the count replaced: n one-shot
// sub-signals, each with an OnFire callback counting arrivals, the last of
// which fires the target.
func runSignalJoin(t *testing.T, data []byte, armed bool) signalTrace {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%6
	waiters := at(1) % 4

	env := NewEnv()
	defer env.Close()
	var tr signalTrace
	target := NewSignal(env)
	var fire func(i int)
	if armed {
		target.Arm(n)
		fire = func(int) { target.Fire() }
	} else {
		subs := make([]*Signal, n)
		left := n
		for i := range subs {
			subs[i] = NewSignal(env)
			subs[i].OnFire(func() {
				if left--; left == 0 {
					target.Fire()
				}
			})
		}
		fire = func(i int) { subs[i].Fire() }
	}
	target.OnFire(func() {
		tr.done = env.Now()
		tr.order = append(tr.order, "complete")
	})
	for i := 0; i < n; i++ {
		stride, due := Duration(at(2+2*i)%8), Time(at(3+2*i)%12)
		env.Spawn(fmt.Sprintf("firer%d", i), func(p *Proc) {
			p.Wait(stride)
			if due <= p.Now() {
				fire(i)
				return
			}
			env.At(due, func() { fire(i) })
		})
	}
	for w := 0; w < waiters; w++ {
		b := at(2 + 2*n + w)
		env.Spawn(fmt.Sprintf("waiter%d", w), func(p *Proc) {
			p.Wait(Duration(b % 12))
			if b&0x80 != 0 {
				target.OnFire(func() { tr.order = append(tr.order, fmt.Sprintf("callback%d@%v", w, env.Now())) })
			}
			target.Await(p)
			tr.order = append(tr.order, fmt.Sprintf("waiter%d@%v", w, p.Now()))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !target.Fired() {
		t.Fatalf("armed=%v: the join never completed", armed)
	}
	tr.executed = env.Executed()
	return tr
}

// FuzzSignalArm requires a signal armed with n to complete at the same
// instant, in the same number of events and with the same wake and
// callback order as n sub-signals joined by a counting OnFire callback.
func FuzzSignalArm(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0})                                   // one completion, one waiter
	f.Add([]byte{2, 3, 0, 0, 0, 0, 0, 0, 0x80, 5, 0x8b})        // same-instant fires, all due at once
	f.Add([]byte{5, 2, 1, 9, 4, 2, 7, 11, 0, 0, 3, 3, 6, 0x86}) // fires spread over timers and due instants
	f.Add([]byte{3, 3, 7, 11, 7, 11, 7, 11, 7, 11, 0, 0x8c, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := runSignalJoin(t, data, true), runSignalJoin(t, data, false)
		if got.done != want.done || got.executed != want.executed {
			t.Errorf("armed join completed at %v in %d events, sub-signal join at %v in %d",
				got.done, got.executed, want.done, want.executed)
		}
		if fmt.Sprint(got.order) != fmt.Sprint(want.order) {
			t.Errorf("armed join order %v, sub-signal join order %v", got.order, want.order)
		}
	})
}
