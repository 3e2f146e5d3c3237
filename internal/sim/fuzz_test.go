package sim

import (
	"fmt"
	"testing"
)

// FuzzKernel drives random wait/push/pop/PutFront/callback interleavings
// from several processes sharing one queue and checks the kernel's ordering
// invariants:
//
//   - executed events observe a non-decreasing clock (nothing is queued
//     before the last pop, so time can never run backwards);
//   - queue contents follow exact FIFO/PutFront order against a model deque
//     maintained in simulation order;
//   - an Env.At callback runs at exactly the time it was scheduled for.
//
// The op stream is interpreted deterministically from the fuzz input, so
// any failure reproduces from its corpus entry alone.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("queue-order"))
	f.Add([]byte{2, 2, 2, 3, 3, 3, 4, 4, 0, 0, 1, 1, 4, 4, 4})
	f.Add([]byte{255, 254, 253, 4, 4, 4, 4, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const gap = Duration(100)
		nProcs := 2 + int(data[0])%3 // 2..4
		env := NewEnv()
		defer env.Close()

		q := NewQueue[uint64](env, "fq", 0)
		var model []uint64 // expected queue contents
		var lastT Time     // clock floor
		var nextVal uint64 // values stay unique
		observe := func(now Time) {
			if now < lastT {
				t.Errorf("clock ran backwards: %v after %v", now, lastT)
			}
			lastT = now
		}
		popModel := func() uint64 {
			v := model[0]
			model = model[1:]
			return v
		}
		for s := 0; s < nProcs; s++ {
			// Each process interprets its own slice of the op stream.
			ops := data[s*len(data)/nProcs : (s+1)*len(data)/nProcs]
			env.Spawn(fmt.Sprintf("fuzz%d", s), func(p *Proc) {
				for _, op := range ops {
					observe(p.Now())
					switch op % 5 {
					case 0: // wait a data-derived stride
						p.Wait(Duration(1 + int(op)%37))
					case 1: // push back
						nextVal++
						q.Put(p, nextVal)
						model = append(model, nextVal)
					case 2: // push front (the priority path)
						nextVal++
						q.PutFront(nextVal)
						model = append([]uint64{nextVal}, model...)
					case 3: // pop
						if v, ok := q.TryGet(); ok {
							if want := popModel(); v != want {
								t.Errorf("dequeue order broken: got %d, want %d", v, want)
							}
						} else if len(model) != 0 {
							t.Errorf("queue empty but model holds %d items", len(model))
						}
					case 4: // a callback in the future
						at := p.Now().Add(gap + Duration(int(op)%29))
						env.At(at, func() {
							if got := env.Now(); got != at {
								t.Errorf("callback ran at %v, scheduled for %v", got, at)
							}
							observe(env.Now())
						})
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("fuzz program failed: %v", err)
		}
		// Drain what's left so FIFO order is checked end to end.
		for {
			v, ok := q.TryGet()
			if !ok {
				break
			}
			if want := popModel(); v != want {
				t.Errorf("residual dequeue order broken: got %d, want %d", v, want)
			}
		}
		if len(model) != 0 {
			t.Errorf("%d modeled items undelivered", len(model))
		}
	})
}
