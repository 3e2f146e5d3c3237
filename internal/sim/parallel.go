package sim

import (
	"fmt"
	"sort"
)

// This file is the parallel half of the kernel: a conservative-lookahead
// ("null-message-free window") parallel discrete-event scheduler over the
// shards declared in env.go.
//
// The contract:
//
//   - Every process and every primitive (Queue, Resource, Signal) is
//     confined to exactly one shard. Within a shard, execution is the
//     serial kernel's dispatch loop, bit for bit.
//   - The only cross-shard edge is Proc.CrossAt(target, t, fn), and t must
//     be at least lookahead beyond the sender's clock. The lookahead is the
//     modeled interconnect per-hop latency: no message can take effect on
//     another socket sooner than one hop.
//   - The driver alternates windows and barriers. At each barrier it drains
//     every shard's inbox into its heap in a deterministic order (sorted by
//     (at, source shard, source ticket)), then computes, for each shard s
//     with pending events, the window bound
//
//         limit(s) = min(horizon, min over other busy shards t of
//                        top(t) + lookahead - 1)
//
//     Shard s may execute every event at or before limit(s) without ever
//     seeing a late arrival: any message another shard could still send has
//     effect no earlier than top(t) + lookahead. Shards whose next event
//     lies inside their bound run concurrently, one host goroutine each;
//     the shard holding the globally minimal event always qualifies, so
//     every window makes progress.
//
// Determinism: window boundaries are a pure function of heap state, which
// is a pure function of prior windows and the deterministic inbox merge —
// never of host scheduling. So the event order on every shard, and hence
// every simulated result, is identical at GOMAXPROCS=1 and GOMAXPROCS=N,
// and identical to the serial kernel whenever the program's cross-shard
// sends are themselves deterministic. A single-shard parallel environment
// degenerates to one full-horizon window: the serial kernel with one extra
// channel handoff per RunUntil (when concurrent), and byte-identical event
// order.

// crossEvent is one cross-shard arrival held in a shard's inbox until the
// next barrier. src/srcSeq make the merge order a total order independent
// of host timing: arrivals are sorted by (at, src, srcSeq) before local
// sequence numbers are assigned.
type crossEvent struct {
	at     Time
	src    int
	srcSeq uint64
	fn     func()
}

// Shape reshapes the environment into shards serial kernels driven by the
// conservative window protocol, without starting any host concurrency: until
// SetConcurrent(true), RunUntil executes the very same windows inline, one
// shard at a time, in shard order. Shards interact only through inboxes
// drained at barriers, so the event order on every shard — and hence every
// simulated result — is byte-identical between the inline and concurrent
// modes. Shaping lets engines confine their processes and primitives to
// shards at construction time and decide later (per run flag) whether the
// windows also execute on parallel host goroutines.
//
// Shape must be called before the first RunUntil. Calling it again with the
// same shape is a no-op; a different shard count or lookahead panics.
// shards <= 1 leaves the environment serial.
func (e *Env) Shape(shards int, lookahead Duration) {
	if shards <= 1 {
		return
	}
	if e.parallel {
		if shards != len(e.shs) || lookahead != e.lookahead {
			panic(fmt.Sprintf("sim: Shape(%d, %v) conflicts with existing shape (%d, %v)",
				shards, lookahead, len(e.shs), e.lookahead))
		}
		return
	}
	if e.closed {
		panic("sim: Shape on a closed environment")
	}
	if lookahead < 1 {
		panic("sim: Shape needs a positive lookahead")
	}
	e.parallel = true
	e.lookahead = lookahead
	for i := len(e.shs); i < shards; i++ {
		e.shs = append(e.shs, &shard{env: e, id: i})
	}
}

// SetConcurrent selects how a shaped environment executes its windows:
// inline on the driver goroutine (false, the default — the golden serial
// reference) or one host goroutine per shard (true). The first enable spawns
// the per-shard window workers. Results are bit-identical either way; this
// is purely a host-execution knob. On an unshaped environment it is a no-op.
func (e *Env) SetConcurrent(on bool) {
	if !e.parallel {
		return
	}
	if on && !e.workers {
		if e.closed {
			panic("sim: SetConcurrent on a closed environment")
		}
		e.workers = true
		for _, s := range e.shs {
			s.start = make(chan struct{})
			go s.windowWorker()
		}
	}
	e.concurrent = on
}

// EnableParallel shapes the environment into shards serial kernels AND turns
// on concurrent window execution: Shape(shards, lookahead) followed by
// SetConcurrent(true). It must be called before the first RunUntil. On an
// environment already shaped identically (an engine confined itself at
// construction) it just enables concurrency; a conflicting shape panics.
// shards <= 1 leaves the environment serial.
func (e *Env) EnableParallel(shards int, lookahead Duration) {
	if shards <= 1 {
		return
	}
	e.Shape(shards, lookahead)
	e.SetConcurrent(true)
}

// Parallel reports whether EnableParallel has reshaped this environment.
func (e *Env) Parallel() bool { return e.parallel }

// NumShards reports the shard count (1 on a serial environment).
func (e *Env) NumShards() int { return len(e.shs) }

// Lookahead reports the cross-shard scheduling distance (0 when serial).
func (e *Env) Lookahead() Duration {
	if !e.parallel {
		return 0
	}
	return e.lookahead
}

// windowWorker runs one shard's share of each window: the same dispatch loop
// the serial driver runs, bounded by the shard horizon the coordinator
// computed, so scripts (script.go) advance inline here with nothing added:
// a script's resources are confined to its process's shard like any other
// blocking call. It exits when Close closes the start channel.
func (s *shard) windowWorker() {
	for range s.start {
		s.dispatch()
		s.env.windowWG.Done()
	}
}

// runParallel is RunUntil for a shaped environment: alternate windows and
// barriers until no shard holds an event at or before the horizon. When the
// environment is not concurrent each window runs inline on the driver
// goroutine in shard order; windows within one barrier round are independent
// (shards interact only via inboxes drained at the next barrier), so the
// per-shard event streams are identical in both modes.
func (e *Env) runParallel(horizon Time) error {
	const inf = Time(1<<63 - 1)
	la := Time(e.lookahead)
	for !e.failed.Load() {
		e.drainInboxes()
		// Find the two smallest heap tops; min over other shards' tops is
		// then O(1) per shard.
		min1, min2 := inf, inf
		var min1s *shard
		busy := 0
		for _, s := range e.shs {
			if len(s.events) == 0 {
				continue
			}
			busy++
			top := s.events[0].at
			if top < min1 {
				min2 = min1
				min1, min1s = top, s
			} else if top < min2 {
				min2 = top
			}
		}
		if busy == 0 || min1 > horizon {
			break
		}
		for _, s := range e.shs {
			if len(s.events) == 0 {
				continue
			}
			lim := horizon
			if busy > 1 {
				other := min1
				if s == min1s {
					other = min2
				}
				if b := other + la - 1; b < lim {
					lim = b
				}
			}
			if s.events[0].at > lim {
				s.stalls++
				continue
			}
			s.horizon = lim
			s.windows++
			if !e.concurrent {
				s.dispatch()
				continue
			}
			e.windowWG.Add(1)
			s.start <- struct{}{}
		}
		if e.concurrent {
			e.windowWG.Wait()
		}
	}
	e.drainInboxes()
	if err := e.firstErr(); err != nil {
		e.closed = true
		return err
	}
	return nil
}

// drainInboxes merges every shard's cross-shard arrivals into its heap in
// deterministic (at, src, srcSeq) order, assigning local sequence numbers
// in that order. It runs only at barriers, when no shard is executing, so
// the heaps are safe to touch.
func (e *Env) drainInboxes() {
	for _, s := range e.shs {
		s.inboxMu.Lock()
		pend := s.inbox
		s.inbox = nil
		s.inboxMu.Unlock()
		if len(pend) == 0 {
			continue
		}
		sort.Slice(pend, func(i, j int) bool {
			a, b := pend[i], pend[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.srcSeq < b.srcSeq
		})
		for _, ce := range pend {
			s.push(event{at: ce.at, fn: ce.fn})
		}
	}
}

// CrossAt schedules fn to run on the target shard at time t — the only
// legal cross-shard edge on a parallel environment. t must be at least the
// environment lookahead beyond the sender's clock; violating that panics,
// because a closer delivery could land in the target's already-executed
// past. fn runs as a scheduler callback on the target shard (it must not
// block) and may freely touch that shard's primitives: fire signals, post
// to queues, resume that shard's processes.
//
// On a serial environment (or to the caller's own shard) CrossAt is AtOn:
// the same program runs on both kernels, which is what the equivalence
// tests exercise.
func (p *Proc) CrossAt(target int, t Time, fn func()) {
	e := p.env
	s := p.sh
	tg := e.shs[target]
	if !e.parallel || tg == s {
		if t < s.now {
			t = s.now
		}
		tg.push(event{at: t, fn: fn})
		return
	}
	if t < s.now.Add(e.lookahead) {
		panic(fmt.Sprintf("sim: cross-shard post from shard %d at %v for shard %d at %v violates lookahead %v",
			s.id, s.now, target, t, e.lookahead))
	}
	s.crossSeq++
	tg.inboxMu.Lock()
	tg.inbox = append(tg.inbox, crossEvent{at: t, src: s.id, srcSeq: s.crossSeq, fn: fn})
	tg.inboxMu.Unlock()
	// No window adjustment is needed: arrivals sit in the inbox until the
	// next barrier, and any send from a window (issued at or after the
	// sender's heap top) lands at top + lookahead or later — strictly past
	// every other shard's window bound of top + lookahead - 1. A shard can
	// therefore never merge an arrival into its executed past.
}

// ShardNow returns the given shard's clock. Outside a running window it is
// only meaningful from the driver (between RunUntil calls) or from code
// executing on that shard.
func (e *Env) ShardNow(shard int) Time { return e.shs[shard].now }
