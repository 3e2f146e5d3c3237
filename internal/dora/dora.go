// Package dora implements data-oriented transaction execution [10, 11]: the
// database is split into logical partitions, each owned by one worker bound
// to one core; transactions are decomposed into per-partition actions that
// flow through input queues and synchronize at rendezvous points (RVPs).
// Ownership makes centralized locking and page latching unnecessary. A
// partition-local lock table keyed by the action's routing entity preserves
// isolation across a transaction's phases; conflicting actions are parked
// on a deferred list (never blocking the worker) and re-dispatched when the
// holder releases — DORA's deferred-action mechanism. A waits-for registry
// turns would-be cross-entity cycles into abort votes at defer time.
//
// On a multi-socket platform the partitions shard across sockets: an
// action enqueued from another socket carries a cache-line-sized message
// across the interconnect, and its vote pays the return hop to the
// coordinator's RVP. Same-socket traffic — and every action on a
// single-socket machine — pays exactly nothing new, which is what lets
// socket-local transactions keep single-machine costs under scale-out.
package dora

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Costs parameterizes the CPU cost of queue and local-lock management (the
// Figure 3 "Dora" component). The hardware queue engine (§5.5) is modelled
// by the engine substituting smaller costs plus a unit charge.
type Costs struct {
	EnqueueInstr   int // route + queue insert on the sender side
	DequeueInstr   int // queue remove + action setup on the worker side
	LocalLockInstr int // partition-local lock acquire or release
	RVPInstr       int // per-arrival rendezvous bookkeeping
}

// DefaultCosts returns the software queue costs (coherence misses between
// producer and consumer cores are charged via queue-slot Accesses on top).
func DefaultCosts() Costs {
	return Costs{EnqueueInstr: 160, DequeueInstr: 120, LocalLockInstr: 60, RVPInstr: 90}
}

// Entity names one isolation granule of a partition: the district in TPC-C,
// the subscriber in TATP. It is a small comparable value, so computing one
// per locked action and keying the local lock table with it allocates
// nothing; the zero Entity means "no lock". String renders the name the
// engines used to build as text ("d3.7", "s42"), and Compare orders entities
// as that text orders, which is the order ReleaseLocks frees them in.
type Entity struct {
	form   uint8 // entityNone, entity1, entity2 or entityKey
	prefix byte  // the name's first letter; the key length for entityKey
	a, b   uint64
}

const (
	entityNone = iota
	entity1    // prefix a
	entity2    // prefix a "." b
	entityKey  // a key's own bytes
)

// Entity1 names the entity prefix+a, as in "w3".
func Entity1(prefix byte, a uint64) Entity { return Entity{form: entity1, prefix: prefix, a: a} }

// Entity2 names the entity prefix+a+"."+b, as in "d3.7".
func Entity2(prefix byte, a, b uint64) Entity {
	return Entity{form: entity2, prefix: prefix, a: a, b: b}
}

// KeyEntity names an entity by a key's own bytes, for schemes that lock
// single rows. Only the first 16 bytes count: longer keys that agree on them
// share one entity, a coarser granule and never a missing lock.
func KeyEntity(key []byte) Entity {
	var buf [16]byte
	n := copy(buf[:], key)
	return Entity{form: entityKey, prefix: byte(n),
		a: binary.BigEndian.Uint64(buf[:8]), b: binary.BigEndian.Uint64(buf[8:])}
}

// appendText appends the entity's name to dst.
func (e Entity) appendText(dst []byte) []byte {
	switch e.form {
	case entity1:
		return strconv.AppendUint(append(dst, e.prefix), e.a, 10)
	case entity2:
		dst = strconv.AppendUint(append(dst, e.prefix), e.a, 10)
		return strconv.AppendUint(append(dst, '.'), e.b, 10)
	case entityKey:
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], e.a)
		binary.BigEndian.PutUint64(buf[8:], e.b)
		return append(dst, buf[:e.prefix]...)
	}
	return dst
}

// entityTextMax bounds a name: a letter, two 20-digit numbers and a dot.
const entityTextMax = 42

// String renders the entity's name.
func (e Entity) String() string {
	var buf [entityTextMax]byte
	return string(e.appendText(buf[:0]))
}

// Compare orders entities as their names order as strings.
func (e Entity) Compare(o Entity) int {
	var x, y [entityTextMax]byte
	return bytes.Compare(e.appendText(x[:0]), o.appendText(y[:0]))
}

// Action is one unit of partition-confined work.
//
// If LockKey is not the zero Entity the partition acquires the
// (entity-granularity) local lock for TxnID before running Body; the lock is
// held until the transaction's Release. A conflicting action is deferred,
// not blocked; if deferring would close a waits-for cycle the action instead
// arrives at its RVP with a false (abort) vote and Body never runs.
//
// An Action belongs to whoever enqueued it and may be re-armed for another
// enqueue once its RVP has fired: the partition's last touch of an action
// precedes its Arrive.
type Action struct {
	TxnID   uint64
	LockKey Entity // zero = no locking (undo, single-phase reads)
	// RVP may be nil for fire-and-forget actions whose completion nobody
	// awaits.
	RVP *RVP
	// Run is the action's body. Coordinators that reuse an Action bind a
	// method value here once instead of building a closure per enqueue.
	Run func(t *platform.Task, pt *Partition) bool

	// ReplySocket is the socket of the coordinator awaiting this action's
	// RVP. On a multi-socket platform the partition pays an interconnect
	// message to carry its vote home when it differs from the partition's
	// own socket; engines set it wherever they set RVP. Ignored when RVP
	// is nil or on single-socket platforms.
	ReplySocket int

	// Priority actions (lock releases, undo) jump the input queue so they
	// never convoy behind a backlog of actions waiting for the very locks
	// they release.
	Priority bool

	// Refused is set by the partition when the action was abort-voted at
	// defer time because waiting would close a deadlock cycle; Body never
	// ran. Coordinators use it to distinguish engine aborts (retry) from
	// user aborts (do not retry).
	Refused bool

	// release marks a lock-release message (Partition.Release): it has no
	// body, the partition frees TxnID's entity locks itself and takes the
	// message back onto its free list once applied. (Declared beside the
	// other flags so the three share one word.)
	release bool

	// Flight-recorder stamps, maintained by the partition as the action
	// moves through queue, lock and execution stages. The durations
	// accumulate across re-dispatches (a deferred action re-enters the
	// queue); coordinators fold them into the transaction's latency
	// anatomy after the RVP. All host-side: never read by simulated logic.
	EnqAt     sim.Time
	QueueWait sim.Duration
	LockWait  sim.Duration
	ExecTime  sim.Duration

	defAt sim.Time // when parked on a deferred list; lock wait starts here
}

// ResetStamps clears the flight-recorder stamps so a pooled Action can be
// reused without leaking the previous transaction's timings.
func (a *Action) ResetStamps() {
	a.EnqAt, a.defAt = 0, 0
	a.QueueWait, a.LockWait, a.ExecTime = 0, 0, 0
}

// RVP is a rendezvous point: the join of a fan-out of actions, a signal
// armed with one completion per arrival. It completes when all arrivals are
// in; ok stays true only if every action voted to continue. A coordinator
// that runs one fan-out at a time keeps one RVP and re-arms it with Reset.
type RVP struct {
	ok  bool
	sig sim.Signal
}

// NewRVP creates a rendezvous expecting n arrivals.
func NewRVP(env *sim.Env, n int) *RVP {
	r := &RVP{ok: true, sig: *sim.NewSignal(env)}
	r.sig.Arm(n)
	return r
}

// Reset re-arms the rendezvous for a new fan-out of n arrivals. Only the
// coordinator that awaited it may call it; Reset panics while an arrival of
// the previous fan-out is still outstanding.
func (r *RVP) Reset(n int) {
	r.sig.Reset()
	r.sig.Arm(n)
	r.ok = true
}

// Arrive registers one arrival with its vote; the last arrival completes
// the rendezvous, and one past it panics.
func (r *RVP) Arrive(vote bool) {
	if !vote {
		r.ok = false
	}
	r.sig.Fire()
}

// Await blocks until all arrivals are in and reports whether every action
// voted to continue.
func (r *RVP) Await(p *sim.Proc) bool {
	r.sig.Await(p)
	return r.ok
}

// Registry is the waits-for graph shared by a set of partitions. All
// updates happen from simulated processes (one at a time), so plain maps
// suffice. A waiter's holders are a set kept as a slice; the slices of
// waiters that stopped waiting go on a free list, and the cycle check's
// visited set and stack are reused, so steady-state defer and release
// cycles allocate nothing.
type Registry struct {
	waits map[uint64][]uint64 // txn -> txns it waits for, each once
	free  [][]uint64          // emptied holder slices
	seen  map[uint64]bool     // wouldCycle's visited set
	stack []uint64            // wouldCycle's DFS stack
}

// NewRegistry returns an empty waits-for registry.
func NewRegistry() *Registry {
	return &Registry{waits: make(map[uint64][]uint64), seen: make(map[uint64]bool)}
}

// wouldCycle reports whether adding waiter->holder closes a cycle: whether
// waiter is reachable from holder. Reachability does not depend on the order
// holders are visited in.
func (r *Registry) wouldCycle(waiter, holder uint64) bool {
	clear(r.seen)
	r.stack = append(r.stack[:0], holder)
	for n := len(r.stack); n > 0; n = len(r.stack) {
		id := r.stack[n-1]
		r.stack = r.stack[:n-1]
		if id == waiter {
			return true
		}
		if r.seen[id] {
			continue
		}
		r.seen[id] = true
		r.stack = append(r.stack, r.waits[id]...)
	}
	return false
}

func (r *Registry) add(waiter, holder uint64) {
	hs, ok := r.waits[waiter]
	if !ok {
		if n := len(r.free); n > 0 {
			hs = r.free[n-1]
			r.free = r.free[:n-1]
		}
	} else if slices.Contains(hs, holder) {
		return
	}
	r.waits[waiter] = append(hs, holder)
}

func (r *Registry) remove(waiter, holder uint64) {
	hs, ok := r.waits[waiter]
	if !ok {
		return
	}
	if i := slices.Index(hs, holder); i >= 0 {
		hs[i] = hs[len(hs)-1]
		hs = hs[:len(hs)-1]
	}
	if len(hs) == 0 {
		delete(r.waits, waiter)
		r.free = append(r.free, hs)
		return
	}
	r.waits[waiter] = hs
}

// Partition is one logical partition: an input queue, an owning worker on a
// dedicated core, and a local lock table. Window controls how many actions
// may be in flight at once (1 = strictly serial, the software DORA
// configuration; >1 enables the overlap the bionic engine needs for
// asynchronous hardware requests).
type Partition struct {
	ID     int
	Core   *platform.Core
	Costs  Costs
	Window int

	pl    *platform.Platform
	reg   *Registry
	in    *sim.Queue[*Action]
	locks map[Entity]*entityLock
	bd    *stats.Breakdown

	qAddr  uint64 // queue slots, for coherence-miss charging
	socket int    // the socket Core lives on, cached for the message path

	inflight   int
	slotFree   *sim.Signal // fired by a finishing child while the worker waits for a slot
	done       int64
	actionName string         // spawn name for windowed child actions, built once
	idle       []*actionChild // pooled child processes awaiting work

	// Free lists and scratch: entity locks churn once per lock, release
	// messages once per transaction, and owned is ReleaseLocks' sorted-key
	// scratch (taken for the duration of a call, so a re-entrant call on a
	// windowed partition that parked mid-loop builds its own).
	freeLocks []*entityLock
	freeRel   []*Action
	owned     []Entity

	// HWQueue, when non-nil, is the hardware queue-management engine: the
	// enqueue/dequeue path charges it instead of the software costs.
	HWQueue *platform.HWUnit
	// HWQueueCycles is the unit occupancy per queue operation.
	HWQueueCycles int

	// Flight recorder ring (SetRecorder). Nil when untraced; action stamps
	// are maintained regardless (they cost a few clock reads and feed the
	// always-on latency anatomy).
	rec *obs.ShardRec
}

type entityLock struct {
	owner    uint64
	deferred []*Action
}

// NewPartition creates a partition owned by core, sharing reg for deadlock
// avoidance. Call Start to spawn its worker.
func NewPartition(pl *platform.Platform, reg *Registry, id int, core *platform.Core, costs Costs, window int, bd *stats.Breakdown) *Partition {
	if window < 1 {
		window = 1
	}
	return &Partition{
		ID:         id,
		Core:       core,
		Costs:      costs,
		Window:     window,
		pl:         pl,
		reg:        reg,
		in:         sim.NewQueue[*Action](pl.Env, fmt.Sprintf("part%d.in", id), 0),
		locks:      make(map[Entity]*entityLock),
		bd:         bd,
		qAddr:      pl.AllocHost(64 * 1024),
		socket:     core.SocketID(),
		actionName: fmt.Sprintf("part%d.action", id),
	}
}

// Socket returns the socket this partition's owning core lives on.
func (pt *Partition) Socket() int { return pt.socket }

// SetRecorder attaches the flight recorder: the partition records
// queue-wait, lock-wait and action-execution spans. Host-side only:
// attaching a recorder changes no simulated behavior.
func (pt *Partition) SetRecorder(rec *obs.Recorder) { pt.rec = rec.Shard(0) }

// actionMsgBytes is the modeled size of one cross-socket action message —
// a cache-line-sized descriptor (routing key, txn id, body pointer) — and
// of the vote carried back to the coordinator's RVP.
const actionMsgBytes = 64

// Enqueue routes an action into the partition, charging the sender's task.
// On a multi-socket platform a sender on another socket additionally pays
// one interconnect message to carry the action descriptor to the
// partition's socket; same-socket sends pay nothing new.
func (pt *Partition) Enqueue(t *platform.Task, a *Action) {
	if pt.HWQueue != nil {
		// Doorbell write + hardware enqueue: minimal CPU, unit does the rest.
		t.Exec(stats.CompDora, pt.Costs.EnqueueInstr/4)
	} else {
		t.Exec(stats.CompDora, pt.Costs.EnqueueInstr)
		// Producer-side coherence traffic on the queue slot.
		t.Access(stats.CompDora, pt.qAddr+uint64(pt.in.Puts()%1024)*64, 64)
	}
	// One park for the core time, the hardware enqueue and the interconnect
	// message together.
	sc := t.Script()
	if pt.HWQueue != nil {
		pt.HWQueue.AddWork(sc, pt.HWQueueCycles)
	}
	if ic := pt.pl.IC; ic != nil {
		ic.AddTransfer(sc, t.Core().SocketID(), pt.socket, actionMsgBytes)
	}
	sc.Run()
	a.EnqAt = t.P.Now()
	if a.Priority {
		pt.in.PutFront(a)
		return
	}
	pt.in.Put(t.P, a)
}

// QueueLen reports the current backlog.
func (pt *Partition) QueueLen() int { return pt.in.Len() }

// Start spawns the partition worker. With Window == 1 the worker runs each
// action to completion itself; with a larger window it dispatches actions
// to child processes that share the partition's core, so an action blocked
// on asynchronous hardware leaves the core free for its siblings.
func (pt *Partition) Start() {
	body := func(p *sim.Proc) {
		// One task for the worker's life, started afresh per action.
		task := pt.pl.NewTask(p, pt.Core, pt.bd)
		for {
			a, ok := pt.in.Get(p)
			if !ok {
				for pt.inflight > 0 {
					pt.awaitSlot(p)
				}
				// Drained: release the pooled child processes so they
				// exit and the partition leaves nothing parked behind.
				for _, c := range pt.idle {
					c.quit = true
					pt.pl.Env.Resume(c.proc)
				}
				pt.idle = nil
				return
			}
			if pt.Window == 1 {
				task.Reset()
				pt.dispatch(task, a)
				continue
			}
			for pt.inflight >= pt.Window {
				pt.awaitSlot(p)
			}
			pt.inflight++
			pt.startAction(a)
		}
	}
	pt.pl.Env.Spawn(fmt.Sprintf("part%d.worker", pt.ID), body)
}

// awaitSlot parks the worker until a child process finishes an action. The
// worker owns slotFree and is its only waiter, so it re-arms the one signal.
func (pt *Partition) awaitSlot(p *sim.Proc) {
	if pt.slotFree == nil {
		pt.slotFree = sim.NewSignal(p.Env())
	} else {
		pt.slotFree.Reset()
	}
	pt.slotFree.Await(p)
}

// actionChild is one pooled windowed-action process: a single goroutine
// serving many actions across its lifetime, parked in the partition's idle
// list between actions.
type actionChild struct {
	proc *sim.Proc
	next *Action
	quit bool
}

// startAction hands a to a pooled child process, spawning a fresh one only
// when the pool is empty. A pool Resume and a fresh Spawn each push exactly
// one wake event at the current time, so reuse changes per-action
// allocation (no Proc, no goroutine), never the event schedule.
func (pt *Partition) startAction(a *Action) {
	if n := len(pt.idle); n > 0 {
		c := pt.idle[n-1]
		pt.idle = pt.idle[:n-1]
		c.next = a
		pt.pl.Env.Resume(c.proc)
		return
	}
	c := &actionChild{next: a}
	c.proc = pt.pl.Env.Spawn(pt.actionName, func(cp *sim.Proc) {
		task := pt.pl.NewTask(cp, pt.Core, pt.bd)
		for {
			a := c.next
			c.next = nil
			task.Reset()
			pt.dispatch(task, a)
			pt.inflight--
			if pt.slotFree != nil && !pt.slotFree.Fired() {
				pt.slotFree.Fire()
			}
			pt.idle = append(pt.idle, c)
			cp.Suspend()
			if c.quit {
				return
			}
		}
	})
}

// dispatch charges the dequeue, resolves the local lock, and either runs,
// defers, or abort-votes the action.
func (pt *Partition) dispatch(task *platform.Task, a *Action) {
	if at := task.P.Now(); a.defAt != 0 {
		// Re-dispatch of a deferred action: the park-to-grant gap (plus the
		// re-queue hop) is lock wait, not queue wait.
		if at > a.defAt {
			a.LockWait += at.Sub(a.defAt)
			pt.rec.Record(obs.Span{Start: a.defAt, End: at, Kind: obs.KindLockWait,
				Socket: int32(pt.socket), Txn: a.TxnID})
		}
		a.defAt = 0
	} else if a.EnqAt != 0 {
		if at > a.EnqAt {
			a.QueueWait += at.Sub(a.EnqAt)
		}
		// Recorded even at zero width: every dequeue shows in the trace.
		pt.rec.Record(obs.Span{Start: a.EnqAt, End: at, Kind: obs.KindQueueWait,
			Socket: int32(pt.socket), Txn: a.TxnID})
	}
	if pt.HWQueue != nil {
		task.Exec(stats.CompDora, pt.Costs.DequeueInstr/4)
		sc := task.Script()
		pt.HWQueue.AddWork(sc, pt.HWQueueCycles)
		sc.Run()
	} else {
		task.Exec(stats.CompDora, pt.Costs.DequeueInstr)
		task.Access(stats.CompDora, pt.qAddr+uint64(pt.done%1024)*64, 64)
	}
	if a.LockKey != (Entity{}) {
		task.Exec(stats.CompDora, pt.Costs.LocalLockInstr)
		l := pt.locks[a.LockKey]
		if l == nil {
			if n := len(pt.freeLocks); n > 0 {
				l = pt.freeLocks[n-1]
				pt.freeLocks = pt.freeLocks[:n-1]
			} else {
				l = &entityLock{}
			}
			l.owner = a.TxnID
			pt.locks[a.LockKey] = l
		} else if l.owner != a.TxnID {
			// Conflict: defer unless that would close a cycle.
			if pt.reg.wouldCycle(a.TxnID, l.owner) {
				a.Refused = true
				pt.finish(task, a, false)
				return
			}
			pt.reg.add(a.TxnID, l.owner)
			a.defAt = task.P.Now()
			l.deferred = append(l.deferred, a)
			return
		}
	}
	pt.run(task, a)
}

func (pt *Partition) run(task *platform.Task, a *Action) {
	t0 := task.P.Now()
	vote := true
	if a.release {
		pt.ReleaseLocks(task, a.TxnID)
	} else {
		vote = a.Run(task, pt)
	}
	if t1 := task.P.Now(); t1 > t0 {
		a.ExecTime += t1.Sub(t0)
		pt.rec.Record(obs.Span{Start: t0, End: t1, Kind: obs.KindAction,
			Socket: int32(pt.socket), Txn: a.TxnID})
	}
	// Read before finish: an action with an RVP is its coordinator's again
	// the moment it arrives. Only RVP-less release messages are recycled.
	release := a.release
	pt.finish(task, a, vote)
	if release {
		pt.freeRel = append(pt.freeRel, a)
	}
}

func (pt *Partition) finish(task *platform.Task, a *Action, vote bool) {
	task.Exec(stats.CompDora, pt.Costs.RVPInstr)
	task.Flush()
	pt.done++
	if a.RVP != nil {
		// Carry the vote back to a coordinator on another socket.
		if ic := pt.pl.IC; ic != nil && a.ReplySocket != pt.socket {
			ic.Transfer(task.P, pt.socket, a.ReplySocket, actionMsgBytes)
		}
		a.RVP.Arrive(vote)
	}
}

// Release asks the partition to free every entity lock txnID holds and
// re-dispatch what was deferred behind them: a priority message nobody
// awaits, charged to the sender's task like any Enqueue. The message comes
// from the partition's free list.
func (pt *Partition) Release(t *platform.Task, txnID uint64) {
	var a *Action
	if n := len(pt.freeRel) - 1; n >= 0 {
		a = pt.freeRel[n]
		pt.freeRel = pt.freeRel[:n]
		a.ResetStamps()
	} else {
		a = &Action{Priority: true, release: true}
	}
	a.TxnID = txnID
	pt.Enqueue(t, a)
}

// ReleaseLocks frees every local lock txnID holds in this partition and
// re-dispatches deferred actions by re-enqueueing them. It runs on the
// partition's own worker: applying a Release message, or from an action
// body that wants the release awaited through its RVP.
func (pt *Partition) ReleaseLocks(task *platform.Task, txnID uint64) {
	// Release in sorted key order: the order decides when deferred actions
	// re-enter the queue, so it must not follow randomized map iteration.
	owned := pt.owned[:0]
	pt.owned = nil // task.Exec below can park a windowed partition's child
	for key, l := range pt.locks {
		if l.owner == txnID {
			owned = append(owned, key)
		}
	}
	slices.SortFunc(owned, Entity.Compare)
	for _, key := range owned {
		l := pt.locks[key]
		task.Exec(stats.CompDora, pt.Costs.LocalLockInstr)
		if len(l.deferred) == 0 {
			delete(pt.locks, key)
			pt.freeLocks = append(pt.freeLocks, l)
			continue
		}
		// Hand the entity to the first deferred action's transaction and
		// re-enqueue every deferred action whose transaction now owns it;
		// others re-defer when dispatched.
		next := l.deferred[0]
		l.owner = next.TxnID
		rest := l.deferred
		// Re-dispatch at the queue head: deferred actions were admitted
		// before anything currently queued.
		for i := len(rest) - 1; i >= 0; i-- {
			d := rest[i]
			pt.reg.remove(d.TxnID, txnID)
			pt.in.PutFront(d)
		}
		clear(rest)
		l.deferred = rest[:0]
	}
	clear(owned)
	pt.owned = owned[:0]
}

// Close shuts the input queue; the worker exits after draining.
func (pt *Partition) Close() { pt.in.Close() }

// DeferredActions reports actions parked on entity locks (diagnostics).
func (pt *Partition) DeferredActions() int {
	n := 0
	for _, l := range pt.locks {
		n += len(l.deferred)
	}
	return n
}
