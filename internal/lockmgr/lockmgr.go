// Package lockmgr implements the hierarchical two-phase-locking manager
// used by the conventional shared-everything baseline: table-level
// intention locks, row-level S/X locks with upgrades, FIFO queues with
// compatible-prefix granting, and waits-for-graph deadlock detection at
// block time (the victim receives ErrDeadlock and the engine aborts it).
// DORA eliminates this component entirely — that is the point of §5.1.
package lockmgr

import (
	"errors"
	"fmt"
	"strconv"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes: intention-shared and intention-exclusive at table level,
// shared and exclusive at row level.
const (
	IS Mode = iota + 1
	IX
	S
	X
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ErrDeadlock is returned to a requester whose wait would close a cycle;
// the engine must abort and retry the transaction.
var ErrDeadlock = errors.New("lockmgr: deadlock detected")

// Compatible reports whether two modes can be held concurrently by
// different transactions.
func Compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case X:
		return false
	}
	return false
}

// stronger reports whether a subsumes b for conversion purposes.
func stronger(a, b Mode) bool {
	if a == b {
		return true
	}
	switch {
	case a == X:
		return true
	case a == IX && b == IS:
		return true
	case a == S && b == IS:
		return true
	}
	return false
}

// Config tunes the manager's CPU costs.
type Config struct {
	// AcquireInstr is the hash-probe + latch + grant bookkeeping cost.
	AcquireInstr int
	// ReleaseInstr is the per-lock release cost.
	ReleaseInstr int
	// LatchStripes is the number of lock-table latch stripes.
	LatchStripes int
}

// DefaultConfig returns calibrated Shore-MT-like costs.
func DefaultConfig() Config {
	return Config{AcquireInstr: 220, ReleaseInstr: 80, LatchStripes: 16}
}

// waiter is one queued request. Waiters come from the manager's free list:
// the blocked process takes one, parks on its signal, and hands it back —
// signal re-armed — once its Await has returned, which is after promote,
// which fired it, is done with it.
type waiter struct {
	txn     uint64
	mode    Mode
	sig     *sim.Signal
	upgrade bool
	next    *waiter // behind it in its lock's queue, or in the free list
}

// holder is one transaction's granted mode on a lock.
type holder struct {
	txn  uint64
	mode Mode
}

// inlineHolders is how many holders a lock state keeps in its own storage.
// Over a TPC-C run on the conventional engine 99.92 % of the states that
// leave the table had at most four holders at once (98.2 % one); the rest,
// table intention locks mostly, spill to a heap slice and keep it.
const inlineHolders = 4

// lockState is one lock somebody holds or awaits. Its holders are in no
// particular order (a release moves the last one into the gap): grantable,
// promote and wouldDeadlock each ask a yes/no question over all of them, so
// their order never reaches the simulation. Its waiters are a list through
// the waiters themselves, first to be granted at head: promote's Fire order
// reaches the simulation.
type lockState struct {
	name    Name
	hash    uint64     // hashName(name)
	next    *lockState // the next state in the same table slot, or in the free list
	granted []holder   // a view of inline until a holder past it spills
	head    *waiter    // the wait queue: FIFO, upgrades ahead of fresh requests
	tail    *waiter
	inline  [inlineHolders]holder
}

// tableSlots is the lock table's size, in the host table and in the timing
// model alike: a name's state hangs off the slot whose address Acquire
// charges.
const tableSlots = 1 << 14

// Manager is the lock table.
type Manager struct {
	cfg     Config
	env     *sim.Env
	table   []*lockState            // slot hash%tableSlots chains the states hashing there
	holds   map[uint64][]*lockState // txn -> locks it holds, in grant order, for ReleaseAll
	waiting map[uint64]*lockState   // txn -> lock it is blocked on
	latches []*sim.Resource
	addr    uint64

	// Free lists and scratch space: lock states (with their holder storage)
	// and hold lists churn once per lock and per transaction and waiters
	// once per blocked acquire, so steady-state acquire/release cycles reuse
	// their storage instead of reallocating it. States and waiters chain
	// through their own next fields, so freeing one appends to no slice.
	freeStates  *lockState
	freeHolds   [][]*lockState
	freeWaiters *waiter
	dfsSeen     map[uint64]bool
	dfsBlocked  []uint64
}

// New creates an empty lock manager.
func New(pl *platform.Platform, cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg,
		env:     pl.Env,
		table:   make([]*lockState, tableSlots),
		holds:   make(map[uint64][]*lockState),
		waiting: make(map[uint64]*lockState),
		dfsSeen: make(map[uint64]bool),
		addr:    pl.AllocHost(tableSlots * 64),
	}
	for i := 0; i < cfg.LatchStripes; i++ {
		m.latches = append(m.latches, sim.NewResource(pl.Env, fmt.Sprintf("lock-latch-%d", i), 1))
	}
	return m
}

// Name identifies one lock: a table, or one row of a table by its primary
// key. It is a comparable value, built by RowLock and TableLock without
// allocating for any key storage.Key holds inline; the lock table finds a
// name's state by its hash and tells colliding names apart with ==.
type Name struct {
	storage.Key      // the row's primary key; empty for a table
	kind        byte // 'r' for a row, 't' for a table
	table       uint16
}

// RowLock names the lock of the row of table with the given primary key.
func RowLock(table uint16, key []byte) Name {
	return Name{Key: storage.KeyOf(key), kind: 'r', table: table}
}

// TableLock names a table-level lock.
func TableLock(table uint16) Name { return Name{kind: 't', table: table} }

// head appends the part of the name's text form that precedes the key:
// "t<table>" for a table, "r<table>:" for a row.
func (n Name) head(dst []byte) []byte {
	dst = append(dst, n.kind)
	dst = strconv.AppendUint(dst, uint64(n.table), 10)
	if n.kind == 'r' {
		dst = append(dst, ':')
	}
	return dst
}

// String renders the name's text form, "t<table>" or "r<table>:<key>": the
// bytes lock names were before they became values.
func (n Name) String() string {
	return string(n.head(nil)) + string(n.Bytes())
}

// hashName is FNV-1a over the name's text form. The lock table's timing
// address and the latch stripe are taken from it, so it must not change with
// the name's representation.
func hashName(n Name) uint64 {
	var buf [8]byte // kind, at most five digits, ':'
	h := fnv1a(1469598103934665603, n.head(buf[:0]))
	return fnv1a(h, n.Bytes())
}

func fnv1a(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// Acquire takes name in mode for txn, blocking until granted. It returns
// ErrDeadlock when waiting would close a cycle; the caller must abort.
// Re-acquiring a held lock in the same or weaker mode is free; requesting a
// stronger mode converts (upgrades) it. It runs Step as one kernel script,
// so the task's process parks at most once, queueing included.
func (m *Manager) Acquire(t *platform.Task, txn uint64, name Name, mode Mode) error {
	c := calls.Get(t)
	c.m, c.releasing, c.req = m, false, Request{Txn: txn, Name: name, Mode: mode}
	t.RunChain(c)
	return c.req.Err
}

// Request is one lock acquisition in progress (Step). It begins from the
// value with Txn, Name and Mode set and the rest zero; Err is its result
// once Step is done.
type Request struct {
	Txn  uint64
	Name Name
	Mode Mode
	Err  error

	pc uint8
	h  uint64  // hashName(Name)
	w  *waiter // the queued request, while it waits
}

// Step runs acquisition q on t from inside a continuation of t's process
// (sim.Script): the probe's instructions and hash-table access, the stripe
// latch, the grant, refusal or enqueue, and after a wait the waiter's
// return. Each happens at the instant Acquire's process would have done it.
// It returns false once it has appended kernel steps that must run before it
// can go on (core time, the latch, the grant's signal, a charge's cut): the
// caller calls it again, with the same q, from a continuation behind them.
// It returns true when the lock is granted or refused (q.Err).
func (m *Manager) Step(sc *sim.Script, t *platform.Task, q *Request) (done bool) {
	switch q.pc {
	case 0:
		q.pc++
		t.Exec(stats.CompXct, m.cfg.AcquireInstr)
		if sc.Pending() {
			return false
		}
		fallthrough
	case 1:
		q.pc++
		q.h = hashName(q.Name)
		t.Access(stats.CompXct, m.addr+(q.h%tableSlots)*64, 16)
		t.Flush() // empty when the access reached the burst cap
		sc.Acquire(m.latch(q.h))
		return false
	case 2:
		q.pc++
		return m.decide(sc, t, q)
	}
	// The grant's Fire woke the request: promote, which fired it, is done
	// with the waiter.
	w := q.w
	w.sig.Reset()
	w.next, m.freeWaiters = m.freeWaiters, w
	q.w = nil
	delete(m.waiting, q.Txn)
	return true
}

// decide grants, refuses or queues q, holding its stripe latch, and
// releases the latch.
func (m *Manager) decide(sc *sim.Script, t *platform.Task, q *Request) (done bool) {
	txn, mode := q.Txn, q.Mode
	latch := m.latch(q.h)
	ls := m.state(q.h, q.Name)
	i := ls.holderOf(txn)
	if i >= 0 && stronger(ls.granted[i].mode, mode) {
		latch.Release()
		return true
	}
	upgrade := i >= 0
	if grantable(ls, txn, mode, upgrade) {
		m.grant(ls, txn, mode, upgrade)
		latch.Release()
		return true
	}
	// Must wait: check for a deadlock cycle before enqueueing.
	if m.wouldDeadlock(txn, ls, mode, upgrade) {
		latch.Release()
		q.Err = ErrDeadlock
		return true
	}
	w := m.freeWaiters
	if w != nil {
		m.freeWaiters = w.next
	} else {
		w = &waiter{sig: sim.NewSignal(m.env)}
	}
	w.txn, w.mode, w.upgrade = txn, mode, upgrade
	ls.enqueue(w)
	m.waiting[txn] = ls
	latch.Release()
	q.w = w
	sc.Await(w.sig) // only promote fires it: a queued request is always granted
	return false
}

// latch returns the lock-table latch stripe of a name's hash.
func (m *Manager) latch(h uint64) *sim.Resource {
	return m.latches[h%uint64(len(m.latches))]
}

// call is a task's blocking Acquire or ReleaseAll in progress, and its
// continuation. It is built when the task first takes a lock.
type call struct {
	m         *Manager
	t         *platform.Task
	req       Request
	releasing bool // a ReleaseAll; the rest is the release loop's state
	held      []*lockState
	i         int
	latched   bool // held[i]'s latch is queued: the release goes on under it
}

var calls = platform.NewLocal(func(t *platform.Task) *call { return &call{t: t} })

// Continue implements sim.Continuation.
func (c *call) Continue(sc *sim.Script) {
	var done bool
	if c.releasing {
		done = c.m.stepRelease(sc, c)
	} else {
		done = c.m.Step(sc, c.t, &c.req)
	}
	if !done {
		sc.Then(c)
	}
}

// state returns name's lock state, chaining a fresh one into its slot when
// nobody holds or awaits the lock.
func (m *Manager) state(h uint64, name Name) *lockState {
	slot := &m.table[h%tableSlots]
	for ls := *slot; ls != nil; ls = ls.next {
		if ls.hash == h && ls.name == name {
			return ls
		}
	}
	ls := m.freeStates
	if ls != nil {
		m.freeStates = ls.next
	} else {
		ls = new(lockState)
		ls.granted = ls.inline[:0]
	}
	ls.name, ls.hash, ls.next = name, h, *slot
	*slot = ls
	return ls
}

// free unchains a state nobody holds or awaits and returns it, with its
// holder storage, to the free list.
func (m *Manager) free(ls *lockState) {
	p := &m.table[ls.hash%tableSlots]
	for *p != ls {
		p = &(*p).next
	}
	*p = ls.next
	ls.name = Name{} // drop a spilled key
	ls.next, m.freeStates = m.freeStates, ls
}

// enqueue queues w: an upgrade at the head, ahead of every request queued
// before it, a fresh request at the tail.
func (ls *lockState) enqueue(w *waiter) {
	switch {
	case ls.head == nil:
		w.next, ls.head, ls.tail = nil, w, w
	case w.upgrade:
		w.next, ls.head = ls.head, w
	default:
		w.next, ls.tail.next, ls.tail = nil, w, w
	}
}

// holderOf returns the index of txn's entry in ls.granted, or -1.
func (ls *lockState) holderOf(txn uint64) int {
	for i, h := range ls.granted {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// admits reports whether every holder of ls but txn is compatible with mode.
func (ls *lockState) admits(txn uint64, mode Mode) bool {
	for _, h := range ls.granted {
		if h.txn != txn && !Compatible(mode, h.mode) {
			return false
		}
	}
	return true
}

// grantable reports whether txn can hold mode on ls right now. Fresh
// requests also respect the queue (no barging past waiters).
func grantable(ls *lockState, txn uint64, mode Mode, upgrade bool) bool {
	return ls.admits(txn, mode) && (upgrade || ls.head == nil)
}

func (m *Manager) grant(ls *lockState, txn uint64, mode Mode, upgrade bool) {
	if upgrade {
		ls.granted[ls.holderOf(txn)].mode = mode
		return
	}
	ls.granted = append(ls.granted, holder{txn, mode})
	held, ok := m.holds[txn]
	if !ok {
		if n := len(m.freeHolds); n > 0 {
			held = m.freeHolds[n-1]
			m.freeHolds = m.freeHolds[:n-1]
		}
	}
	m.holds[txn] = append(held, ls)
}

// wouldDeadlock checks whether txn blocking on ls closes a waits-for cycle.
func (m *Manager) wouldDeadlock(txn uint64, ls *lockState, mode Mode, upgrade bool) bool {
	// Blockers: incompatible current holders plus queued waiters (which
	// we would wait behind unless upgrading).
	clear(m.dfsSeen)
	visited := m.dfsSeen
	blocked := m.dfsBlocked[:0]
	defer func() { m.dfsBlocked = blocked[:0] }()
	for _, h := range ls.granted {
		if h.txn != txn && !Compatible(mode, h.mode) {
			blocked = append(blocked, h.txn)
		}
	}
	if !upgrade {
		for w := ls.head; w != nil; w = w.next {
			if w.txn != txn {
				blocked = append(blocked, w.txn)
			}
		}
	}
	var dfs func(id uint64) bool
	dfs = func(id uint64) bool {
		if id == txn {
			return true
		}
		if visited[id] {
			return false
		}
		visited[id] = true
		wls, isWaiting := m.waiting[id]
		if !isWaiting {
			return false
		}
		var wmode Mode
		var wupg, found bool
		for w := wls.head; w != nil; w = w.next {
			if w.txn == id {
				wmode, wupg, found = w.mode, w.upgrade, true
				break
			}
		}
		if !found {
			// Already granted (wake pending): no longer blocks anyone.
			return false
		}
		for _, h := range wls.granted {
			if h.txn != id && !Compatible(wmode, h.mode) && dfs(h.txn) {
				return true
			}
		}
		if !wupg {
			for w := wls.head; w != nil; w = w.next {
				if w.txn != id && dfs(w.txn) {
					return true
				}
			}
		}
		return false
	}
	for _, b := range blocked {
		if dfs(b) {
			return true
		}
	}
	return false
}

// ReleaseAll drops every lock txn holds (end of transaction under strict
// 2PL) and grants newly compatible waiters in FIFO order. The loop runs as
// one kernel script, so the task's process parks at most once for all of
// the latches it takes.
func (m *Manager) ReleaseAll(t *platform.Task, txn uint64) {
	c := calls.Get(t)
	c.m, c.releasing, c.i, c.latched = m, true, 0, false
	c.held = m.holds[txn]
	delete(m.holds, txn)
	c.req = Request{Txn: txn}
	t.RunChain(c)
	if c.held != nil {
		m.freeHolds = append(m.freeHolds, c.held[:0])
	}
	c.held = nil
}

// stepRelease runs ReleaseAll's loop from inside a continuation, as Step
// runs an acquisition: per held lock the release's instructions, the stripe
// latch, and under it the holder's removal, the promotion of waiters and
// the state's return to the free list.
func (m *Manager) stepRelease(sc *sim.Script, c *call) (done bool) {
	t := c.t
	for ; c.i < len(c.held); c.i++ {
		ls := c.held[c.i]
		latch := m.latch(ls.hash)
		if !c.latched {
			// After a charge that reached the burst cap the flush is
			// empty: the latch queues behind the core time the cap did.
			c.latched = true
			t.Exec(stats.CompXct, m.cfg.ReleaseInstr)
			t.Flush()
			sc.Acquire(latch)
			return false
		}
		c.latched = false
		i, last := ls.holderOf(c.req.Txn), len(ls.granted)-1
		ls.granted[i] = ls.granted[last]
		ls.granted = ls.granted[:last]
		m.promote(ls)
		if len(ls.granted) == 0 && ls.head == nil {
			m.free(ls)
		}
		latch.Release()
	}
	return true
}

// promote grants the longest compatible prefix of the wait queue.
func (m *Manager) promote(ls *lockState) {
	for w := ls.head; w != nil && ls.admits(w.txn, w.mode); w = ls.head {
		ls.head = w.next
		m.grant(ls, w.txn, w.mode, w.upgrade)
		w.sig.Fire()
	}
}

// CurWaiters returns the number of transactions currently blocked waiting
// for a lock — an instantaneous gauge for the telemetry sampler.
func (m *Manager) CurWaiters() int { return len(m.waiting) }
