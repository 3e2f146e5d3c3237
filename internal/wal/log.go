package wal

import (
	"fmt"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Store is the durable log file on the simulated SSD. Both the software log
// manager and the hardware log-insertion path write through a Store, so
// recovery is identical for every engine. Bytes returned by Bytes survive a
// "crash"; anything not yet written here is lost.
//
// A store keeps bytes only for its readers. There are two: core.Checkpoint
// registers every log shard at its checkpoint's start position, because a
// crash replays the log from there, and NewReplicaSet registers the primary
// stores and the replica stores at 0, because the shipper copies every byte
// and failover replays a replica's whole copy. A store with no reader counts
// its length and its durable point, and charges the device for every chunk,
// but holds none of their bytes: a run that never crashes or ships keeps the
// log's length, not its content. Once a reader registers, the store keeps
// every byte from its kept point on; registering below that point is an
// error, as is reading below it.
//
// The kept bytes are a list of segments that are filled in place and never
// moved: a growing log allocates its own size once and copies no byte it
// already holds.
type Store struct {
	dev  *platform.Device
	segs [][]byte // the kept bytes; every segment but the last is full (len == cap)
	kept int      // log position of the first kept byte; n while no reader
	n    int      // bytes written
	read bool     // a reader has registered
}

// Segment sizes: the first segment holds firstSegBytes and each later one
// twice its predecessor, up to maxSegBytes.
const (
	firstSegBytes = 64 << 10
	maxSegBytes   = 1 << 20
)

// NewStore creates an empty durable log on dev, with no reader.
func NewStore(dev *platform.Device) *Store { return &Store{dev: dev} }

// Register records a reader that will ask for the bytes from position from
// on, so the store keeps them. from must lie in [Kept(), Len()]: below the
// kept point the bytes are gone, and a store with no reader keeps nothing,
// so its first reader registers at Len().
func (s *Store) Register(from LSN) error {
	if int(from) < s.kept || int(from) > s.n {
		return fmt.Errorf("wal: a reader at %d on a log that keeps [%d, %d)", from, s.kept, s.n)
	}
	s.read = true
	return nil
}

// Kept returns the log position of the first byte the store holds: where
// Bytes' image starts. It is Len() while the store has no reader.
func (s *Store) Kept() LSN { return LSN(s.kept) }

// Write durably appends chunk, charging one device write of its size. With
// a reader, the chunk fills the tail segment and spills into new ones;
// without one, only its length is counted.
func (s *Store) Write(p *sim.Proc, chunk []byte) {
	if len(chunk) == 0 {
		return
	}
	s.dev.Transfer(p, len(chunk))
	s.n += len(chunk)
	if !s.read {
		s.kept = s.n
		return
	}
	for len(chunk) > 0 {
		last := len(s.segs) - 1
		if last < 0 || len(s.segs[last]) == cap(s.segs[last]) {
			size := firstSegBytes
			if last >= 0 {
				size = min(2*cap(s.segs[last]), maxSegBytes)
			}
			s.segs = append(s.segs, make([]byte, 0, size))
			last++
		}
		seg := s.segs[last]
		k := min(cap(seg)-len(seg), len(chunk))
		s.segs[last] = append(seg, chunk[:k]...)
		chunk = chunk[k:]
	}
}

// Durable returns the LSN up to which the log is durable.
func (s *Store) Durable() LSN { return LSN(s.n) }

// Bytes returns the durable log image, what recovery scans: the kept bytes
// [Kept(), Len()), so the image's first byte is the log's position Kept().
// A store with no reader returns an empty image. Only crash-time code calls
// it (LogSet.Datas, ReplicaSet.CrashImage) and tests: on a store of more
// than one segment it first flattens them into one segment of exact size,
// so the first call copies the log once and later calls copy nothing. A
// later Write opens a new segment and never changes an image already
// returned. Callers must not mutate it.
func (s *Store) Bytes() []byte {
	if len(s.segs) == 0 {
		return nil
	}
	size := s.n - s.kept
	if len(s.segs) > 1 {
		flat := make([]byte, 0, size)
		for _, seg := range s.segs {
			flat = append(flat, seg...)
		}
		clear(s.segs[1:])
		s.segs = append(s.segs[:0], flat)
	}
	return s.segs[0][:size:size]
}

// AppendRange appends the log bytes [from, to) to dst and returns the
// extended slice; Kept() <= from <= to <= Len(), and a range that starts
// below the kept point is an error. The log shipper reads its suffix ranges
// through it, so it walks back from the tail segment.
func (s *Store) AppendRange(dst []byte, from, to int) ([]byte, error) {
	if from < s.kept || from > to || to > s.n {
		return dst, fmt.Errorf("wal: log range [%d, %d) outside the kept [%d, %d)", from, to, s.kept, s.n)
	}
	i, start := len(s.segs), s.n
	for start > from {
		i--
		start -= len(s.segs[i])
	}
	for ; from < to; i++ {
		seg := s.segs[i]
		hi := min(len(seg), to-start)
		dst = append(dst, seg[from-start:hi]...)
		start += len(seg)
		from = start
	}
	return dst, nil
}

// Len returns the durable log size in bytes.
func (s *Store) Len() int { return s.n }

// Appender is the log interface transactions use; the software Manager and
// the hardware log engine both satisfy it. Only the insertion path differs
// between them: both embed a Flusher, the log-sync daemon that moves their
// durable point, so a commit waits the same way on either.
type Appender interface {
	// Append buffers rec, assigns its LSN, and charges the caller's
	// insertion cost. It does not wait for durability. The returned value
	// is the record's durability horizon: once Durable() reaches it, the
	// record is on stable storage (for the software manager that is the
	// byte offset just past the record; the hardware engine returns its
	// record handle, the same offset).
	Append(t *platform.Task, rec *Record) LSN
	// CommitDurable registers done to fire once lsn is durable: one Fire,
	// so a signal armed across several shards counts this one. The caller
	// decides whether to block on it (synchronous commit) or move on (the
	// DORA flusher-notifies-client pattern).
	CommitDurable(lsn LSN, done *sim.Signal)
	// Durable reports the current durable horizon.
	Durable() LSN
	// Stop quiesces the flush daemon once what is pending is durable.
	Stop()
	// ShardStats reports the device syncs issued and the hardware
	// arbitration epochs among them; Backlog, the bytes appended but not
	// yet handed to the device (the telemetry's flush-backlog gauge).
	ShardStats() (syncs, epochs int64)
	Backlog() int
}

// Horizon is a durable point and the commits waiting for it: a Flusher (the
// software manager's group commit, the hardware engine's epoch) and a
// replica set's acknowledged point per shard each keep one. The zero value
// is the point 0 with no waiter.
type Horizon struct {
	at      LSN
	waiters []horizonWaiter
}

type horizonWaiter struct {
	lsn  LSN
	done *sim.Signal
}

// Durable returns the point: every LSN at or below it is durable.
func (h *Horizon) Durable() LSN { return h.at }

// Wait fires done once the point reaches lsn: at once when it already has,
// otherwise from the Advance that gets there.
func (h *Horizon) Wait(lsn LSN, done *sim.Signal) {
	if lsn <= h.at {
		done.Fire()
		return
	}
	h.waiters = append(h.waiters, horizonWaiter{lsn: lsn, done: done})
}

// Advance moves the point to to, if that is further, and fires every waiter
// it reaches, in registration order. A firing signal's callbacks must not
// wait on the same horizon.
func (h *Horizon) Advance(to LSN) {
	if to <= h.at {
		return
	}
	h.at = to
	kept := h.waiters[:0]
	for _, w := range h.waiters {
		if w.lsn <= to {
			w.done.Fire()
		} else {
			kept = append(kept, w)
		}
	}
	h.waiters = kept
}

// Flusher is the log-sync daemon both appenders embed, and the durable point
// it moves: Figure 4 keeps "log sync" in software whichever path inserts
// the records. An appender stages records (Staged, and Kick to ask for a
// pass before the next timer tick) and supplies take, which moves
// everything staged into the batch it is handed and returns it; the
// hardware engine also supplies cross, the batch's trip over its link and
// arbitration unit before the device write. One pass takes one batch,
// crosses it, writes it to the store and advances the durable point to the
// store's length, so a take must be a cut: it collects every byte staged
// before it, and none after, before it parks (it may then charge the
// daemon's core time for the collection). The batch storage alternates
// between two buffers, so a steady stream of passes allocates nothing.
type Flusher struct {
	store    *Store
	interval sim.Duration
	take     func(p *sim.Proc, batch []byte) []byte
	cross    func(p *sim.Proc, batch []byte)

	durable Horizon // the store's length after the last pass
	end     LSN     // the end of the last staged record
	taken   LSN     // the end of the last take's cut
	kicked  bool    // pass now instead of at the next timer tick
	stopped bool
	spare   []byte // the batch storage the next take fills
	syncs   int64
}

// NewFlusher creates the log-sync daemon for store and spawns it on env
// under name. It passes every interval, or at once after a Kick; cross may
// be nil.
func NewFlusher(env *sim.Env, name string, store *Store, interval sim.Duration,
	take func(p *sim.Proc, batch []byte) []byte, cross func(p *sim.Proc, batch []byte)) *Flusher {
	f := &Flusher{store: store, interval: interval, take: take, cross: cross,
		end: store.Durable(), taken: store.Durable()}
	f.durable.Advance(store.Durable())
	env.Spawn(name, f.run)
	return f
}

// Staged records n bytes appended for the next take and returns the
// horizon just past them.
func (f *Flusher) Staged(n int) LSN {
	f.end += LSN(n)
	return f.end
}

// Kick asks for a pass as soon as the daemon is awake instead of at its
// next timer tick.
func (f *Flusher) Kick() { f.kicked = true }

// CommitDurable implements Appender.
func (f *Flusher) CommitDurable(lsn LSN, done *sim.Signal) { f.durable.Wait(lsn, done) }

// Durable implements Appender.
func (f *Flusher) Durable() LSN { return f.durable.Durable() }

// Backlog implements Appender: the bytes staged and not yet taken.
func (f *Flusher) Backlog() int { return int(f.end - f.taken) }

// Syncs returns the number of device writes issued: passes that took a
// non-empty batch.
func (f *Flusher) Syncs() int64 { return f.syncs }

// Stop implements Appender: the daemon stops after the pass that leaves
// nothing staged.
func (f *Flusher) Stop() {
	f.stopped = true
	f.kicked = true
}

func (f *Flusher) run(p *sim.Proc) {
	for {
		// Wait for a kick or the timer, whichever first. The timer is
		// modelled by checking the kick flag after a sleep; a kick arriving
		// mid-sleep is handled on wake.
		if !f.kicked {
			p.Wait(f.interval)
		}
		f.kicked = false
		if f.end > f.taken {
			f.pass(p)
		}
		if f.stopped && f.end == f.taken {
			return
		}
	}
}

func (f *Flusher) pass(p *sim.Proc) {
	// The take fills the spare, and the written batch becomes the next
	// spare once the store has copied it.
	f.taken = f.end
	batch := f.take(p, f.spare[:0])
	f.syncs++
	if f.cross != nil {
		f.cross(p, batch)
	}
	f.store.Write(p, batch)
	f.spare = batch[:0]
	f.durable.Advance(f.store.Durable())
}

// ManagerConfig tunes the software log manager.
type ManagerConfig struct {
	// FlushInterval is the group-commit timer period.
	FlushInterval sim.Duration
	// FlushBytes triggers an early flush once this much is buffered.
	FlushBytes int
	// InsertBaseInstr is the instruction cost of one insertion excluding
	// the copy: LSN arithmetic, buffer bookkeeping, latch handoff. Taken
	// from the Aether/consolidation-array measurements in [7].
	InsertBaseInstr int
	// CopyInstrPerByte is the per-byte cost of the buffer copy.
	CopyInstrPerByte float64
}

// DefaultManagerConfig returns the calibrated software-log costs.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{
		FlushInterval:    30 * sim.Microsecond,
		FlushBytes:       32 << 10,
		InsertBaseInstr:  300,
		CopyInstrPerByte: 0.5,
	}
}

// Manager is the software log: a central buffer protected by a latch, with
// a group-commit flush daemon. Its costs are what Figure 3 charges to "Log
// mgmt": record encode, latch acquisition (contention grows with cores) and
// the buffer copy; flush waits are asynchronous and charged to commit
// latency, not CPU.
type Manager struct {
	*Flusher // the group-commit flush; its take swaps buf
	cfg      ManagerConfig
	latch    *sim.Resource
	buf      []byte

	bufAddr uint64 // timing address of the buffer (cache-modelled copies)
}

// NewManager creates a software log manager writing to store. The flush
// daemon is spawned immediately on pl.Env.
func NewManager(pl *platform.Platform, store *Store, cfg ManagerConfig) *Manager {
	m := &Manager{
		cfg:     cfg,
		latch:   sim.NewResource(pl.Env, "log-latch", 1),
		bufAddr: pl.AllocHost(cfg.FlushBytes * 2),
	}
	m.Flusher = NewFlusher(pl.Env, "log-flusher", store, cfg.FlushInterval, m.take, nil)
	return m
}

// Append implements Appender: encode, latch, copy, release. The insert runs
// as one kernel script (appendOp), so the task's process parks at most once
// for the core time, the latch and the release together.
func (m *Manager) Append(t *platform.Task, rec *Record) LSN {
	op := appendOps.Get(t)
	op.m, op.rec, op.pc = m, rec, 0
	t.RunChain(op)
	op.rec = nil
	return op.end
}

// appendOp is a task's Append in progress, run as kernel continuations: each
// thing the insert does happens at the instant the process would have done
// it one call at a time. It is built when the task first appends.
type appendOp struct {
	m    *Manager
	t    *platform.Task
	rec  *Record
	size int
	end  LSN
	pc   uint8
}

var appendOps = platform.NewLocal(func(t *platform.Task) *appendOp { return &appendOp{t: t} })

// Continue implements sim.Continuation.
func (op *appendOp) Continue(sc *sim.Script) {
	m, t, rec := op.m, op.t, op.rec
	switch op.pc {
	case 0:
		op.pc++
		// Record construction happens outside the latch.
		op.size = rec.EncodedSize()
		t.Exec(stats.CompLog, m.cfg.InsertBaseInstr+int(float64(op.size)*m.cfg.CopyInstrPerByte))
		// The central buffer insert holds the latch for the copy; this is
		// the serialization point the paper's hardware log engine removes.
		// The pending core time and the latch cost one wait together (the
		// flush is empty when the charge reached the burst cap).
		t.Flush()
		sc.Acquire(m.latch)
		sc.Then(op)
	case 1:
		op.pc++
		off := len(m.buf)
		op.end = m.Staged(op.size)
		rec.LSN = op.end - LSN(op.size)
		m.buf = rec.Encode(m.buf)
		t.Access(stats.CompLog, m.bufAddr+uint64(off%m.cfg.FlushBytes), op.size)
		t.Flush()
		sc.Release(m.latch)
		sc.Then(op)
	default:
		if m.Backlog() >= m.cfg.FlushBytes {
			m.Kick()
		}
	}
}

// take hands the flush the central buffer and continues in batch.
func (m *Manager) take(_ *sim.Proc, batch []byte) []byte {
	chunk := m.buf
	m.buf = batch
	return chunk
}

// ShardStats implements Appender: a software log has no arbitration epochs.
func (m *Manager) ShardStats() (syncs, epochs int64) { return m.Syncs(), 0 }
