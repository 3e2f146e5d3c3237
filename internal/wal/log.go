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
// its length, its durable point and its writes, and charges the device for
// every chunk, but holds none of their bytes: a run that never crashes or
// ships keeps the log's length, not its content. Once a reader registers,
// the store keeps every byte from its kept point on; registering below that
// point is an error, as is reading below it.
//
// The kept bytes are a list of segments that are filled in place and never
// moved: a growing log allocates its own size once and copies no byte it
// already holds.
type Store struct {
	dev    *platform.Device
	segs   [][]byte // the kept bytes; every segment but the last is full (len == cap)
	kept   int      // log position of the first kept byte; n while no reader
	n      int      // bytes written
	writes int64
	read   bool // a reader has registered
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
	s.writes++
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

// Writes returns how many device writes (flushes/epochs) landed here.
func (s *Store) Writes() int64 { return s.writes }

// Device returns the device this store writes to.
func (s *Store) Device() *platform.Device { return s.dev }

// Appender is the log interface transactions use; the software Manager and
// the hardware log engine both satisfy it.
type Appender interface {
	// Append buffers rec, assigns its LSN, and charges the caller's
	// insertion cost. It does not wait for durability. The returned value
	// is the record's durability horizon: once Durable() reaches it, the
	// record is on stable storage (for the software manager that is the
	// byte offset just past the record; the hardware engine returns its
	// record handle).
	Append(t *platform.Task, rec *Record) LSN
	// CommitDurable registers done to fire once lsn is durable. The
	// caller decides whether to block on it (synchronous commit) or move
	// on (the DORA flusher-notifies-client pattern).
	CommitDurable(lsn LSN, done *sim.Signal)
	// Durable reports the current durable horizon.
	Durable() LSN
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
	cfg   ManagerConfig
	store *Store
	latch *sim.Resource
	buf   []byte
	base  LSN // LSN of buf[0]

	bufAddr uint64 // timing address of the buffer (cache-modelled copies)

	waiters []commitWaiter
	kick    *sim.Queue[struct{}]
	spare   []byte // retired flush buffer, reused for the next fill
	stopped bool

	appends int64
	flushes int64
}

type commitWaiter struct {
	lsn  LSN
	done *sim.Signal
}

// NewManager creates a software log manager writing to store. The flush
// daemon is spawned immediately on pl.Env.
func NewManager(pl *platform.Platform, store *Store, cfg ManagerConfig) *Manager {
	m := &Manager{
		cfg:     cfg,
		store:   store,
		latch:   sim.NewResource(pl.Env, "log-latch", 1),
		base:    store.Durable(),
		bufAddr: pl.AllocHost(cfg.FlushBytes * 2),
		kick:    sim.NewQueue[struct{}](pl.Env, "log-kick", 1),
	}
	pl.Env.Spawn("log-flusher", func(p *sim.Proc) { m.flusherLoop(p) })
	return m
}

// Append implements Appender: encode, latch, copy, release.
func (m *Manager) Append(t *platform.Task, rec *Record) LSN {
	m.appends++
	// Record construction happens outside the latch.
	size := rec.EncodedSize()
	t.Exec(stats.CompLog, m.cfg.InsertBaseInstr+int(float64(size)*m.cfg.CopyInstrPerByte))
	// The central buffer insert holds the latch for the copy; this is the
	// serialization point the paper's hardware log engine removes. The
	// pending core time and the latch cost one park together.
	sc := t.Script()
	sc.Acquire(m.latch)
	sc.Run()
	lsn := m.base + LSN(len(m.buf))
	rec.LSN = lsn
	m.buf = rec.Encode(m.buf)
	t.Access(stats.CompLog, m.bufAddr+uint64(int(lsn-m.base)%m.cfg.FlushBytes), size)
	t.Flush()
	m.latch.Release()
	if len(m.buf) >= m.cfg.FlushBytes {
		m.kick.TryPut(struct{}{})
	}
	return lsn + LSN(size)
}

// CommitDurable implements Appender.
func (m *Manager) CommitDurable(lsn LSN, done *sim.Signal) {
	if m.store.Durable() >= lsn {
		done.Fire(nil)
		return
	}
	m.waiters = append(m.waiters, commitWaiter{lsn: lsn, done: done})
}

// Durable implements Appender.
func (m *Manager) Durable() LSN { return m.store.Durable() }

// Appends returns the number of records appended.
func (m *Manager) Appends() int64 { return m.appends }

// Flushes returns the number of device flushes issued.
func (m *Manager) Flushes() int64 { return m.flushes }

// LatchWait returns cumulative time processes queued on the log latch.
func (m *Manager) LatchWait() sim.Duration { return m.latch.WaitTime() }

// ShardStats reports the software shard's sync count; a software log has no
// arbitration epochs.
func (m *Manager) ShardStats() (syncs, epochs int64) { return m.flushes, 0 }

// Backlog returns the bytes appended but not yet handed to the device — the
// flush-backlog gauge the telemetry sampler reads.
func (m *Manager) Backlog() int { return len(m.buf) }

// Stop quiesces the flush daemon after the current pass; pending bytes are
// flushed first.
func (m *Manager) Stop() {
	m.stopped = true
	if !m.kick.Closed() {
		m.kick.TryPut(struct{}{})
	}
}

func (m *Manager) flusherLoop(p *sim.Proc) {
	for {
		// Wait for a kick or the group-commit timer, whichever first. The
		// timer is modelled by polling the kick queue with TryGet after a
		// sleep; a kick arriving mid-sleep is handled on wake.
		if m.kick.Len() == 0 {
			p.Wait(m.cfg.FlushInterval)
		}
		m.kick.TryGet()
		m.flushOnce(p)
		if m.stopped && len(m.buf) == 0 {
			return
		}
	}
}

func (m *Manager) flushOnce(p *sim.Proc) {
	if len(m.buf) == 0 {
		return
	}
	// Double-buffer: appends landing while the device write is in flight
	// go to the spare, and the flushed buffer becomes the next spare once
	// the store has copied it. Steady-state flush cycles reuse two buffers
	// instead of reallocating the insert buffer every interval.
	chunk := m.buf
	m.buf = m.spare[:0]
	m.spare = nil
	m.base += LSN(len(chunk))
	m.flushes++
	m.store.Write(p, chunk)
	m.spare = chunk[:0]
	m.wakeWaiters()
}

func (m *Manager) wakeWaiters() {
	durable := m.store.Durable()
	kept := m.waiters[:0]
	for _, w := range m.waiters {
		if w.lsn <= durable {
			w.done.Fire(nil)
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = kept
}
