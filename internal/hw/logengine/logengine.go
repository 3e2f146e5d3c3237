// Package logengine models the paper's §5.4 hardware log-insertion engine.
// Worker cores append records to core-private staging buffers — no central
// latch, a fraction of the software insert cost. A software log-sync daemon
// (Figure 4 keeps "log sync & recovery" on the CPU; it is the wal.Flusher
// the software log manager runs too) periodically, or when a commit kicks
// it, collects all staging buffers, ships them over the
// engine's link to the FPGA where the unit arbitrates them into a single
// ordered stream, and writes the ordered batch to the CPU-side SSD.
// Per-socket aggregation and hardware arbitration replace the lock-free
// consolidation machinery of software logs [7].
//
// On a sharded-log machine each socket runs its own engine shard (NewShard):
// its own arbitration unit, staging set, sync daemon, log link and SSD —
// which removes the socket-0 funnel a single engine imposes on a scaled-out
// machine.
package logengine

import (
	"fmt"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

// Config tunes the engine.
type Config struct {
	// AppendInstr is the CPU cost of one staged append (thread-local, no
	// latch): descriptor write plus record encode bookkeeping.
	AppendInstr int
	// CopyInstrPerByte is the per-byte staging copy cost.
	CopyInstrPerByte float64
	// ArbCyclesPerRecord is the FPGA arbitration cost per record.
	ArbCyclesPerRecord int
	// SyncInterval is the periodic log-sync cadence; commits kick an
	// immediate sync as well.
	SyncInterval sim.Duration
	// SyncCPUInstr is the daemon's per-collection CPU cost per core buffer.
	SyncCPUInstr int
}

// DefaultConfig returns the calibrated engine parameters.
func DefaultConfig() Config {
	return Config{
		AppendInstr:        70,
		CopyInstrPerByte:   0.25,
		ArbCyclesPerRecord: 2,
		SyncInterval:       30 * sim.Microsecond,
		SyncCPUInstr:       120,
	}
}

// Engine implements wal.Appender over the hardware path.
//
// LSNs returned by Append are durability horizons measured in staged bytes,
// byte-denominated like the software manager's (the arbitration unit
// assigns the final byte order within an epoch). An epoch collects every
// staging buffer in one cut, before the daemon spends core time on it, so
// once the epoch is durable every record staged before it — everything a
// committing transaction staged from any core — is durable too: the
// engine's durable point is its store's length, moved by the same
// wal.Flusher as the software manager's, and recovery reads the store
// exactly as for a software shard.
type Engine struct {
	*wal.Flusher // the log-sync daemon; its take collects an epoch
	cfg          Config
	pl           *platform.Platform
	unit         *platform.HWUnit
	link         *platform.Device // host->FPGA->host crossing for epoch batches
	home         *platform.Core   // core the log-sync daemon runs on
	task         platform.Task    // the daemon's, on home, bound to its process at the first epoch

	staging   [][]byte // per-core staged record bytes (global core index)
	stageAddr []uint64
	counts    []int // records per staging buffer

	records int // the collected epoch's, for its arbitration
}

// New creates the whole-machine hardware log engine — one arbitration unit
// and one sync daemon for every core, the paper's single-socket
// configuration — and spawns its log-sync daemon.
func New(pl *platform.Platform, store *wal.Store, cfg Config) *Engine {
	return newEngine(pl, store, cfg, "log-insert", pl.Cores[len(pl.Cores)-1], pl.PCIe)
}

// NewShard creates one socket's engine shard: its own arbitration unit,
// its sync daemon on the socket's last core, and the socket's log link and
// store. Any core may stage into it (a coordinator on another socket
// writing a commit record to this shard), but in steady state only the
// socket's own cores do.
func NewShard(pl *platform.Platform, store *wal.Store, cfg Config, socket int) *Engine {
	sock := pl.Sockets[socket]
	return newEngine(pl, store, cfg, fmt.Sprintf("log-insert-s%d", socket),
		sock.Cores[len(sock.Cores)-1], pl.LogLink(socket))
}

func newEngine(pl *platform.Platform, store *wal.Store, cfg Config, name string, home *platform.Core, link *platform.Device) *Engine {
	e := &Engine{
		cfg:     cfg,
		pl:      pl,
		unit:    pl.NewHWUnit(name, 4),
		link:    link,
		home:    home,
		staging: make([][]byte, len(pl.Cores)),
		counts:  make([]int, len(pl.Cores)),
	}
	for i := 0; i < len(pl.Cores); i++ {
		e.stageAddr = append(e.stageAddr, pl.AllocHost(64<<10))
	}
	e.Flusher = wal.NewFlusher(pl.Env, name+"-sync", store, cfg.SyncInterval, e.take, e.cross)
	return e
}

// Append implements wal.Appender: a latch-free staged insert on the
// caller's core. Commit records kick an immediate sync so group-commit
// latency stays bounded.
func (e *Engine) Append(t *platform.Task, rec *wal.Record) wal.LSN {
	core := t.Core().ID
	size := rec.EncodedSize()
	t.Exec(stats.CompLog, e.cfg.AppendInstr+int(float64(size)*e.cfg.CopyInstrPerByte))
	t.Access(stats.CompLog, e.stageAddr[core]+uint64(len(e.staging[core])%(64<<10)), size)
	h := e.Staged(size)
	rec.LSN = h
	e.staging[core] = rec.Encode(e.staging[core])
	e.counts[core]++
	if rec.Type == wal.RecCommit || rec.Type == wal.RecAbort || len(e.staging[core]) >= 16<<10 {
		e.Kick()
	}
	return h
}

// ShardStats implements wal.Appender: every hardware sync is one
// arbitration epoch.
func (e *Engine) ShardStats() (syncs, epochs int64) { return e.Syncs(), e.Syncs() }

// take collects one epoch: every staging buffer, emptied into batch, then
// the daemon's core time on its home core (Figure 4's "log sync" box). The
// staging arrays are reused, since the batch append copies their bytes out.
// The collection is a cut because it comes first: a charge may park the
// daemon and let other cores stage into buffers already emptied.
func (e *Engine) take(p *sim.Proc, batch []byte) []byte {
	buffers := 0
	for i, staged := range e.staging {
		if len(staged) == 0 {
			continue
		}
		batch = append(batch, staged...)
		e.records += e.counts[i]
		e.staging[i] = staged[:0]
		e.counts[i] = 0
		buffers++
	}
	if e.task.P == nil {
		e.task = *e.pl.NewTask(p, e.home, nil)
	}
	for ; buffers > 0; buffers-- {
		e.task.Exec(stats.CompLog, e.cfg.SyncCPUInstr)
	}
	e.task.Flush()
	return batch
}

// cross ships the epoch to the unit for arbitration and back.
func (e *Engine) cross(p *sim.Proc, batch []byte) {
	sc := p.Script()
	// Host -> FPGA: the staged records cross the link once, batched.
	e.link.AddTransfer(sc, len(batch))
	// Arbitration: the unit merges the per-core streams into final order.
	e.unit.AddWork(sc, e.records*e.cfg.ArbCyclesPerRecord)
	// FPGA -> host: the ordered epoch comes back for the device write.
	e.link.AddTransfer(sc, len(batch))
	sc.Run()
	e.records = 0
}
