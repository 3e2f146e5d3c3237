// Package logengine models the paper's §5.4 hardware log-insertion engine.
// Worker cores append records to core-private staging buffers — no central
// latch, a fraction of the software insert cost. A software log-sync daemon
// (Figure 4 keeps "log sync & recovery" on the CPU) periodically, or when a
// commit kicks it, collects all staging buffers, ships them over the
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
// LSNs returned by Append are durability horizons measured in staged bytes
// (monotone, byte-denominated like the software manager's, though the
// arbitration unit assigns the final intra-epoch byte order when it
// collects an epoch). An epoch collects every staging buffer atomically, so
// by the time an epoch is durable, every record appended before the
// collection — in particular everything a committing transaction staged
// from any core — is durable with it: the engine's durable horizon is its
// last epoch's handle, which equals its store's byte length, and commits
// wait on it through a wal.Horizon exactly as on the software manager.
// Recovery reads the Store's byte stream and compares horizons against its
// length, exactly as for a software shard; the store keeps that stream
// only from where a reader registered (a checkpoint's start, or 0 under
// replication), and a store with no reader counts the engine's bytes
// without holding them.
type Engine struct {
	cfg   Config
	pl    *platform.Platform
	store *wal.Store
	unit  *platform.HWUnit
	link  *platform.Device // host->FPGA->host crossing for epoch batches
	home  *platform.Core   // core the log-sync daemon runs on

	staging   [][]byte // per-core staged record bytes (global core index)
	stageAddr []uint64
	counts    []int // records per staging buffer

	handle wal.LSN     // horizon of the last staged record, in bytes
	epoch  wal.Horizon // the last durable epoch's handle and the commits waiting past it

	kicked  bool // sync now instead of at the next timer tick
	stopped bool

	spareBatch []byte // retired epoch batch, reused for the next epoch
	appends    int64
	syncs      int64
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
		store:   store,
		unit:    pl.NewHWUnit(name, 4),
		link:    link,
		home:    home,
		staging: make([][]byte, len(pl.Cores)),
		counts:  make([]int, len(pl.Cores)),
		handle:  store.Durable(),
	}
	e.epoch.Advance(store.Durable())
	for i := 0; i < len(pl.Cores); i++ {
		e.stageAddr = append(e.stageAddr, pl.AllocHost(64<<10))
	}
	pl.Env.Spawn(name+"-sync", func(p *sim.Proc) { e.syncLoop(p) })
	return e
}

// Append implements wal.Appender: a latch-free staged insert on the
// caller's core. Commit records kick an immediate sync so group-commit
// latency stays bounded.
func (e *Engine) Append(t *platform.Task, rec *wal.Record) wal.LSN {
	e.appends++
	core := t.Core().ID
	size := rec.EncodedSize()
	t.Exec(stats.CompLog, e.cfg.AppendInstr+int(float64(size)*e.cfg.CopyInstrPerByte))
	t.Access(stats.CompLog, e.stageAddr[core]+uint64(len(e.staging[core])%(64<<10)), size)
	e.handle += wal.LSN(size)
	rec.LSN = e.handle
	e.staging[core] = rec.Encode(e.staging[core])
	e.counts[core]++
	if rec.Type == wal.RecCommit || rec.Type == wal.RecAbort || len(e.staging[core]) >= 16<<10 {
		e.kicked = true
	}
	return e.handle
}

// CommitDurable implements wal.Appender against staged-byte horizons.
func (e *Engine) CommitDurable(h wal.LSN, done *sim.Signal) { e.epoch.Wait(h, done) }

// Durable implements wal.Appender (staged-byte watermark).
func (e *Engine) Durable() wal.LSN { return e.epoch.Durable() }

// Appends returns the number of records staged.
func (e *Engine) Appends() int64 { return e.appends }

// Syncs returns the number of collection epochs flushed.
func (e *Engine) Syncs() int64 { return e.syncs }

// ShardStats implements wal.Appender: every hardware sync is one
// arbitration epoch.
func (e *Engine) ShardStats() (syncs, epochs int64) { return e.syncs, e.syncs }

// Backlog implements wal.Appender: the staged bytes live inside the model
// until their epoch, so the gauge reads none.
func (e *Engine) Backlog() int { return 0 }

// Stop implements wal.Appender: the sync daemon stops after draining staged
// records.
func (e *Engine) Stop() {
	e.stopped = true
	e.kicked = true
}

func (e *Engine) syncLoop(p *sim.Proc) {
	// The daemon runs on the engine's home core: Figure 4's "log sync" box
	// (the socket's last core for a shard). One task for its life: every
	// epoch ends flushed.
	task := e.pl.NewTask(p, e.home, nil)
	for {
		if !e.kicked {
			p.Wait(e.cfg.SyncInterval)
		}
		e.kicked = false
		e.syncOnce(task)
		if e.stopped && e.pending() == 0 {
			return
		}
	}
}

func (e *Engine) pending() int {
	total := 0
	for _, s := range e.staging {
		total += len(s)
	}
	return total
}

// syncOnce collects one epoch: all staging buffers, one link push to the
// unit for arbitration, then the ordered batch to the SSD.
func (e *Engine) syncOnce(task *platform.Task) {
	p := task.P
	// The staging buffers and the epoch batch are reused across epochs:
	// the batch append copies staged bytes out synchronously, so the
	// truncated staging arrays are free for new appends even while the
	// epoch's device write is still in flight.
	batch := e.spareBatch[:0]
	e.spareBatch = nil
	records := 0
	for i := range e.staging {
		if len(e.staging[i]) == 0 {
			continue
		}
		task.Exec(stats.CompLog, e.cfg.SyncCPUInstr)
		batch = append(batch, e.staging[i]...)
		records += e.counts[i]
		e.staging[i] = e.staging[i][:0]
		e.counts[i] = 0
	}
	epochHandle := e.handle // everything staged before this point is in the batch
	task.Flush()
	if len(batch) == 0 {
		e.spareBatch = batch[:0]
		return
	}
	e.syncs++
	sc := p.Script()
	// Host -> FPGA: the staged records cross the link once, batched.
	e.link.AddTransfer(sc, len(batch))
	// Arbitration: the unit merges the per-core streams into final order.
	e.unit.AddWork(sc, records*e.cfg.ArbCyclesPerRecord)
	// FPGA -> host -> SSD: the ordered epoch lands in the log file.
	e.link.AddTransfer(sc, len(batch))
	sc.Run()
	e.store.Write(p, batch)
	e.spareBatch = batch[:0]
	e.epoch.Advance(epochHandle)
}
