package platform

import (
	"fmt"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Platform is one instantiated machine: one or more CPU sockets — each a
// set of cores with private L1/L2 and a socket-shared LLC — joined by a
// modeled interconnect when there is more than one, plus the five Figure 2
// devices and any number of FPGA hardware units. All simulated state lives
// in one Env; a Platform is single-run and never shared across
// environments.
type Platform struct {
	Env *sim.Env
	Cfg *Config

	// Cores is the flat list across all sockets: socket 0's cores first,
	// then socket 1's, and so on. Core i lives on socket i / Cfg.Cores.
	Cores   []*Core
	Sockets []*Socket
	// IC is the socket interconnect; nil on a single-socket platform, so
	// the one-socket machine pays exactly the paper's costs and nothing
	// more.
	IC *Interconnect

	// The Figure 2 components (the FPGA complex attaches to socket 0).
	HostDRAM *Device // CPU-attached DDR3 (uncached/DMA path)
	SGDRAM   *Device // FPGA-attached scatter-gather DDR3
	PCIe     *Device // host<->FPGA link (latency is one-way)
	Disk     *Device // SAS array behind the FPGA
	SSD      *Device // SSD behind the CPU (log device)

	// Sharded-log devices (Cfg.ShardedLog() only): one log SSD and one
	// FPGA log link per socket, indexed by socket. Entry 0 aliases SSD and
	// PCIe — socket 0 keeps exactly the paper's devices — so a non-sharded
	// machine has len-1 slices and pays for nothing new.
	logSSDs  []*Device
	logLinks []*Device

	// Replication devices (Cfg.Replicated() only): the primary's one egress
	// NIC toward the replica machines, and each replica machine's log
	// devices, indexed [replica][shard]. Both stay nil with replication off,
	// so an unreplicated machine builds and pays for nothing new.
	ReplLink *Device
	replSSDs [][]*Device

	units []*HWUnit

	hostBrk uint64
	fpgaBrk uint64
}

// Socket is one CPU package: a block of cores sharing one LLC. Instruction
// and DRAM-fill counters live here, so telemetry reads them per socket;
// platform-wide reads sum the sockets.
type Socket struct {
	ID    int
	Cores []*Core
	l3    *cacheLevel

	instructions  int64
	dramLineBytes int64 // cached-path DRAM traffic (LLC miss fills)
}

// Address-space bases; the top bit distinguishes FPGA-side memory.
const (
	hostBase = uint64(0x0000_1000_0000_0000)
	fpgaBase = uint64(0x8000_0000_0000_0000)
)

// New builds a platform on env from cfg. cfg must not be modified afterward.
func New(env *sim.Env, cfg *Config) *Platform {
	pl := &Platform{
		Env: env,
		Cfg: cfg,

		HostDRAM: NewDevice(env, "host-dram", cfg.HostDRAMBWGBps, cfg.HostDRAMLat, cfg.HostDRAMChans),
		SGDRAM:   NewDevice(env, "sg-dram", cfg.SGDRAMBWGBps, cfg.SGDRAMLat, cfg.SGDRAMChans),
		PCIe:     NewDevice(env, "pcie", cfg.PCIeBWGBps, cfg.PCIeLat, 1),
		Disk:     newHoldingDevice(env, "sas-disk", cfg.DiskBWGBps, cfg.DiskLat, cfg.DiskChans),
		SSD:      newHoldingDevice(env, "ssd", cfg.SSDBWGBps, cfg.SSDLat, cfg.SSDChans),

		hostBrk: hostBase,
		fpgaBrk: fpgaBase,
	}
	nSock := cfg.NumSockets()
	for s := 0; s < nSock; s++ {
		sock := &Socket{ID: s, l3: newCacheLevel(cfg.L3Size, cfg.L3Assoc, cfg.LineSize)}
		for c := 0; c < cfg.Cores; c++ {
			i := len(pl.Cores)
			core := &Core{
				ID:   i,
				plat: pl,
				sock: sock,
				res:  sim.NewResource(env, fmt.Sprintf("core%d", i), 1),
				l1:   newCacheLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
				l2:   newCacheLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
			}
			sock.Cores = append(sock.Cores, core)
			pl.Cores = append(pl.Cores, core)
		}
		pl.Sockets = append(pl.Sockets, sock)
	}
	if nSock > 1 {
		pl.IC = newInterconnect(env, cfg, nSock)
	}
	pl.logSSDs = []*Device{pl.SSD}
	pl.logLinks = []*Device{pl.PCIe}
	if cfg.ShardedLog() {
		for s := 1; s < nSock; s++ {
			pl.logSSDs = append(pl.logSSDs,
				newHoldingDevice(env, fmt.Sprintf("ssd%d", s), cfg.SSDBWGBps, cfg.SSDLat, cfg.SSDChans))
			pl.logLinks = append(pl.logLinks,
				NewDevice(env, fmt.Sprintf("log-link%d", s), cfg.PCIeBWGBps, cfg.PCIeLat, 1))
		}
	}
	if cfg.Replicated() {
		pl.ReplLink = NewDevice(env, "repl-link", cfg.ReplLinkGBps, cfg.ReplLinkLat, 1)
		for r := 0; r < cfg.Replicas; r++ {
			row := make([]*Device, len(pl.logSSDs))
			for s := range row {
				row[s] = newHoldingDevice(env, fmt.Sprintf("repl%d-ssd%d", r, s),
					cfg.SSDBWGBps, cfg.SSDLat, cfg.SSDChans)
			}
			pl.replSSDs = append(pl.replSSDs, row)
		}
	}
	return pl
}

// ReplSSD returns the given replica machine's log device for the given
// shard. Replica machines mirror the primary's log-device layout: one
// device per shard.
func (pl *Platform) ReplSSD(replica, shard int) *Device { return pl.replSSDs[replica][shard] }

// LogSSD returns the log device of the given socket. On a non-sharded
// machine every socket shares the one Figure 2 SSD.
func (pl *Platform) LogSSD(socket int) *Device {
	if len(pl.logSSDs) == 1 {
		return pl.SSD
	}
	return pl.logSSDs[socket]
}

// LogLink returns the host<->FPGA link the given socket's hardware log
// shard crosses. Socket 0 (and every socket of a non-sharded machine) uses
// the Figure 2 PCIe link; sharded sockets get their own.
func (pl *Platform) LogLink(socket int) *Device {
	if len(pl.logLinks) == 1 {
		return pl.PCIe
	}
	return pl.logLinks[socket]
}

// NumSockets returns the socket count of the built machine.
func (pl *Platform) NumSockets() int { return len(pl.Sockets) }

// newHoldingDevice builds a Device whose latency occupies the channel
// (seek-style devices), by folding the latency into per-transfer hold time.
func newHoldingDevice(env *sim.Env, name string, gbps float64, latency sim.Duration, channels int) *Device {
	d := NewDevice(env, name, gbps, 0, channels)
	d.holdLat = latency
	return d
}

// AllocHost reserves size bytes of host address space (timing-model
// addresses only; data lives in Go structures).
func (pl *Platform) AllocHost(size int) uint64 {
	a := pl.hostBrk
	pl.hostBrk += uint64(size+63) &^ 63
	return a
}

// AllocFPGA reserves size bytes of FPGA-side (SG-DRAM) address space.
func (pl *Platform) AllocFPGA(size int) uint64 {
	a := pl.fpgaBrk
	pl.fpgaBrk += uint64(size+63) &^ 63
	return a
}

// IsFPGAAddr reports whether addr is in FPGA-side memory.
func IsFPGAAddr(addr uint64) bool { return addr >= fpgaBase }

// Instructions returns total instructions retired across all cores.
func (pl *Platform) Instructions() int64 {
	var n int64
	for _, sock := range pl.Sockets {
		n += sock.instructions
	}
	return n
}

// dramLineTotal sums cached-path DRAM fill traffic across sockets.
func (pl *Platform) dramLineTotal() int64 {
	var n int64
	for _, sock := range pl.Sockets {
		n += sock.dramLineBytes
	}
	return n
}

// CacheStats aggregates hit/miss counts across the hierarchy (LLC counts
// sum over all sockets' LLCs).
func (pl *Platform) CacheStats() CacheStats {
	var s CacheStats
	for _, c := range pl.Cores {
		s.L1Hits += c.l1.hits
		s.L1Misses += c.l1.misses
		s.L2Hits += c.l2.hits
		s.L2Misses += c.l2.misses
	}
	for _, sock := range pl.Sockets {
		s.L3Hits += sock.l3.hits
		s.L3Misses += sock.l3.misses
	}
	return s
}

// SocketCounters returns one socket's cumulative hardware counters:
// instructions retired, cached-path DRAM fill bytes, and LLC hits/misses.
func (pl *Platform) SocketCounters(socket int) (instructions, dramBytes, llcHits, llcMisses int64) {
	sock := pl.Sockets[socket]
	return sock.instructions, sock.dramLineBytes, sock.l3.hits, sock.l3.misses
}

// EgressBusy returns the cumulative serialization busy time of one socket's
// interconnect egress port, or 0 on a single-socket machine (no
// interconnect is built).
func (pl *Platform) EgressBusy(socket int) sim.Duration {
	if pl.IC == nil {
		return 0
	}
	return pl.IC.ports[socket].BusyTime()
}

// Core is one general-purpose CPU core: a capacity-1 resource plus private
// L1/L2 caches, belonging to one socket. Engine code does not use Core
// directly; it charges through a Task bound to a core.
type Core struct {
	ID   int
	plat *Platform
	sock *Socket
	res  *sim.Resource
	l1   *cacheLevel
	l2   *cacheLevel
}

// SocketID returns the socket this core belongs to.
func (c *Core) SocketID() int { return c.sock.ID }

// access charges one memory reference through the cache hierarchy and
// returns its latency. It also accounts DRAM fill traffic for the energy
// model.
func (c *Core) access(addr uint64, size int) sim.Duration {
	cfg := c.plat.Cfg
	var d sim.Duration
	first := addr >> c.l1.lineShift
	last := (addr + uint64(size) - 1) >> c.l1.lineShift
	if size <= 0 {
		last = first
	}
	for line := first; line <= last; line++ {
		switch {
		case c.l1.access(line):
			d += cfg.L1Lat
		case c.l2.access(line):
			d += cfg.L2Lat
		case c.sock.l3.access(line):
			d += cfg.L3Lat
		default:
			d += cfg.DRAMMissLat
			c.sock.dramLineBytes += int64(cfg.LineSize)
		}
	}
	return d
}

// Task is an execution context bound to a core: the handle engine code uses
// to charge instructions, memory references and raw time, attributed to a
// Figure 3 component. Charges accumulate locally and are applied to the
// core when Flush is called (or when the accumulated burst exceeds
// maxBurst); engine code must Flush before blocking on queues, locks or
// hardware completions so simulated time stays causal. A Flush is one park
// at most, however long the core is contended, and Script folds it into
// the park of whatever device or unit steps follow.
type Task struct {
	P    *sim.Proc
	BD   *stats.Breakdown
	core *Core

	pending sim.Duration
	locals  [maxLocals]any // the task's Local values, by Local index
}

// Local is a per-task variable of type T for the packages above platform:
// every task holds its own, built the first time Get asks that task for it.
// Blocking chains (RunChain) keep their continuation state in one, so a
// chain's state is built once per task, which is once per process for the
// process's life, and never per operation: a process runs one chain at a
// time, and a chain that runs inside another keeps its state in the outer
// one's.
type Local[T any] struct {
	i     int
	build func(t *Task) *T
}

// maxLocals is how many Locals a task has room for: one per blocking chain
// that keeps its state per task.
const maxLocals = 4

// locals counts the Locals declared so far.
var locals int

// NewLocal declares a per-task variable whose value build makes. Call it
// only to initialize a package-level variable.
func NewLocal[T any](build func(t *Task) *T) Local[T] {
	if locals == maxLocals {
		panic("platform: more than maxLocals per-task variables")
	}
	locals++
	return Local[T]{i: locals - 1, build: build}
}

// Get returns t's value of l, building it on first use.
func (l Local[T]) Get(t *Task) *T {
	if v, ok := t.locals[l.i].(*T); ok {
		return v
	}
	v := l.build(t)
	t.locals[l.i] = v
	return v
}

// maxBurst caps how much charged time may accumulate before the task is
// forced onto its core; it approximates an OS scheduling quantum and keeps
// core contention realistic without per-charge context switches.
const maxBurst = 2 * sim.Microsecond

// NewTask binds process p to core and attributes its charges to bd.
func (pl *Platform) NewTask(p *sim.Proc, core *Core, bd *stats.Breakdown) *Task {
	return &Task{P: p, BD: bd, core: core}
}

// Reset starts the task afresh, as a NewTask on the same process and core
// would be: a charge accumulated since the last Flush is dropped, never
// served by the core (the Breakdown keeps it). Owners that keep one Task for
// many units of work call it between units.
func (t *Task) Reset() { t.pending = 0 }

// Core returns the core this task charges.
func (t *Task) Core() *Core { return t.core }

// Exec charges n instructions of CPU work to component comp.
func (t *Task) Exec(comp stats.Component, n int) {
	d := t.core.plat.Cfg.InstrTime(n)
	t.core.sock.instructions += int64(n)
	t.charge(comp, d)
}

// Access charges one memory reference of size bytes at addr through the
// core's cache hierarchy, attributed to comp.
func (t *Task) Access(comp stats.Component, addr uint64, size int) {
	t.charge(comp, t.core.access(addr, size))
}

func (t *Task) charge(comp stats.Component, d sim.Duration) {
	if t.BD != nil {
		t.BD.Add(comp, d)
	}
	t.pending += d
	if t.pending >= maxBurst {
		t.Flush()
	}
}

// Flush applies accumulated charges: the task occupies its core for the
// pending duration. Call before any blocking operation and at action
// boundaries. Inside a continuation of the task's process (sim.Script) it
// never blocks: it appends the core time to the running script, which serves
// it after the continuation returns, and the continuation goes on behind it.
// The burst cap flushes the same way, so a charge made in a continuation
// never parks, and its cut points are where the process would have parked.
func (t *Task) Flush() {
	if t.pending == 0 {
		return
	}
	if sc := t.P.Continuing(); sc != nil {
		t.addFlush(sc)
		return
	}
	t.Script().Run()
}

// Script starts a kernel script on t.P that begins with the flush (nothing,
// when no charge is pending), for callers that go on to block on a device,
// a unit or the fabric: they append those steps and Run, and the core time
// and what follows it cost one park together.
func (t *Task) Script() *sim.Script {
	sc := t.P.Script()
	t.addFlush(sc)
	return sc
}

// RunChain runs a blocking chain as one kernel script of the task's
// process: c is the chain's state, whose Continue does what the chain does
// at each instant and appends the steps it waits on, and c behind them,
// until the chain is over (see sim.Script). However often the chain waits,
// the process parks at most once.
func (t *Task) RunChain(c sim.Continuation) {
	sc := t.P.Script()
	sc.Then(c)
	sc.Run()
}

// addFlush appends the pending core time to sc.
func (t *Task) addFlush(sc *sim.Script) {
	if t.pending != 0 {
		sc.Use(t.core.res, t.pending)
		t.pending = 0
	}
}

// HWUnit is an FPGA engine: a pipeline with a fixed number of concurrent
// slots running at the fabric clock. Units register with the platform for
// energy accounting.
type HWUnit struct {
	Name   string
	plat   *Platform
	slots  *sim.Resource
	nSlots int
}

// NewHWUnit configures an FPGA engine with the given pipeline parallelism.
func (pl *Platform) NewHWUnit(name string, slots int) *HWUnit {
	u := &HWUnit{
		Name:   name,
		plat:   pl,
		slots:  sim.NewResource(pl.Env, name, slots),
		nSlots: slots,
	}
	pl.units = append(pl.units, u)
	return u
}

// Work occupies one pipeline slot for the given number of fabric cycles.
func (u *HWUnit) Work(p *sim.Proc, cycles int) {
	sc := p.Script()
	u.AddWork(sc, cycles)
	sc.Run()
}

// AddWork appends Work to a script the caller is building.
func (u *HWUnit) AddWork(sc *sim.Script, cycles int) {
	sc.Use(u.slots, sim.Duration(cycles)*u.plat.Cfg.FPGACycle())
}

// AddAcquire appends a claim on one pipeline slot, held across whatever
// steps follow (multi-step occupancy); pair with AddRelease.
func (u *HWUnit) AddAcquire(sc *sim.Script) { sc.Acquire(u.slots) }

// AddRelease appends the release of a slot claimed with AddAcquire.
func (u *HWUnit) AddRelease(sc *sim.Script) { sc.Release(u.slots) }

// Utilization returns the busy fraction of the unit's pipeline.
func (u *HWUnit) Utilization() float64 { return u.slots.Utilization() }
