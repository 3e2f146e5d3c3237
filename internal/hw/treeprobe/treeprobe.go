// Package treeprobe models the paper's §5.3 hardware B+Tree probe engine: a
// pipelined unit on the FPGA with direct (cache-bypassing) access to
// scatter-gather DRAM. Requests arrive asynchronously over PCIe; the unit
// walks the tree one node per memory round trip, overlapping many probes;
// the "load-compare-branch" comparator work costs a few fabric cycles per
// node. The trees it walks are fully resident in SG-DRAM (the overlay never
// evicts), so a probe always completes; concurrency control, SMOs and space
// allocation stay in software, exactly as the paper prescribes.
package treeprobe

import (
	"bionicdb/internal/btree"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// Config tunes the engine.
type Config struct {
	// Window is the number of outstanding probe requests the unit tracks
	// (its MSHR-like request table).
	Window int
	// VisitCycles is the comparator pipeline occupancy per node visit, in
	// FPGA fabric cycles. With the HC-2's 150 MHz fabric and 400 ns
	// SG-DRAM, 6 cycles makes the unit saturate at roughly a dozen
	// outstanding probes — the paper's §5.3 estimate.
	VisitCycles int
	// ReqBytes/RespBytes size the PCIe messages.
	ReqBytes, RespBytes int
	// CPUIssueInstr/CPUCompleteInstr are the host-side marshalling costs.
	CPUIssueInstr, CPUCompleteInstr int
}

// DefaultConfig returns the calibrated engine parameters.
func DefaultConfig() Config {
	return Config{
		Window:           64,
		VisitCycles:      6,
		ReqBytes:         64,
		RespBytes:        64,
		CPUIssueInstr:    80,
		CPUCompleteInstr: 60,
	}
}

// Engine is one hardware tree-probe unit.
type Engine struct {
	cfg    Config
	pl     *platform.Platform
	window *platform.HWUnit // request-table slots (held per probe)
	pipe   *platform.HWUnit // comparator pipeline (held per node visit)

	probes int64
	traces btree.TracePool
}

// New creates a probe engine on pl.
func New(pl *platform.Platform, cfg Config) *Engine {
	return &Engine{
		cfg:    cfg,
		pl:     pl,
		window: pl.NewHWUnit("treeprobe-window", cfg.Window),
		pipe:   pl.NewHWUnit("treeprobe-pipe", 1),
	}
}

// Result reports a completed probe.
type Result struct {
	Val   []byte
	Found bool
}

// Probe looks key up in tree through the hardware unit. The calling task
// flushes its CPU work and blocks for the PCIe round trip and the walk;
// because the core is released, sibling actions in the partition window
// keep it busy — the asynchrony §5.2 calls for. Host-side costs are charged
// to the Btree component (it is still index time, just cheaper).
//
// The caller parks twice at most: for the request leg, and for the walk plus
// the completion leg. The tree is read between the two because that is the
// instant the unit starts walking it.
func (e *Engine) Probe(t *platform.Task, tree *btree.Tree, key []byte) Result {
	// Host side: marshal and send the request descriptor.
	t.Exec(stats.CompBtree, e.cfg.CPUIssueInstr)
	sc := t.Script()
	e.pl.PCIe.AddTransfer(sc, e.cfg.ReqBytes)
	sc.Run()

	// Hardware side: walk the real tree, charging SG-DRAM and pipeline
	// time per visited node.
	tr := e.traces.Get()
	val, found := tree.Get(key, tr)
	e.AddWalk(sc, tr)
	e.traces.Put(tr)

	// Completion descriptor back to the host.
	e.pl.PCIe.AddTransfer(sc, e.cfg.RespBytes+len(val))
	sc.Run()
	t.Exec(stats.CompBtree, e.cfg.CPUCompleteInstr)
	return Result{Val: val, Found: found}
}

// AddWalk appends the hardware time of a traced traversal to sc, the script
// of the requesting process, behind whatever request leg the caller has put
// there. Probe and ProbeLocal use it; an FPGA-side requester (the overlay's
// posted-write completion process: no PCIe, no host CPU) calls it with its
// own legs. It runs nothing: the caller appends its completion leg
// and parks once for the walk and that leg.
func (e *Engine) AddWalk(sc *sim.Script, tr *btree.Trace) {
	sc.Add(&e.probes, 1)
	e.window.AddAcquire(sc)
	for _, v := range tr.Visits {
		// Dependent pointer chase: SG-DRAM round trip for the node's
		// examined bytes, then the comparator pipeline.
		e.pl.SGDRAM.AddTransfer(sc, v.Bytes)
		e.pipe.AddWork(sc, e.cfg.VisitCycles)
	}
	e.window.AddRelease(sc)
}

// ProbeLocal runs a probe as seen from inside the FPGA — no PCIe crossing
// and no host CPU cost. This is the measurement §5.3 makes when it argues
// the unit "saturates using only perhaps a dozen outstanding requests":
// the window is counted at the unit's request table, with the walk latency
// (height × SG-DRAM round trips) against the comparator pipeline's issue
// rate setting the knee.
func (e *Engine) ProbeLocal(p *sim.Proc, tree *btree.Tree, key []byte) Result {
	tr := e.traces.Get()
	val, found := tree.Get(key, tr)
	sc := p.Script()
	e.AddWalk(sc, tr)
	sc.Run()
	e.traces.Put(tr)
	return Result{Val: val, Found: found}
}

// Utilization reports the comparator pipeline's busy fraction — the
// saturation metric of experiment C1.
func (e *Engine) Utilization() float64 { return e.pipe.Utilization() }

// Saturation is experiment C1's microbenchmark: window streams, each issuing
// probesPerStream probes back to back through ProbeLocal, against a
// rows-entry tree on the HC-2 platform, with keys drawn uniformly from seed.
// It returns the probes completed per simulated second and the comparator
// pipeline's utilization; throughput flattens once window passes the knee.
func Saturation(window, rows, probesPerStream int, seed uint64) (perSec, util float64) {
	env := sim.NewEnv()
	defer env.Close()
	pl := platform.New(env, platform.HC2())
	eng := New(pl, DefaultConfig())
	tree := btree.New(btree.Config{
		AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocFPGA(8 << 10) },
	})
	var loadKey storage.Arena // the tree copies the keys it keeps
	for i := 0; i < rows; i++ {
		loadKey.Reset()
		tree.Put(loadKey.Uint64Key(uint64(i)), []byte("row"), nil)
	}
	r := sim.NewRand(seed)
	done := 0
	for w := 0; w < window; w++ {
		keys := make([][]byte, probesPerStream)
		for i := range keys {
			keys[i] = storage.Uint64Key(uint64(r.Intn(rows)))
		}
		env.Spawn("stream", func(p *sim.Proc) {
			for _, k := range keys {
				eng.ProbeLocal(p, tree, k)
				done++
			}
		})
	}
	if err := env.Run(); err != nil {
		panic(err) // no process can fail: a probe always completes
	}
	return sim.PerSecond(int64(done), sim.Duration(env.Now())), eng.Utilization()
}
