package htap

import (
	"fmt"

	"bionicdb/internal/columnar"
	"bionicdb/internal/core"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/hw/scanner"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/wal"
)

// refreshInstrPerRow is the host refresh path's CPU cost per re-extracted
// row: decode the row image and write the projected values.
const refreshInstrPerRow = 40

// overlayEngine is the engine surface the merge-fed maintenance path needs:
// one of core.Engine's two optional capabilities, since only an engine with
// the overlay unit has a merge path to feed the projections from.
type overlayEngine interface {
	Overlay() *overlay.Store
}

// projTable is one live projection: the spec plus its columnar table.
type projTable struct {
	spec ProjSpec
	col  *columnar.Table
	vals []uint64 // Upsert scratch, reused across rows
}

// apply upserts one row image into the projection and returns the projected
// bytes written.
func (pt *projTable) apply(key, val []byte) int {
	for i, c := range pt.spec.Cols {
		pt.vals[i] = c.Extract(key, val)
	}
	pt.col.Upsert(pt.spec.Key(key, val), pt.vals...)
	return 8 * (1 + len(pt.spec.Cols))
}

// newProjTable builds an empty projection for spec on pl.
func newProjTable(pl *platform.Platform, spec ProjSpec) *projTable {
	cols := make([]*columnar.Column, 0, 1+len(spec.Cols))
	cols = append(cols, columnar.U64Col("key"))
	for _, c := range spec.Cols {
		cols = append(cols, columnar.U64Col(c.Name))
	}
	return &projTable{
		spec: spec,
		col:  columnar.NewTable(pl, spec.Name, cols...),
		vals: make([]uint64, len(spec.Cols)),
	}
}

// Run is one run's attached analytical subsystem: the projection mirror,
// its maintenance path, and the scan clients. It implements
// core.AnalyticsRun.
type Run struct {
	m   *Mixed
	env *sim.Env
	eng core.Engine
	pl  *platform.Platform
	log *wal.LogSet
	r   *sim.Rand

	hw       bool              // merge-fed projections + hardware scanners
	scanners []*scanner.Engine // per socket, hw mode only
	tables   []*projTable      // spec order
	byName   map[string]*projTable

	// abd is the analytical half's CPU breakdown, kept separate from the
	// engine's Figure 3 breakdown so OLTP component shares stay comparable
	// across HTAP and pure-OLTP runs.
	abd stats.Breakdown

	// Freshness stamp: when the projections were last brought up to date
	// and the durable vector they reflect.
	snapTime  sim.Time
	snapVec   []wal.LSN
	prevStamp sim.Time
	pendBytes int // projected bytes applied since the last stamp (hw path)

	st      stats.ScanStats
	stopped bool

	// rec, when non-nil, records one span per analytical scan pass
	// (SetRecorder; host-side only).
	rec *obs.ShardRec
}

// SetRecorder implements core.AnalyticsRun: the flight recorder's ring for
// the shard the scan clients run on (nil when untraced). Attaching it
// changes no simulated behavior.
func (mr *Run) SetRecorder(rec *obs.ShardRec) { mr.rec = rec }

// Attach implements core.Analytics: build the projections from the
// populated row store, wire the maintenance path, and remember the run for
// post-run inspection.
func (m *Mixed) Attach(env *sim.Env, eng core.Engine, r *sim.Rand) core.AnalyticsRun {
	mr := &Run{
		m: m, env: env, eng: eng, pl: eng.Platform(), log: eng.LogSet(), r: r,
		byName: make(map[string]*projTable),
	}
	var ov *overlay.Store
	if oe, ok := eng.(overlayEngine); ok {
		ov = oe.Overlay()
	}
	mr.hw = ov != nil

	for _, spec := range m.specs {
		pt := newProjTable(mr.pl, spec)
		// Initial full build from the freshly-populated row store: like
		// population itself, structural and untimed.
		eng.ScanRaw(spec.Table, nil, nil, func(k, v []byte) bool {
			pt.apply(k, v)
			return true
		})
		mr.tables = append(mr.tables, pt)
		mr.byName[spec.Name] = pt
	}

	if mr.hw {
		// Merge-fed path: the overlay's bulk-merge daemon applies every
		// dirty row to the projection as it merges, and the post-pass hook
		// charges the columnar write-back and stamps freshness — the scans'
		// staleness bound is the merge interval plus one pass.
		for _, pt := range mr.tables {
			pt := pt
			ov.TableByID(pt.spec.Table).MergeFn = func(key, val []byte) {
				mr.pendBytes += pt.apply(key, val)
			}
		}
		ov.AfterMerge = mr.afterMerge
		// Per-socket scanner engines: the scan units scale with the
		// machine; SG-DRAM and PCIe stay the shared devices they are.
		for s := 0; s < mr.pl.Cfg.NumSockets(); s++ {
			mr.scanners = append(mr.scanners, scanner.New(mr.pl, m.params.ScanConfig))
		}
	} else {
		// Host path: an ETL-style refresh daemon re-extracts the projected
		// tables every interval on a core the OLTP side also wants — the
		// conventional machine's HTAP tax.
		env.Spawn("htap-refresh", func(p *sim.Proc) {
			for {
				p.Wait(m.params.RefreshInterval)
				mr.refreshOnce(p)
				if mr.stopped {
					return
				}
			}
		})
	}
	mr.stampFresh(env.Now())
	m.lastRun = mr
	return mr
}

// stampFresh records that the projections now reflect the row store as of
// now, and the durable vector they cover.
func (mr *Run) stampFresh(now sim.Time) {
	if gap := now.Sub(mr.prevStamp); gap > mr.st.GapMax && mr.st.Refreshes > 0 {
		mr.st.GapMax = gap
	}
	mr.prevStamp = now
	mr.snapTime = now
	mr.snapVec = mr.log.DurableVector()
	mr.st.Refreshes++
}

// afterMerge runs at the end of every overlay merge pass: charge the
// columnar write-back for the applied projection bytes, then stamp.
func (mr *Run) afterMerge(p *sim.Proc) {
	if mr.pendBytes > 0 {
		mr.pl.SGDRAM.Transfer(p, mr.pendBytes)
		mr.pendBytes = 0
	}
	mr.stampFresh(p.Now())
}

// refreshOnce is one host-path refresh pass: re-extract every projected
// table from the row store, charging CPU per row and one host-memory stream
// for the projection footprint. The pass runs no transaction attempt, so it
// holds no row view across a park: apply copies each row's projected values
// inside the untimed scan, and only then does the pass charge and park.
// After that park the trees may have reused the rows' bytes
// (btree.Reclaimer).
func (mr *Run) refreshOnce(p *sim.Proc) {
	task := mr.pl.NewTask(p, mr.pl.Cores[0], &mr.abd)
	rows, bytes := 0, 0
	for _, pt := range mr.tables {
		mr.eng.ScanRaw(pt.spec.Table, nil, nil, func(k, v []byte) bool {
			bytes += pt.apply(k, v)
			rows++
			return true
		})
	}
	task.Exec(stats.CompOther, rows*refreshInstrPerRow)
	sc := task.Script()
	mr.pl.HostDRAM.AddTransfer(sc, bytes)
	sc.Run()
	mr.st.RefreshRows += int64(rows)
	mr.stampFresh(p.Now())
}

// vecLE reports a <= b elementwise. Vectors of different lengths (never the
// case within one run) compare false.
func vecLE(a, b []wal.LSN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Start implements core.AnalyticsRun: spawn the closed-loop scan clients,
// spread across sockets (and, within a socket, across cores from the top —
// the OLTP terminals fill cores from the bottom).
func (mr *Run) Start(stop *bool) {
	nSock := mr.pl.Cfg.NumSockets()
	coresPer := mr.pl.Cfg.Cores
	n := mr.m.params.ScanTerminalsPerSocket * nSock
	for i := 0; i < n; i++ {
		i := i
		cr := mr.r.Split()
		mr.env.Spawn(fmt.Sprintf("analyst%d", i), func(p *sim.Proc) {
			socket := i % nSock
			core := mr.pl.Sockets[socket].Cores[coresPer-1-(i/nSock)%coresPer]
			for !*stop {
				mr.scanOnce(p, core, cr, socket)
			}
		})
	}
}

// scanOnce runs one analytical query: observe freshness at scan start, then
// scan the projection through the platform-appropriate path.
func (mr *Run) scanOnce(p *sim.Proc, core *platform.Core, cr *sim.Rand, socket int) {
	q := mr.m.queries[cr.Intn(len(mr.m.queries))]
	pt := mr.byName[q.Proj]
	pred, cols := q.Make(cr)

	// Freshness observation: the snapshot the scan will see, against the
	// machine's durable point right now.
	stale := p.Now().Sub(mr.snapTime)
	mr.st.StaleSum += stale
	if stale > mr.st.StaleMax {
		mr.st.StaleMax = stale
	}
	durable := mr.log.DurableVector()
	if !vecLE(mr.snapVec, durable) {
		mr.st.SnapViolations++
	}
	var lag int64
	for i := range durable {
		if i < len(mr.snapVec) {
			lag += int64(durable[i] - mr.snapVec[i])
		}
	}
	if lag > mr.st.LagBytesMax {
		mr.st.LagBytesMax = lag
	}

	task := mr.pl.NewTask(p, core, &mr.abd)
	start := p.Now()
	rows := pt.col.Rows()
	var out []int
	if mr.hw {
		out = mr.scanners[socket].Scan(task, pt.col, pred, cols)
	} else {
		out = scanner.HostScan(task, mr.pl, pt.col, pred, cols, mr.m.params.ScanConfig)
	}
	task.Flush()
	mr.st.Scans++
	mr.st.Rows += int64(rows)
	mr.st.RowsOut += int64(len(out))
	mr.st.Bytes += int64(rows) * int64(pt.col.RowWidth())
	mr.st.ScanTime += p.Now().Sub(start)
	if end := p.Now(); end > start {
		mr.rec.Record(obs.Span{Start: start, End: end, Kind: obs.KindScan,
			Socket: int32(socket)})
	}
}

// Snapshot implements core.AnalyticsRun.
func (mr *Run) Snapshot() stats.ScanStats { return mr.st }

// Close implements core.AnalyticsRun: stop the refresh daemon (it performs
// one final pass on its next tick, mirroring the overlay merge daemon's
// final drain).
func (mr *Run) Close() { mr.stopped = true }
