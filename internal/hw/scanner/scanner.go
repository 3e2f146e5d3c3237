// Package scanner models the Netezza-style "enhanced scanner" of Figure 4:
// selection and projection evaluated on the FPGA against the columnar base
// at SG-DRAM streaming bandwidth, so only qualifying projected bytes cross
// the PCIe bus. The package also provides the software comparison point —
// a CPU scan that must pull every row over PCIe first — which is the
// bandwidth-pressure contrast the paper draws.
package scanner

import (
	"bionicdb/internal/columnar"
	"bionicdb/internal/platform"
	"bionicdb/internal/stats"
)

// Config tunes the scanner.
type Config struct {
	// Slots is the number of concurrent scan streams.
	Slots int
	// CyclesPerValue is the predicate/projection pipeline occupancy per
	// scanned value (the fabric evaluates one value per cycle per lane;
	// >1 models narrower lanes).
	CyclesPerValue int
	// CPUPerRowInstr is the software-scan per-row evaluation cost.
	CPUPerRowInstr int
}

// DefaultConfig returns the calibrated parameters.
func DefaultConfig() Config {
	return Config{Slots: 2, CyclesPerValue: 1, CPUPerRowInstr: 24}
}

// Engine is the hardware scanner.
type Engine struct {
	cfg  Config
	pl   *platform.Platform
	unit *platform.HWUnit

	rowsIn  int64
	rowsOut int64
}

// New creates a scanner engine on pl.
func New(pl *platform.Platform, cfg Config) *Engine {
	return &Engine{cfg: cfg, pl: pl, unit: pl.NewHWUnit("scanner", cfg.Slots)}
}

// Pred is a row predicate over a columnar table position.
type Pred func(t *columnar.Table, pos int) bool

// Scan filters table with pred on the FPGA and returns the qualifying row
// positions. Timing: the scanned column bytes stream from SG-DRAM, the
// unit spends CyclesPerValue per row, and only the projected bytes of
// qualifying rows (projCols) cross PCIe. The calling task is blocked but
// off-core for the duration.
func (e *Engine) Scan(t *platform.Task, table *columnar.Table, pred Pred, projCols []string) []int {
	t.Exec(stats.CompOther, 200) // descriptor setup
	sc := t.Script()
	e.pl.PCIe.AddTransfer(sc, 64) // scan descriptor
	sc.Run()

	var out []int
	rows := table.Rows()
	e.rowsIn += int64(rows)

	// Stream the predicate columns from SG-DRAM. We charge the full
	// column footprint: the scanner reads at sequential bandwidth.
	scanBytes := rows * 8 // key column is always read
	for pos := 0; pos < rows; pos++ {
		if pred == nil || pred(table, pos) {
			out = append(out, pos)
		}
	}
	e.pl.SGDRAM.AddTransfer(sc, scanBytes)
	e.unit.AddWork(sc, rows*e.cfg.CyclesPerValue)

	// Only qualifying projected bytes cross the bus.
	projWidth := 0
	for _, name := range projCols {
		if c := table.Column(name); c != nil {
			projWidth += c.Width()
		}
	}
	if projWidth == 0 {
		projWidth = 8
	}
	outBytes := len(out) * projWidth
	sc.Add(&e.rowsOut, int64(len(out)))
	e.pl.PCIe.AddTransfer(sc, 64+outBytes)
	sc.Run()
	t.Exec(stats.CompOther, 60+len(out)/8)
	return out
}

// SoftwareScan is the baseline: the CPU pulls every row's predicate and
// projection bytes across PCIe (the base lives FPGA-side) and evaluates the
// predicate itself. It returns the same positions as Scan.
func (e *Engine) SoftwareScan(t *platform.Task, table *columnar.Table, pred Pred, projCols []string) []int {
	rows := table.Rows()
	rowBytes := table.RowWidth()
	// Everything crosses the bus first.
	e.pl.PCIe.Transfer(t.P, 64+rows*rowBytes)
	var out []int
	for pos := 0; pos < rows; pos++ {
		if pred == nil || pred(table, pos) {
			out = append(out, pos)
		}
	}
	t.Exec(stats.CompOther, rows*e.cfg.CPUPerRowInstr)
	return out
}

// HostScan is the conventional machine's analytical path: the projection
// lives in host DRAM, so nothing crosses PCIe — the CPU streams the rows
// from memory and evaluates predicate and projection itself. It is a free
// function rather than an Engine method because a conventional machine has
// no scanner unit to idle (creating an Engine would charge phantom FPGA
// power). It returns the same positions as Scan and SoftwareScan.
func HostScan(t *platform.Task, pl *platform.Platform, table *columnar.Table, pred Pred, projCols []string, cfg Config) []int {
	rows := table.Rows()
	var out []int
	for pos := 0; pos < rows; pos++ {
		if pred == nil || pred(table, pos) {
			out = append(out, pos)
		}
	}
	// Plan/setup cost mirrors the hardware path's descriptor build, so an
	// empty-table scan still advances simulated time.
	t.Exec(stats.CompOther, 200)
	t.Exec(stats.CompOther, rows*cfg.CPUPerRowInstr)
	// The swept rows stream from host memory at sequential bandwidth.
	sc := t.Script()
	pl.HostDRAM.AddTransfer(sc, rows*table.RowWidth())
	sc.Run()
	return out
}

// Selectivity returns output rows / input rows across all scans.
func (e *Engine) Selectivity() float64 {
	if e.rowsIn == 0 {
		return 0
	}
	return float64(e.rowsOut) / float64(e.rowsIn)
}
