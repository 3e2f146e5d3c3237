package bench

import (
	"fmt"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Column is one column of a result table: its header and the cell it
// prints for a row. A header starting with '>' is right-aligned, as in
// stats.NewTable.
type Column[R any] struct {
	Header string
	Cell   func(R) string
}

// Render is the one result-table renderer: a row per element of rows, its
// cells from the ident columns, then from cols. A row that failed
// (failed(r) != nil) prints its ident cells, then "error: <msg>" in place
// of the first of cols, then blanks. A nil failed fails no row.
func Render[R any](rows []R, failed func(R) error, ident []Column[R], cols ...Column[R]) *stats.Table {
	all := append(ident[:len(ident):len(ident)], cols...)
	headers := make([]string, len(all))
	for i, c := range all {
		headers[i] = c.Header
	}
	t := stats.NewTable(headers...)
	for _, r := range rows {
		var err error
		if failed != nil {
			err = failed(r)
		}
		cells := make([]string, len(all))
		for i, c := range all {
			switch {
			case err == nil || i < len(ident):
				cells[i] = c.Cell(r)
			case i == len(ident):
				cells[i] = "error: " + err.Error()
			default:
				cells[i] = ""
			}
		}
		t.Row(cells...)
	}
	return t
}

// ResultTable renders sweep results through Render, a row failing with its
// run's error.
func ResultTable(results []Result, ident []Column[Result], cols ...Column[Result]) *stats.Table {
	return Render(results, func(r Result) error { return r.Err }, ident, cols...)
}

// On lifts a column over S to rows R that carry an S.
func On[R, S any](c Column[S], of func(R) S) Column[R] {
	return Column[R]{c.Header, func(r R) string { return c.Cell(of(r)) }}
}

// Int is a right-aligned integer column.
func Int[R any, N ~int | ~int64 | ~uint64](header string, f func(R) N) Column[R] {
	return Column[R]{">" + header, func(r R) string { return fmt.Sprintf("%d", f(r)) }}
}

// Float is a right-aligned column printing f(r) with format.
func Float[R any](header, format string, f func(R) float64) Column[R] {
	return Column[R]{">" + header, func(r R) string { return fmt.Sprintf(format, f(r)) }}
}

// Ratio is a right-aligned "1.23x" column.
func Ratio[R any](header string, f func(R) float64) Column[R] { return Float(header, "%.2fx", f) }

// Duration is a right-aligned simulated-duration column.
func Duration[R any](header string, f func(R) sim.Duration) Column[R] {
	return Column[R]{">" + header, func(r R) string { return f(r).String() }}
}

// only prints c's cell on the rows where keep holds, and alt on the rest.
func only[R any](c Column[R], keep func(R) bool, alt string) Column[R] {
	return Column[R]{c.Header, func(r R) string {
		if keep(r) {
			return c.Cell(r)
		}
		return alt
	}}
}

// The columns shared by tables over different row types, each declared
// once; a table passes the accessor that reads the value off its rows.

func workloadCol[R any](f func(R) string) Column[R] { return Column[R]{"workload", f} }
func engineCol[R any](f func(R) string) Column[R]   { return Column[R]{"engine", f} }
func socketsCol[R any](f func(R) int) Column[R]     { return Int("sockets", f) }
func tpsCol[R any](f func(R) float64) Column[R]     { return Float("tps", "%.0f", f) }

// logCol names a row's durability layout.
func logCol[R any](sharded func(R) bool) Column[R] {
	return Column[R]{"log", func(r R) string {
		if sharded(r) {
			return "sharded"
		}
		return "central"
	}}
}

// The columns the sweep tables share, over sweep results.
var (
	ColWorkload  = workloadCol(func(r Result) string { return r.Point.Workload.Name })
	ColEngine    = engineCol(func(r Result) string { return r.Point.Engine.Name })
	ColTerminals = Int("terminals", func(r Result) int { return r.Point.Terminals })
	ColSeed      = Int("seed", func(r Result) uint64 { return r.Point.Seed })
	ColSockets   = socketsCol(func(r Result) int { return r.Point.Sockets })
	ColLog       = logCol(func(r Result) bool { return r.Point.ShardedLog })
	ColTPS       = tpsCol(func(r Result) float64 { return r.Res.TPS })
	ColUJPerTxn  = Float("uJ/txn", "%.1f", func(r Result) float64 { return r.Res.JoulesPerTxn * 1e6 })
	ColP50       = Duration("p50", func(r Result) sim.Duration { return r.Res.Latency.Percentile(50) })
	ColP95       = Duration("p95", func(r Result) sim.Duration { return r.Res.Latency.Percentile(95) })
	ColCommits   = Int("commits", func(r Result) int64 { return r.Res.Commits })
	ColAborts    = Int("aborts", func(r Result) int64 { return r.Res.Aborts })
)

// Table renders sweep results as the standard figure table: one row per
// point in grid order.
func Table(results []Result) *stats.Table {
	return ResultTable(results, []Column[Result]{ColWorkload, ColEngine, ColTerminals, ColSeed},
		ColTPS, ColUJPerTxn, ColP50, ColP95, ColCommits, ColAborts)
}

// ScalingTable renders scaling results as the fig-scaling table: one row
// per point with a speedup column relative to the same engine and
// workload at the lowest measured socket count. Sharded-log rows share
// that baseline — a 1-socket machine is identical with the flag on or off
// — so central and sharded curves of one engine are directly comparable.
func ScalingTable(results []Result) *stats.Table {
	// Baseline tps per (workload, engine): the lowest measured socket
	// count with a usable result, regardless of row order or log layout.
	type curve struct{ wl, eng string }
	base := map[curve]Result{}
	for _, r := range results {
		if r.Err != nil || r.Res.TPS <= 0 {
			continue
		}
		k := curve{r.Point.Workload.Name, r.Point.Engine.Name}
		if b, ok := base[k]; !ok || r.Point.Sockets < b.Point.Sockets {
			base[k] = r
		}
	}
	speedup := Ratio("speedup", func(r Result) float64 {
		if b, ok := base[curve{r.Point.Workload.Name, r.Point.Engine.Name}]; ok {
			return r.Res.TPS / b.Res.TPS
		}
		return 0
	})
	return ResultTable(results, []Column[Result]{ColWorkload, ColEngine, ColLog, ColSockets, ColTerminals},
		ColTPS, speedup, ColUJPerTxn, ColP50, ColP95, ColCommits)
}

// HTAPTable renders HTAP results as the fig-htap table: transactional
// throughput and energy next to scan bandwidth and freshness, one row per
// point ("-" where a point ran no analytical half).
func HTAPTable(results []Result) *stats.Table {
	scan := func(c Column[Result]) Column[Result] {
		return only(c, func(r Result) bool { return r.Res.Scan != nil }, "-")
	}
	return ResultTable(results, []Column[Result]{ColWorkload, ColEngine, ColSockets, ColTerminals},
		ColTPS, ColUJPerTxn,
		scan(Int("scans", func(r Result) int64 { return r.Res.Scan.Scans })),
		scan(Float("scan MB/s", "%.1f", func(r Result) float64 { return float64(r.Res.Scan.Bytes) / 1e6 / r.Point.Measure.Seconds() })),
		scan(Duration("stale max", func(r Result) sim.Duration { return r.Res.Scan.StaleMax })),
		scan(Duration("stale mean", func(r Result) sim.Duration { return r.Res.Scan.StaleMean() })),
		ColCommits)
}

// RecoveryTable renders recovery results as the fig-recovery table. The
// replay speedup column is serial over parallel replay — the restore scan
// is a shared-device floor both boots pay identically.
func RecoveryTable(results []RecoveryResult) *stats.Table {
	type row = RecoveryResult
	return Render(results, func(r row) error { return r.Err },
		[]Column[row]{workloadCol(func(r row) string { return r.Workload }), engineCol(func(r row) string { return r.Engine }),
			logCol(func(r row) bool { return r.ShardedLog }), socketsCol(func(r row) int { return r.Sockets })},
		Int("shards", func(r row) int { return r.Shards }),
		Float("log KB", "%.0f", func(r row) float64 { return float64(r.LogBytes) / 1024 }),
		Int("txns", func(r row) int64 { return r.Txns }),
		Duration("restore", func(r row) sim.Duration { return r.RestoreSim }),
		Duration("ser replay", func(r row) sim.Duration { return r.SerialReplay }),
		Duration("par replay", func(r row) sim.Duration { return r.ParallelReplay }),
		Ratio("speedup", func(r row) float64 {
			if r.ParallelReplay > 0 {
				return float64(r.SerialReplay) / float64(r.ParallelReplay)
			}
			return 0
		}),
		Duration("total", func(r row) sim.Duration { return r.TotalSim }),
		Float("mJ", "%.3f", func(r row) float64 { return r.Joules * 1e3 }),
		Int("rows", func(r row) int64 { return r.Rows }))
}

// FailoverTable renders failover results as the fig-failover table. The
// failover columns are blank on the unreplicated baselines, which only
// measure steady state.
func FailoverTable(results []FailoverResult) *stats.Table {
	type row = FailoverResult
	replicated := func(c Column[row]) Column[row] {
		return only(c, func(r row) bool { return r.Mode != stats.ReplNone }, "")
	}
	return Render(results, func(r row) error { return r.Err },
		[]Column[row]{workloadCol(func(r row) string { return r.Workload }), engineCol(func(r row) string { return r.Engine }),
			socketsCol(func(r row) int { return r.Sockets }), {"mode", func(r row) string { return r.Mode.String() }}},
		tpsCol(func(r row) float64 { return r.TPS }),
		Duration("p50", func(r row) sim.Duration { return r.P50 }),
		Duration("p95", func(r row) sim.Duration { return r.P95 }),
		replicated(Ratio("tax", func(r row) float64 { return r.OverheadP50 })),
		replicated(Int("acked", func(r row) int64 { return r.CommitsAcked })),
		replicated(Int("recovered", func(r row) int64 { return r.TxnsRecovered })),
		replicated(Int("lost", func(r row) int64 { return r.LostTxns })),
		replicated(Float("lost KB", "%.1f", func(r row) float64 { return float64(r.LostTailBytes) / 1024 })),
		replicated(Duration("serving", func(r row) sim.Duration { return r.TimeToServing })))
}
