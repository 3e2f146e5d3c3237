// Package stats provides the measurement vocabulary shared by every engine:
// the component taxonomy of the paper's Figure 3, per-component time
// breakdowns, latency histograms with percentile queries, and fixed-width
// table rendering for the figure generators.
package stats

import (
	"fmt"
	"strings"

	"bionicdb/internal/sim"
)

// Component identifies which subsystem a slice of execution time belongs to.
// The values mirror the legend of Figure 3 in the paper: Other, Front-end,
// Dora, Xct mgmt, Log mgmt, Btree mgmt, Bpool mgmt.
type Component uint8

// The Figure 3 component taxonomy.
const (
	CompOther    Component = iota // catch-all: allocation, formatting, misc
	CompFrontEnd                  // terminal handling, txn admission, routing
	CompDora                      // partition queues, RVPs, local locking
	CompXct                       // transaction management: begin/commit/abort, 2PL
	CompLog                       // log manager: record build, insert, flush waits
	CompBtree                     // B+Tree probes, inserts, SMOs
	CompBpool                     // buffer pool / overlay management
	NumComponents
)

var componentNames = [NumComponents]string{
	"Other", "Front-end", "Dora", "Xct mgmt", "Log mgmt", "Btree mgmt", "Bpool mgmt",
}

// String returns the Figure 3 legend name of the component.
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// Components lists all components in legend order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown accumulates busy time per component. The zero value is ready to
// use. Breakdowns are written only from simulated processes, which execute
// one at a time, so no synchronization is needed.
type Breakdown struct {
	t [NumComponents]sim.Duration
}

// Add charges d to component c.
func (b *Breakdown) Add(c Component, d sim.Duration) { b.t[c] += d }

// Get returns the time charged to component c.
func (b *Breakdown) Get(c Component) sim.Duration { return b.t[c] }

// Total returns the time charged across all components.
func (b *Breakdown) Total() sim.Duration {
	var sum sim.Duration
	for _, d := range b.t {
		sum += d
	}
	return sum
}

// Fraction returns component c's share of the total, in [0,1].
func (b *Breakdown) Fraction(c Component) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b.t[c]) / float64(total)
}

// Sub returns the per-component difference b - o (for measurement windows
// bounded by two snapshots).
func (b *Breakdown) Sub(o *Breakdown) Breakdown {
	var out Breakdown
	for i := range b.t {
		out.t[i] = b.t[i] - o.t[i]
	}
	return out
}

// Histogram records durations in logarithmic buckets (~7% resolution) and
// answers percentile queries. The zero value is ready to use.
type Histogram struct {
	counts [512]int64
	n      int64
	sum    sim.Duration
	min    sim.Duration
	max    sim.Duration
}

// bucketOf maps a duration to a log-scale bucket: 16 buckets per octave.
func bucketOf(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	// Find the position of the highest set bit.
	v := uint64(d)
	msb := 63
	for v&(1<<63) == 0 {
		v <<= 1
		msb--
	}
	// Sub-bucket from the next 4 bits below the MSB.
	var sub uint64
	if msb >= 4 {
		sub = (uint64(d) >> (uint(msb) - 4)) & 15
	} else {
		sub = (uint64(d) << (4 - uint(msb))) & 15
	}
	b := msb*16 + int(sub)
	if b >= len(Histogram{}.counts) {
		b = len(Histogram{}.counts) - 1
	}
	return b
}

// bucketLow returns the smallest duration mapping to bucket b.
func bucketLow(b int) sim.Duration {
	msb := b / 16
	sub := b % 16
	if msb < 4 {
		return sim.Duration(uint64(16+sub) >> (4 - uint(msb)))
	}
	return sim.Duration(uint64(16+sub) << (uint(msb) - 4))
}

// Record adds one observation.
func (h *Histogram) Record(d sim.Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
	h.counts[bucketOf(d)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(int64(h.sum) / h.n)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() sim.Duration { return h.max }

// Percentile returns an estimate of the p-quantile (p in [0,100]), accurate
// to the ~7% bucket resolution. Empty histograms return 0.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(p / 100 * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			lo := bucketLow(b)
			hi := bucketLow(b + 1)
			if hi > h.max {
				hi = h.max
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			return (lo + hi) / 2
		}
	}
	return h.max
}

// Merge adds all observations of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Sub returns the windowed difference h - o for measurement windows bounded
// by two snapshots: bucket counts, the observation count and the sum
// subtract; min and max keep h's run-cumulative values (extrema cannot be
// subtracted — same convention as ScanStats.Sub). o must be an earlier
// snapshot of the same histogram.
func (h *Histogram) Sub(o *Histogram) Histogram {
	out := *h
	out.n -= o.n
	out.sum -= o.sum
	for i := range out.counts {
		out.counts[i] -= o.counts[i]
	}
	if out.n == 0 {
		out.min, out.max, out.sum = 0, 0, 0
	}
	return out
}

// Phase identifies where a transaction's latency went: the per-transaction
// anatomy the flight recorder aggregates. Queue and lock waits, execution
// and the cross-shard decision round can overlap across a transaction's
// actions (DORA runs them in parallel on different partitions), so phases
// sum to more than the end-to-end latency on multi-partition transactions;
// each phase is the summed time its kind of wait consumed.
type Phase uint8

const (
	PhaseQueue Phase = iota // partition input-queue wait before first dispatch
	PhaseLock               // lock wait: deferred actions (DORA) or lock-manager blocks (conventional)
	PhaseExec               // transaction-logic execution on the partitions
	PhaseCross              // cross-shard decision round (coordinator rendezvous)
	PhaseDur                // durability fan-in: the vector durable-point wait
	PhaseRepl               // replication ack wait extending the durable point
	NumPhases
)

var phaseNames = [NumPhases]string{"queue", "lock", "exec", "cross-shard", "durability", "replication"}

// String returns the phase's report name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Phases lists all phases in report order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Anatomy is the per-transaction latency breakdown: one log-scale histogram
// per phase. The zero value is ready to use. Like every histogram in this
// package it is written only from simulated processes (one at a time) and
// merged host-side in deterministic order.
type Anatomy struct {
	Phases [NumPhases]Histogram
}

// Record adds one observation of phase p. Zero durations are dropped: a
// phase a transaction never entered (no lock conflict, no cross-shard
// round) contributes no sample rather than a spurious zero.
func (a *Anatomy) Record(p Phase, d sim.Duration) {
	if d <= 0 {
		return
	}
	a.Phases[p].Record(d)
}

// Phase returns phase p's histogram.
func (a *Anatomy) Phase(p Phase) *Histogram { return &a.Phases[p] }

// Merge adds all of o's observations into a.
func (a *Anatomy) Merge(o *Anatomy) {
	for i := range a.Phases {
		a.Phases[i].Merge(&o.Phases[i])
	}
}

// Sub returns the per-phase windowed difference a - o (see Histogram.Sub).
func (a *Anatomy) Sub(o *Anatomy) Anatomy {
	var out Anatomy
	for i := range a.Phases {
		out.Phases[i] = a.Phases[i].Sub(&o.Phases[i])
	}
	return out
}

// Samples returns the total observation count across phases.
func (a *Anatomy) Samples() int64 {
	var n int64
	for i := range a.Phases {
		n += a.Phases[i].Count()
	}
	return n
}

// Table renders aligned text tables for the figure generators.
type Table struct {
	header []string
	rows   [][]string
	align  []bool // true = right-align
}

// NewTable creates a table with the given column headers. Columns whose
// header starts with '>' are right-aligned (the '>' is stripped).
func NewTable(headers ...string) *Table {
	t := &Table{align: make([]bool, len(headers))}
	for i, h := range headers {
		if strings.HasPrefix(h, ">") {
			t.align[i] = true
			h = h[1:]
		}
		t.header = append(t.header, h)
	}
	return t
}

// Row appends a row of cells, each already formatted.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with a header rule.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := width[i] - len(c)
			if i < len(t.align) && t.align[i] {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			} else {
				sb.WriteString(c)
				if i < len(cells)-1 {
					sb.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header line.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.header))
	for i, h := range t.header {
		cells[i] = esc(h)
	}
	sb.WriteString(strings.Join(cells, ","))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		sb.WriteString(strings.Join(cells, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LogShardStats is one durable-log shard's cumulative activity: the
// per-socket counters the sharded durability subsystem reports (bytes on
// the shard's device, device syncs, hardware arbitration epochs). A
// non-sharded engine reports exactly one entry for its central log; the
// hardware path reports Epochs == Syncs, the software path Epochs == 0.
type LogShardStats struct {
	Shard  int   // owning socket (0 for a central log)
	Bytes  int64 // durable bytes written to the shard's log device
	Syncs  int64 // device flushes (software) or collection epochs (hardware)
	Epochs int64 // hardware arbitration epochs (0 on software shards)
}

// Sub returns the per-field difference s - o, for windowed measurements.
func (s LogShardStats) Sub(o LogShardStats) LogShardStats {
	return LogShardStats{Shard: s.Shard, Bytes: s.Bytes - o.Bytes, Syncs: s.Syncs - o.Syncs, Epochs: s.Epochs - o.Epochs}
}

// ScanStats is the analytical half's measurement surface: what the HTAP
// scan clients observed over a run. Counter fields are cumulative event
// counts; the *Max fields are run-cumulative maxima (a windowed Sub keeps
// the end snapshot's maximum, since a maximum cannot be subtracted).
//
// Freshness is measured against the durability subsystem's vector durable
// point: at every scan start the client reads the projection's snapshot
// stamp (the time and per-shard LSN vector of the merge/refresh pass that
// built it) and compares it with the machine's current durable vector.
// SnapViolations counts scans whose snapshot vector exceeded the durable
// vector — the invariant the freshness tests pin to zero.
type ScanStats struct {
	Scans    int64        // analytical scans issued
	Rows     int64        // rows examined across scans
	RowsOut  int64        // qualifying rows returned
	Bytes    int64        // projection bytes swept (rows x projection row width)
	ScanTime sim.Duration // summed scan latency

	Refreshes   int64 // projection merge/refresh passes (freshness stamps)
	RefreshRows int64 // rows re-extracted by the host refresh path (0 on the merge-fed path)

	StaleSum       sim.Duration // summed snapshot staleness observed at scan start
	StaleMax       sim.Duration // largest observed staleness
	GapMax         sim.Duration // largest interval between consecutive freshness stamps
	LagBytesMax    int64        // largest durable-vector lead over the snapshot vector, in log bytes
	SnapViolations int64        // scans whose snapshot vector exceeded the durable vector
}

// Sub returns the windowed difference s - o: counters subtract, maxima keep
// s's run-cumulative value.
func (s ScanStats) Sub(o ScanStats) ScanStats {
	return ScanStats{
		Scans:    s.Scans - o.Scans,
		Rows:     s.Rows - o.Rows,
		RowsOut:  s.RowsOut - o.RowsOut,
		Bytes:    s.Bytes - o.Bytes,
		ScanTime: s.ScanTime - o.ScanTime,

		Refreshes:   s.Refreshes - o.Refreshes,
		RefreshRows: s.RefreshRows - o.RefreshRows,

		StaleSum:       s.StaleSum - o.StaleSum,
		StaleMax:       s.StaleMax,
		GapMax:         s.GapMax,
		LagBytesMax:    s.LagBytesMax,
		SnapViolations: s.SnapViolations - o.SnapViolations,
	}
}

// StaleMean returns the mean observed staleness, or 0 with no scans.
func (s ScanStats) StaleMean() sim.Duration {
	if s.Scans == 0 {
		return 0
	}
	return sim.Duration(int64(s.StaleSum) / s.Scans)
}

// ReplMode selects how the commit path waits for log replication: not at
// all (async ships in the background), for every replica (sync), or for a
// majority of replicas (quorum). ReplNone means replication is off and the
// engine builds none of the shipping machinery.
type ReplMode uint8

const (
	ReplNone ReplMode = iota
	ReplAsync
	ReplSync
	ReplQuorum
)

// String renders the mode as its flag spelling.
func (m ReplMode) String() string {
	switch m {
	case ReplAsync:
		return "async"
	case ReplSync:
		return "sync"
	case ReplQuorum:
		return "quorum"
	default:
		return "none"
	}
}

// ParseReplMode parses a -replication flag value ("off"/"none" disable).
func ParseReplMode(s string) (ReplMode, error) {
	switch s {
	case "", "off", "none":
		return ReplNone, nil
	case "async":
		return ReplAsync, nil
	case "sync":
		return ReplSync, nil
	case "quorum":
		return ReplQuorum, nil
	default:
		return ReplNone, fmt.Errorf("unknown replication mode %q (want off|async|sync|quorum)", s)
	}
}

// ReplicationStats is one log shard's shipping activity to the replica
// machines, mirroring LogShardStats: counter fields are cumulative event
// counts; the *Max fields are run-cumulative maxima (a windowed Sub keeps
// the end snapshot's maximum). Bytes and ships sum over replicas — with R
// replicas every shard byte ships R times.
type ReplicationStats struct {
	Shard int      // owning socket (0 for a central log)
	Mode  ReplMode // commit-path wait mode

	ShippedBytes int64 // bytes landed durable on replica log devices
	Ships        int64 // ship batches completed (replica write done)
	AckRTTs      int64 // acknowledgement round trips completed

	LagBytesMax int64        // largest primary-durable lead over a replica, observed at ship pickup
	LagTimeSum  sim.Duration // summed ship-pickup-to-ack round-trip time
	LagTimeMax  sim.Duration // largest observed pickup-to-ack round trip
}

// Sub returns the windowed difference s - o: counters subtract, maxima keep
// s's run-cumulative value.
func (s ReplicationStats) Sub(o ReplicationStats) ReplicationStats {
	return ReplicationStats{
		Shard:        s.Shard,
		Mode:         s.Mode,
		ShippedBytes: s.ShippedBytes - o.ShippedBytes,
		Ships:        s.Ships - o.Ships,
		AckRTTs:      s.AckRTTs - o.AckRTTs,
		LagBytesMax:  s.LagBytesMax,
		LagTimeSum:   s.LagTimeSum - o.LagTimeSum,
		LagTimeMax:   s.LagTimeMax,
	}
}

// LagTimeMean returns the mean ship round trip, or 0 with no acks.
func (s ReplicationStats) LagTimeMean() sim.Duration {
	if s.AckRTTs == 0 {
		return 0
	}
	return sim.Duration(int64(s.LagTimeSum) / s.AckRTTs)
}

// Counter is a named monotonic event counter set.
type Counter struct {
	m map[string]int64
}

// NewCounter returns an empty counter set.
func NewCounter() *Counter { return &Counter{m: make(map[string]int64)} }

// Inc adds delta to the named counter.
func (c *Counter) Inc(name string, delta int64) { c.m[name] += delta }

// Get returns the named counter's value.
func (c *Counter) Get(name string) int64 { return c.m[name] }
