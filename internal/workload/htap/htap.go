// Package htap implements the CH-benCHmark-style mixed workloads that wake
// the analytics half of the bionic machine: an OLTP transaction mix (TPC-C
// or YCSB) running concurrently with analytical range scans over columnar
// projections of the row store.
//
// A Mixed value is both halves at once. As a core.Workload it delegates to
// the inner OLTP workload; as a core.Analytics it attaches the projection
// mirror (mirror.go) to the run: columnar projections maintained from the
// engine's own write path — the overlay bulk-merge on the bionic engine, an
// ETL-style refresh daemon on the software engines — scanned by per-socket
// scanner engines (bionic) or by the CPU out of host memory (conventional
// and DORA). Scans therefore see a bounded-staleness snapshot whose
// freshness is measured against the durability subsystem's vector durable
// point, the paper's "fresh transactional state meets bulk analysis"
// tension made into a metric.
package htap

import (
	"encoding/binary"

	"bionicdb/internal/columnar"
	"bionicdb/internal/core"
	"bionicdb/internal/hw/scanner"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// ColSpec extracts one projected uint64 column from a row image.
type ColSpec struct {
	Name    string
	Extract func(key, val []byte) uint64
}

// ProjSpec maps one OLTP table into a columnar projection. The projected
// tables must be delete-free in the transaction mix: the overlay merge path
// propagates upserts only, so a projection over a table with deletes would
// retain ghosts (the staleness contract in DESIGN.md).
type ProjSpec struct {
	Table uint16 // source OLTP table id
	Name  string // projection name
	// Key derives the projection's dense uint64 primary key from the row.
	Key  func(key, val []byte) uint64
	Cols []ColSpec
}

// Query is one analytical query template over a projection.
type Query struct {
	Name string
	Proj string
	// Make draws a predicate instance and the projected column subset from
	// the client's private stream.
	Make func(r *sim.Rand) (scanner.Pred, []string)
}

// Params tunes the analytical half.
type Params struct {
	// ScanTerminalsPerSocket is the closed-loop analytical clients per
	// socket (default 2).
	ScanTerminalsPerSocket int
	// RefreshInterval is the host-path projection refresh cadence (default
	// 10ms, matching the overlay merge interval so both maintenance paths
	// promise the same staleness bound).
	RefreshInterval sim.Duration
	// ScanConfig tunes the scanner engines (zero value uses defaults).
	ScanConfig scanner.Config
}

// DefaultParams returns the calibrated analytical parameters.
func DefaultParams() Params {
	return Params{
		ScanTerminalsPerSocket: 2,
		RefreshInterval:        10 * sim.Millisecond,
		ScanConfig:             scanner.DefaultConfig(),
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.ScanTerminalsPerSocket <= 0 {
		p.ScanTerminalsPerSocket = d.ScanTerminalsPerSocket
	}
	if p.RefreshInterval <= 0 {
		p.RefreshInterval = d.RefreshInterval
	}
	if p.ScanConfig.Slots <= 0 {
		p.ScanConfig = d.ScanConfig
	}
	return p
}

// Mixed is a hybrid workload: the embedded OLTP workload plus the
// analytical half's projections and query mix. It implements both
// core.Workload (by delegation) and core.Analytics.
type Mixed struct {
	core.Workload // the OLTP half

	name    string
	specs   []ProjSpec
	queries []Query
	params  Params

	lastRun *Run // most recent Attach, for post-run test inspection
}

// Name implements core.Workload.
func (m *Mixed) Name() string { return m.name }

// u64at reads a big-endian uint64 field at byte offset off, or 0 when the
// image is too short (the projection never sees such rows in practice).
func u64at(b []byte, off int) uint64 {
	if len(b) < off+8 {
		return 0
	}
	return binary.BigEndian.Uint64(b[off : off+8])
}

// NewYCSB builds the YCSB-backed hybrid: the usertable projected to its key
// plus the first 8 payload bytes as a uint64 measure column ("f0"), scanned
// by key-range queries with a random selectivity threshold on f0.
func NewYCSB(cfg ycsb.Config, p Params) *Mixed {
	inner := ycsb.New(cfg)
	records := uint64(inner.Records())
	specs := []ProjSpec{{
		Table: ycsb.TUser,
		Name:  "usertable",
		Key:   func(key, val []byte) uint64 { return storage.DecodeUint64(key) },
		Cols: []ColSpec{
			{Name: "f0", Extract: func(key, val []byte) uint64 { return u64at(val, 0) }},
		},
	}}
	queries := []Query{{
		Name: "range-f0",
		Proj: "usertable",
		Make: func(r *sim.Rand) (scanner.Pred, []string) {
			span := records / 4
			if span < 1 {
				span = 1
			}
			lo := uint64(r.Intn(int(records)))
			hi := lo + span
			thresh := r.Uint64() // uniform selectivity on the uniform f0
			return func(t *columnar.Table, pos int) bool {
				k := t.U64At("key", pos)
				return k >= lo && k < hi && t.U64At("f0", pos) < thresh
			}, []string{"key", "f0"}
		},
	}}
	return &Mixed{Workload: inner, name: "htap-ycsb", specs: specs, queries: queries, params: p.withDefaults()}
}

// NewTPCC builds the TPC-C-backed hybrid, CH-benCHmark style: stock and
// order-line projected into columnar form, scanned by a low-stock query
// (stock below a drawn quantity threshold) and a revenue query (order
// lines above a drawn amount). Both source tables are delete-free in the
// mix, as the staleness contract requires.
func NewTPCC(cfg tpcc.Config, p Params) *Mixed {
	inner := tpcc.New(cfg)
	specs := []ProjSpec{
		{
			Table: tpcc.TStock,
			Name:  "stock",
			// (wid, iid) packs into one dense uint64: iid < 2^32.
			Key: func(key, val []byte) uint64 {
				row := tpcc.DecodeStock(val)
				return row.WID<<32 | row.IID
			},
			Cols: []ColSpec{
				{Name: "qty", Extract: func(key, val []byte) uint64 { return uint64(tpcc.DecodeStock(val).Qty) }},
				{Name: "ytd", Extract: func(key, val []byte) uint64 { return tpcc.DecodeStock(val).YTD }},
				{Name: "ordercnt", Extract: func(key, val []byte) uint64 { return uint64(tpcc.DecodeStock(val).OrderCnt) }},
			},
		},
		{
			Table: tpcc.TOrderLine,
			Name:  "orderline",
			// (wid, did, oid, ol) packs densely: did<32, oid<2^24, ol<2^8.
			Key: func(key, val []byte) uint64 {
				row := tpcc.DecodeOrderLine(val)
				return ((row.WID*32+row.DID)<<24|row.OID)<<8 | row.OL
			},
			Cols: []ColSpec{
				{Name: "amount", Extract: func(key, val []byte) uint64 { return tpcc.DecodeOrderLine(val).Amount }},
				{Name: "qty", Extract: func(key, val []byte) uint64 { return uint64(tpcc.DecodeOrderLine(val).Qty) }},
			},
		},
	}
	queries := []Query{
		{
			Name: "low-stock",
			Proj: "stock",
			Make: func(r *sim.Rand) (scanner.Pred, []string) {
				thresh := uint64(r.Range(10, 20))
				return func(t *columnar.Table, pos int) bool {
					return t.U64At("qty", pos) < thresh
				}, []string{"key", "qty"}
			},
		},
		{
			Name: "revenue",
			Proj: "orderline",
			Make: func(r *sim.Rand) (scanner.Pred, []string) {
				thresh := uint64(r.Range(5000, 50000)) // cents
				return func(t *columnar.Table, pos int) bool {
					return t.U64At("amount", pos) > thresh
				}, []string{"key", "amount"}
			},
		},
	}
	return &Mixed{Workload: inner, name: "htap-tpcc", specs: specs, queries: queries, params: p.withDefaults()}
}
