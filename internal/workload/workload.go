// Package workload holds what the benchmark workloads (tatp, tpcc, ycsb)
// share: the per-stream home of their transaction inputs and the
// single-transaction variant.
package workload

import (
	"bionicdb/internal/core"
	"bionicdb/internal/sim"
)

// PerStream keeps one *T for each random stream that draws transactions. A
// workload's NextTxn draws a transaction's inputs into its stream's T and
// returns a logic bound to that T when it was built, so nothing is
// allocated per transaction. The T is overwritten by the same stream's next
// draw, which is safe because a terminal runs one transaction at a time:
// it draws, submits until the engine is done with the logic, then draws
// again (core.Workload's NextTxn contract).
//
// Not safe for concurrent use: one workload instance backs one run.
type PerStream[T any] struct {
	// New builds a stream's T on that stream's first draw.
	New func() *T
	m   map[*sim.Rand]*T
}

// Of returns r's T, building it on r's first use.
func (p *PerStream[T]) Of(r *sim.Rand) *T {
	if t, ok := p.m[r]; ok {
		return t
	}
	if p.m == nil {
		p.m = make(map[*sim.Rand]*T)
	}
	t := p.New()
	p.m[r] = t
	return t
}

// Single is a workload variant that issues one transaction type of the
// workload it embeds: the same schema, partitioning and database, only
// the mix narrows (Figure 3's bars, contention studies).
type Single struct {
	core.Workload
	name, txn string
	draw      func(r *sim.Rand) core.TxnLogic
}

// NewSingle returns the variant of w named name whose every transaction is
// txn, drawn by draw.
func NewSingle(w core.Workload, name, txn string, draw func(r *sim.Rand) core.TxnLogic) *Single {
	return &Single{Workload: w, name: name, txn: txn, draw: draw}
}

// Name implements core.Workload: the variant's own name.
func (s *Single) Name() string { return s.name }

// NextTxn implements core.Workload: always the one transaction type.
func (s *Single) NextTxn(r *sim.Rand) (string, core.TxnLogic) { return s.txn, s.draw(r) }
