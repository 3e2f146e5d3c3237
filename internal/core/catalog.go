// Package core composes the substrates into the three engines the
// experiments compare: Conventional (shared-everything 2PL), DORA (the
// Figure 3 software baseline) and Bionic (DORA plus any subset of the
// paper's four hardware offloads), together with the workload harness that
// produces throughput, joules/transaction, latency and Figure 3 component
// breakdowns from one run.
//
// All three engines run unchanged on a multi-socket platform
// (platform.Config.Sockets > 1). The DORA engines shard their partitions
// across sockets and commit transactions that span sockets through an
// RVP-based cross-shard decision round (socket-local transactions pay
// single-machine costs); the conventional engine stays shared-everything
// and pays a NUMA round trip to its socket-0 lock table from every other
// socket.
package core

import "bionicdb/internal/dora"

// TableDef declares one table: an index-organized primary B+Tree. Secondary
// indexes are ordinary tables whose values are primary keys.
type TableDef struct {
	ID    uint16
	Name  string
	Order int // B+Tree order; 0 uses the btree default
}

// PartitionScheme tells the DORA engines how to route and isolate work.
// Workloads provide one (TATP partitions by subscriber, TPC-C by
// warehouse).
type PartitionScheme struct {
	// Partitions is the number of logical partitions (one worker each).
	Partitions int
	// Route maps a table and key to a partition in [0, Partitions).
	Route func(table uint16, key []byte) int
	// Entity names the local-lock entity for a key (the zero Entity = no
	// entity lock). Entities are the DORA isolation granule: the district in
	// TPC-C, the subscriber in TATP.
	Entity func(table uint16, key []byte) dora.Entity
}

// HashScheme returns a generic scheme: route by hash of the first eight key
// bytes, entity = the key (dora.KeyEntity: its first 16 bytes).
// Workload-specific schemes colocate related rows instead.
func HashScheme(n int) PartitionScheme {
	return PartitionScheme{
		Partitions: n,
		Route: func(table uint16, key []byte) int {
			var h uint64 = 14695981039346656037
			for i := 0; i < len(key) && i < 8; i++ {
				h ^= uint64(key[i])
				h *= 1099511628211
			}
			return int(h % uint64(n))
		},
		Entity: func(table uint16, key []byte) dora.Entity {
			return dora.KeyEntity(key)
		},
	}
}

// Offloads selects which hardware units a Bionic engine uses; the zero
// value is pure software (the DORA baseline). The C2 ablation sweeps these.
type Offloads struct {
	Log   bool // §5.4 hardware log insertion
	Queue bool // §5.5 hardware queue management
	// Overlay is one unit pair: the §5.6 overlay database instead of the
	// buffer pool, and the §5.3 hardware tree-probe engine that walks its
	// SG-DRAM trees.
	Overlay bool
}

// All returns every offload enabled — the full bionic configuration.
func AllOffloads() Offloads { return Offloads{Log: true, Queue: true, Overlay: true} }

// Any reports whether at least one offload is enabled.
func (o Offloads) Any() bool { return o.Log || o.Queue || o.Overlay }

// String names the configuration for tables and ablation rows.
func (o Offloads) String() string {
	if !o.Any() {
		return "none"
	}
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(o.Overlay, "tree") // the pair's probe unit leads, its overlay closes
	add(o.Log, "log")
	add(o.Queue, "queue")
	add(o.Overlay, "overlay")
	return s
}
