package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"bionicdb/internal/btree"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
)

// CheckpointMeta is the recovery anchor: the root page of every table's
// checkpoint image plus the log positions recovery replays from, one per
// log shard, and the positions each shard's crash image starts at (its
// store's kept point, wal.Store.Kept: StartLSNs on an unreplicated machine
// whose log held bytes before its first checkpoint, 0 when the log was
// empty or ships to replicas). Figure 4 keeps "log sync & recovery" in
// software; this is that box.
type CheckpointMeta struct {
	Roots     map[uint16]storage.PageID
	StartLSNs []wal.LSN
	LogBases  []wal.LSN
}

// startLSN returns the replay start position for shard.
func (m CheckpointMeta) startLSN(shard int) wal.LSN {
	if shard < len(m.StartLSNs) {
		return m.StartLSNs[shard]
	}
	return 0
}

// logBase returns the log position shard's crash image starts at.
func (m CheckpointMeta) logBase(shard int) wal.LSN {
	if shard < len(m.LogBases) {
		return m.LogBases[shard]
	}
	return 0
}

// Checkpoint writes every table's pages durably through dm and anchors
// recovery at every log shard's current durable point, registering there as
// the shard's reader so that its store keeps the bytes a crash will replay
// (wal.Store.Register). The engine must be quiesced (no active
// transactions): bionicdb checkpoints are sharp, not fuzzy. Every node of
// every table is sized before the first page is stored, so a row the image
// format cannot hold (a value over 65 535 bytes) is an error naming its
// table and page that stores nothing and changes no tree: no checkpoint is
// taken, and the previous one stays whole. Each page is serialized once,
// into an exact-size buffer that dm keeps as the durable image and the
// table's tree adopts as its storage (btree.Tree.Checkpoint): the live tree
// and every boot of this checkpoint share those bytes, and nothing writes to
// them again.
func Checkpoint(p *sim.Proc, tables map[uint16]*btree.Tree, dm *storage.DiskManager, ls *wal.LogSet) (CheckpointMeta, error) {
	ids := sortedKeys(tables)
	for _, id := range ids {
		if err := tables[id].CheckImages(); err != nil {
			return CheckpointMeta{}, fmt.Errorf("checkpoint of table %d: %w", id, err)
		}
	}
	meta := CheckpointMeta{Roots: make(map[uint16]storage.PageID)}
	// A sharp checkpoint streams: pages are written sequentially, so the
	// device is charged one bulk transfer per table, not one seek per page.
	for _, id := range ids {
		tree := tables[id]
		meta.Roots[id] = tree.RootID()
		written := 0
		if err := tree.Checkpoint(func(pid storage.PageID, img []byte) {
			dm.Store(pid, img)
			written += dm.SpanBytes(len(img))
		}); err != nil {
			return CheckpointMeta{}, fmt.Errorf("checkpoint of table %d: %w", id, err)
		}
		dm.Device().Transfer(p, written)
	}
	meta.StartLSNs = ls.DurableVector()
	if err := ls.Register(meta.StartLSNs); err != nil {
		return CheckpointMeta{}, fmt.Errorf("checkpoint: %w", err)
	}
	meta.LogBases = ls.Kept()
	return meta, nil
}

// CheckpointAllSets is Checkpoint over the one-element slice
// DORAEngine.TableSets returns (the form the benchmark's crash harness
// calls). It has no error to return, so it panics where Checkpoint returns
// one; the harness's rows all fit the image format.
func CheckpointAllSets(p *sim.Proc, sets []map[uint16]*btree.Tree, dm *storage.DiskManager, ls *wal.LogSet) CheckpointMeta {
	meta, err := Checkpoint(p, sets[0], dm, ls)
	if err != nil {
		panic(err)
	}
	return meta
}

// scanCommits collects every commit record in one shard's log image from
// offset from on: the transaction ids and, for cross-shard commits, their
// durability vectors.
func scanCommits(data []byte, from wal.LSN, out map[uint64][]wal.ShardLSN) error {
	return wal.Scan(data, from, func(r wal.Record) bool {
		if r.Type == wal.RecCommit {
			if len(r.After) > 0 {
				vec, err := wal.DecodeShardVec(r.After)
				if err != nil {
					return true // malformed vector: unverifiable, not committed
				}
				out[r.Txn] = vec
			} else {
				out[r.Txn] = nil // single-shard commit: no vector needed
			}
		}
		return true
	})
}

// committedSet merges per-shard commit scans into the set of transactions
// recovery may replay. A cross-shard commit qualifies only if every entry
// of its durability vector survived the crash — the commit was never
// acknowledged otherwise, so dropping it is exactly what the client
// observed. Single-shard commits carry no vector: the commit record's own
// presence already orders it after the transaction's data on that shard.
func committedSet(perShard []map[uint64][]wal.ShardLSN, durable []wal.LSN) map[uint64]bool {
	committed := make(map[uint64]bool)
	for _, m := range perShard {
		for txn, vec := range m {
			ok := true
			for _, e := range vec {
				if e.Shard >= len(durable) || e.LSN > durable[e.Shard] {
					ok = false
					break
				}
			}
			if ok {
				committed[txn] = true
			}
		}
	}
	return committed
}

// applyShard replays one shard's committed data records from offset from of
// its log image on, in shard-log order, into trees. The log is registered
// as one chunk of each tree, and every after-image is installed as a
// reference to its field in the log (btree.Tree.PutAt), so replay copies no
// row; the tree clones a key it inserts. The log is never written again once it is a crash image, and
// stored rows are immutable, so the recovered trees keep the log alive
// until their next checkpoint instead.
func applyShard(trees map[uint16]*btree.Tree, data []byte, from wal.LSN, committed map[uint64]bool) (records int64, err error) {
	chunks := make(map[uint16]btree.Chunk, len(trees))
	for id, tree := range trees {
		if chunks[id], err = tree.AddChunk(data); err != nil {
			return 0, err
		}
	}
	err = wal.Scan(data, from, func(r wal.Record) bool {
		if !committed[r.Txn] {
			return true
		}
		tree, ok := trees[r.Table]
		if !ok {
			return true // table not part of this recovery set
		}
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate:
			tree.PutAt(r.Key, chunks[r.Table], r.AfterField(), nil)
			records++
		case wal.RecDelete:
			tree.Delete(r.Key, nil)
			records++
		}
		return true
	})
	return records, err
}

// loadTrees rebuilds every table from its checkpoint image, fetching page
// images through read.
func loadTrees(defs []TableDef, meta CheckpointMeta, read func(storage.PageID) []byte) (map[uint16]*btree.Tree, error) {
	trees := make(map[uint16]*btree.Tree, len(defs))
	for _, def := range defs {
		tree, err := btree.Load(btree.Config{Order: def.Order}, meta.Roots[def.ID], read)
		if err != nil {
			return nil, err
		}
		trees[def.ID] = tree
	}
	return trees, nil
}

// ContentDigest folds a table set's full key/value content into one
// SHA-256 hex string, in (table, key) order. Two recoveries are equivalent
// iff their digests match — the identity the crash tests pin serial and
// parallel replay to, independent of tree page layout.
func ContentDigest(trees map[uint16]*btree.Tree) string {
	h := sha256.New()
	var b4 [4]byte
	for _, id := range sortedKeys(trees) {
		binary.LittleEndian.PutUint32(b4[:], uint32(id))
		h.Write(b4[:])
		trees[id].Scan(nil, nil, nil, func(k, v []byte) bool {
			binary.LittleEndian.PutUint32(b4[:], uint32(len(k)))
			h.Write(b4[:])
			h.Write(k)
			binary.LittleEndian.PutUint32(b4[:], uint32(len(v)))
			h.Write(b4[:])
			h.Write(v)
			return true
		})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ContentDigestSets is ContentDigest over the one-element slice
// DORAEngine.TableSets and RecoverMeasured return.
func ContentDigestSets(sets []map[uint16]*btree.Tree) string { return ContentDigest(sets[0]) }

// RecoveryStats describes one measured recovery: how much log was replayed
// and where the boot's simulated time went. Restore is the checkpoint-image
// scan — sequential bandwidth on the one checkpoint device, the floor no
// amount of sharding lowers; Replay is the log work the sharded subsystem
// parallelizes across sockets.
type RecoveryStats struct {
	Shards   int
	LogBytes int64 // bytes scanned across all shards (after the start vector)
	Records  int64 // committed data records replayed
	Txns     int64 // committed transactions replayed
	Restore  sim.Duration
	Replay   sim.Duration
	SimTime  sim.Duration
}

// Modeled replay costs (CPU-bound log work; device time comes from the
// per-shard log read and the checkpoint page reads).
const (
	recScanInstrPerRec  = 60  // pass-1 record decode + commit-table probe
	recApplyInstrPerRec = 450 // pass-2 redo dispatch + tree maintenance
)

const recInstrPerByte = 0.25 // per-byte decode/copy cost, both passes

// RecoverMeasured rebuilds every table from its checkpoint image and replays
// the logical logs under the machine's cost model. Committed transactions'
// data records after the per-shard start positions are applied in shard-log
// order; records of transactions without a (vector-complete) commit record
// are ignored (runtime aborts roll back in memory, so redo-only logical
// recovery suffices). logs[s] holds shard s's log from meta's LogBases[s]
// on, and a start position below that is an error. Each shard's log is read
// from its socket's log device and its records are scanned and replayed on
// that socket's cores, with one recovery process per shard when parallel is
// true (the sharded subsystem's parallel-recovery path) or a single process
// walking the shards in order when false. Parallel replay is safe because
// shards hold disjoint key sets — data-oriented routing sends every record
// for a key to that key's home socket — so the recovered content is
// identical to serial replay (tree page layout may differ — ingestion order
// across tables interleaves — but every table's key/value state is the
// same). The caller's process drives the phases and observes the completion;
// pl must be a freshly-booted platform matching the crashed machine's config
// (Boot builds one). The recovered trees come back as a one-element slice,
// the form ContentDigestSets takes. Their keys and rows refer into dm's page
// images and into logs, copied from neither, so both must stay unwritten for
// as long as the trees live.
func RecoverMeasured(p *sim.Proc, pl *platform.Platform, defs []TableDef, meta CheckpointMeta, dm *storage.DiskManager, logs [][]byte, parallel bool) ([]map[uint16]*btree.Tree, RecoveryStats, error) {
	start := p.Now()
	st := RecoveryStats{Shards: len(logs)}
	// Checkpoint restore: load the page images without per-page charges and
	// pay for them as one sequential scan of the checkpoint file — how a
	// boot actually reads it — instead of a random seek per page.
	restored := 0
	trees, err := loadTrees(defs, meta, func(id storage.PageID) []byte {
		img := dm.ReadRaw(id)
		restored += dm.SpanBytes(len(img))
		return img
	})
	if err != nil {
		return nil, st, err
	}
	dm.Device().Transfer(p, restored)
	st.Restore = p.Now().Sub(start)

	// shardCore pins shard s's recovery work to its socket's first core
	// (socket-indexed shards; a single central log recovers on core 0).
	shardCore := func(s int) *platform.Core {
		if len(logs) > 1 && s < len(pl.Sockets) {
			return pl.Sockets[s].Cores[0]
		}
		return pl.Cores[0]
	}
	perShard := make([]map[uint64][]wal.ShardLSN, len(logs))
	durable := make([]wal.LSN, len(logs))
	var firstErr error
	noteErr := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Shard s's image holds the log from meta.logBase(s) on, so replay
	// starts at offset from[s] in it and the shard is durable up to base
	// plus the image's length. A start below the base asks for bytes the
	// image does not hold: an error, never a silently shorter replay.
	from := make([]wal.LSN, len(logs))
	for s := range logs {
		start, base := meta.startLSN(s), meta.logBase(s)
		if start < base {
			return nil, st, fmt.Errorf("recovery: log shard %d replays from %d, but its image starts at %d", s, start, base)
		}
		from[s] = start - base
	}
	// tailOf is how many of shard s's image bytes lie at or past its start.
	tailOf := func(s int) int { return max(len(logs[s])-int(from[s]), 0) }

	// Phase 1 per shard: read the shard's log from its device and scan for
	// commit records, charging the scan on the shard's socket.
	analyze := func(ps *sim.Proc, s int) {
		data := logs[s]
		tail := tailOf(s)
		pl.LogSSD(s).Transfer(ps, tail)
		task := pl.NewTask(ps, shardCore(s), nil)
		perShard[s] = make(map[uint64][]wal.ShardLSN)
		durable[s] = meta.logBase(s) + wal.LSN(len(data))
		noteErr(scanCommits(data, from[s], perShard[s]))
		task.Exec(stats.CompLog, len(perShard[s])*recScanInstrPerRec+int(float64(tail)*recInstrPerByte))
		task.Flush()
		st.LogBytes += int64(tail)
	}
	// Phase 2 per shard: replay the shard's committed records on its socket.
	var committed map[uint64]bool
	replay := func(ps *sim.Proc, s int) {
		task := pl.NewTask(ps, shardCore(s), nil)
		n, err := applyShard(trees, logs[s], from[s], committed)
		noteErr(err)
		task.Exec(stats.CompLog, int(n)*recApplyInstrPerRec+int(float64(tailOf(s))*recInstrPerByte))
		task.Flush()
		st.Records += n
	}

	runPhase := func(fn func(ps *sim.Proc, s int)) {
		if !parallel || len(logs) == 1 {
			for s := range logs {
				fn(p, s)
			}
			return
		}
		done := sim.NewSignal(p.Env())
		remaining := len(logs)
		for s := range logs {
			s := s
			p.Env().Spawn(fmt.Sprintf("recover-shard%d", s), func(ps *sim.Proc) {
				fn(ps, s)
				remaining--
				if remaining == 0 {
					done.Fire(nil)
				}
			})
		}
		done.Await(p)
	}

	runPhase(analyze)
	if firstErr != nil {
		return nil, st, firstErr
	}
	committed = committedSet(perShard, durable)
	st.Txns = int64(len(committed))
	runPhase(replay)
	if firstErr != nil {
		return nil, st, firstErr
	}
	st.SimTime = p.Now().Sub(start)
	st.Replay = st.SimTime - st.Restore
	return []map[uint16]*btree.Tree{trees}, st, nil
}
