package obs

import "bionicdb/internal/sim"

// Kind classifies a span: which layer of the machine the interval belongs
// to. Kinds map one-to-one onto trace lanes (tid) in the Chrome export.
type Kind uint8

const (
	// KindSubmit is one whole transaction attempt as the terminal sees it:
	// submit to commit (or abort).
	KindSubmit Kind = iota
	// KindQueueWait is the interval an action spent in a partition's input
	// queue before its first dispatch.
	KindQueueWait
	// KindAction is the execution of one partition action (the transaction
	// logic slice homed on that partition).
	KindAction
	// KindLockWait is the interval a deferred action waited for its
	// partition-local predecessors (DORA) or a transaction waited in the
	// centralized lock manager (conventional).
	KindLockWait
	// KindCross is a cross-shard decision round: the coordinator's
	// rendezvous collecting votes from remote partitions.
	KindCross
	// KindDurability is the commit-time durability fan-in: the wait on the
	// vector durable point across log shards.
	KindDurability
	// KindReplWait is the replication ack wait extending the durable point
	// across machines (sync/quorum commit-wait).
	KindReplWait
	// KindMerge is one overlay merge pass into the home structures.
	KindMerge
	// KindScan is one analytical scanner pass over a columnar projection.
	KindScan

	// NumKinds is the number of span kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"submit", "queue-wait", "action", "lock-wait", "cross-shard",
	"durability", "repl-ack", "overlay-merge", "scan",
}

// String returns the kind's trace-lane name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one simulated-time interval attributed to a socket and a layer.
type Span struct {
	Start, End sim.Time
	Kind       Kind
	Socket     int32  // lane: the socket the work belongs to
	Shard      int32  // ring that recorded it (merge tiebreak)
	Txn        uint64 // transaction or action serial, 0 when not applicable

	seq uint64 // per-shard record order, assigned by ShardRec.Record
}
