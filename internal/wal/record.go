// Package wal implements write-ahead logging: typed logical log records
// (the paper's §5.3 notes B+Tree operations are logically logged), a
// durable log store on the simulated SSD, and the software log manager with
// a latched central buffer and group commit — the component whose latch and
// copy costs the hardware log-insertion engine (§5.4) eliminates. Recovery
// replays committed logical records against checkpointed trees.
package wal

import (
	"encoding/binary"
	"fmt"
)

// LSN is a log sequence number: the byte offset of a record in the log
// stream, so ordering and durability comparisons are plain integer
// comparisons.
type LSN uint64

// RecType distinguishes log record kinds.
type RecType uint8

// Log record kinds. Data records (Insert/Update/Delete) carry logical
// table+key images; recovery replays them for committed transactions only,
// so no undo pass or CLRs are needed (runtime aborts roll back in memory).
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecUpdate
	RecDelete
	RecCheckpoint // marks a fuzzy checkpoint completion; recovery starts after it
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCheckpoint:
		return "CHECKPOINT"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one logical log record.
type Record struct {
	LSN    LSN    // assigned at append
	Txn    uint64 // transaction id
	Type   RecType
	Table  uint16 // catalog table id (data records)
	Key    []byte // primary key image (data records)
	Before []byte // pre-image (updates/deletes; used by runtime rollback)
	After  []byte // post-image (inserts/updates)
}

// EncodedSize returns the exact on-log size of the record.
func (r *Record) EncodedSize() int {
	return 4 + 8 + 1 + 2 + 2 + len(r.Key) + 4 + len(r.Before) + 4 + len(r.After)
}

// Encode appends the record's wire image to dst and returns the result.
// Layout: u32 totalLen, u64 txn, u8 type, u16 table, u16 keyLen, key,
// u32 beforeLen, before, u32 afterLen, after.
func (r *Record) Encode(dst []byte) []byte {
	total := r.EncodedSize()
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(total))
	dst = append(dst, b8[:4]...)
	binary.LittleEndian.PutUint64(b8[:], r.Txn)
	dst = append(dst, b8[:]...)
	dst = append(dst, byte(r.Type))
	binary.LittleEndian.PutUint16(b8[:2], r.Table)
	dst = append(dst, b8[:2]...)
	binary.LittleEndian.PutUint16(b8[:2], uint16(len(r.Key)))
	dst = append(dst, b8[:2]...)
	dst = append(dst, r.Key...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(r.Before)))
	dst = append(dst, b8[:4]...)
	dst = append(dst, r.Before...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(r.After)))
	dst = append(dst, b8[:4]...)
	dst = append(dst, r.After...)
	return dst
}

// AfterField returns the offset of the after-image's u32 length in the log
// a record was decoded from, the bytes following it being After: how
// recovery installs an after-image as a reference into the log.
func (r *Record) AfterField() int { return int(r.LSN) + r.EncodedSize() - len(r.After) - 4 }

// minRecordSize is the encoded size of a record with no key and no images.
const minRecordSize = 4 + 8 + 1 + 2 + 2 + 4 + 4

// Decode parses one record starting at data[off]; the record's LSN is set
// to off. It returns the offset just past the record. Every length field is
// checked against the record's end before it is sliced on, so corrupt input
// is an error, never a panic. Key, Before and After are views into data with
// their capacity clipped to their length: appending to one reallocates
// instead of writing into the next field. Recovery reads the key and
// installs the after-image as a stored row in place, through AfterField.
func Decode(data []byte, off int) (Record, int, error) {
	if off < 0 || off > len(data)-minRecordSize {
		return Record{}, 0, fmt.Errorf("wal: truncated record header at %d", off)
	}
	total := int(binary.LittleEndian.Uint32(data[off:]))
	if total < minRecordSize || total > len(data)-off {
		return Record{}, 0, fmt.Errorf("wal: corrupt record length %d at %d", total, off)
	}
	end := off + total
	overrun := func(field string, n int) error {
		return fmt.Errorf("wal: record at %d: %s length %d overruns its %d bytes", off, field, n, total)
	}
	r := Record{LSN: LSN(off)}
	p := off + 4
	r.Txn = binary.LittleEndian.Uint64(data[p:])
	p += 8
	r.Type = RecType(data[p])
	p++
	r.Table = binary.LittleEndian.Uint16(data[p:])
	p += 2
	kl := int(binary.LittleEndian.Uint16(data[p:]))
	p += 2
	if kl > end-p-8 {
		return Record{}, 0, overrun("key", kl)
	}
	r.Key = data[p : p+kl : p+kl]
	p += kl
	bl := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if bl > end-p-4 {
		return Record{}, 0, overrun("before-image", bl)
	}
	r.Before = data[p : p+bl : p+bl]
	p += bl
	al := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if al > end-p {
		return Record{}, 0, overrun("after-image", al)
	}
	r.After = data[p : p+al : p+al]
	p += al
	if p != end {
		return Record{}, 0, fmt.Errorf("wal: record at %d decodes to %d bytes, header says %d", off, p-off, total)
	}
	return r, p, nil
}

// Scan iterates every complete record in data starting at offset from,
// calling fn; fn returning false stops the scan. A trailing partial record
// (torn write) ends the scan without error.
func Scan(data []byte, from LSN, fn func(Record) bool) error {
	if from > LSN(len(data)) {
		return nil
	}
	off := int(from)
	for off < len(data) {
		rec, next, err := Decode(data, off)
		if err != nil {
			// A partial trailing record is a normal crash artifact.
			if off+4 > len(data) {
				return nil
			}
			total := int(binary.LittleEndian.Uint32(data[off:]))
			if off+total > len(data) {
				return nil
			}
			return err
		}
		if !fn(rec) {
			return nil
		}
		off = next
	}
	return nil
}
