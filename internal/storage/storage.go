// Package storage provides the durable substrate shared by every engine:
// page identity, a disk manager that keeps the checkpoint's durable page
// images for a simulated device (bulk checkpoint and boot I/O only, charged
// by its callers), order-preserving key encodings, the arena transactions
// build their keys and rows in, and a compact record encoder that builds
// into it. Volatile structures (B+Trees, the overlay) live in ordinary Go
// memory, and each tree copies the keys and rows it stores into storage of
// its own; durability comes from checkpointed page images plus the WAL.
package storage

import (
	"encoding/binary"

	"bionicdb/internal/platform"
)

// PageID names a durable page.
type PageID uint64

// InvalidPage is the zero PageID, never allocated.
const InvalidPage PageID = 0

// DiskManager owns the durable page images of one device (the SAS array or
// the SSD). It charges no I/O itself. Its one writer is the sharp
// checkpointer and its readers are recovery boots; both stream many pages
// and charge Device one sequential transfer of the images' summed SpanBytes.
// Nothing is copied: an image, once stored, is never written again — a
// later Store of the same page replaces the map entry — so Store keeps the
// caller's buffer and ReadRaw hands out the image itself.
type DiskManager struct {
	dev      *platform.Device
	pageSize int
	pages    map[PageID][]byte
	nextID   PageID
}

// NewDiskManager creates a disk manager for pages of pageSize bytes on dev.
func NewDiskManager(dev *platform.Device, pageSize int) *DiskManager {
	return &DiskManager{
		dev:      dev,
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		nextID:   1,
	}
}

// Allocate reserves a new page identity (no I/O is charged).
func (dm *DiskManager) Allocate() PageID {
	id := dm.nextID
	dm.nextID++
	return id
}

// spanPages returns how many on-device pages an image of n bytes occupies
// (at least one; a wide B+Tree node's checkpoint image may span several).
func (dm *DiskManager) spanPages(n int) int {
	pages := (n + dm.pageSize - 1) / dm.pageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// SpanBytes returns the on-device footprint of an image of n bytes (whole
// pages).
func (dm *DiskManager) SpanBytes(n int) int { return dm.spanPages(n) * dm.pageSize }

// Store installs data as page id's durable image without charging I/O —
// for bulk writers (the sharp checkpointer) that stream many pages and
// account the device time as one sequential transfer via Device(). The
// manager keeps data itself, not a copy, and others may keep it too: the
// sharp checkpointer's trees keep the images they store as their own
// storage (btree.Tree.Checkpoint), and every boot of the crash image keeps
// views of them. Nobody may write to data afterwards.
func (dm *DiskManager) Store(id PageID, data []byte) {
	dm.pages[id] = data
}

// ReadRaw returns page id's durable image without charging I/O — for
// recovery paths that account their device time in bulk (a boot restores
// the checkpoint with one sequential scan, not a random read per page).
// The result is a read-only view of the image, not a copy, with its
// capacity clipped to its length: the caller must not write to it, and may
// keep views into it for as long as it likes (btree.Load does).
func (dm *DiskManager) ReadRaw(id PageID) []byte {
	img, ok := dm.pages[id]
	if !ok {
		return nil
	}
	return img[:len(img):len(img)]
}

// Device returns the device this manager charges.
func (dm *DiskManager) Device() *platform.Device { return dm.dev }

// Rebind returns a disk manager over the same durable page images charging
// a different device — how a recovery boot on a fresh platform reads the
// page images that survived a crash. The images are shared, not copied:
// every manager rebound from one crash image hands out the same read-only
// views from ReadRaw, so two boots of one crash restore from the same bytes.
func (dm *DiskManager) Rebind(dev *platform.Device) *DiskManager {
	return &DiskManager{dev: dev, pageSize: dm.pageSize, pages: dm.pages, nextID: dm.nextID}
}

// --- Order-preserving key encodings ---
//
// B+Tree keys are byte strings compared lexicographically. These helpers
// encode fixed-width integers so that byte order matches numeric order.

// Uint64Key returns a fresh order-preserving key for v.
func Uint64Key(v uint64) []byte { return (*Arena)(nil).Uint64Key(v) }

// DecodeUint64 reads an order-preserving uint64 from the front of b.
func DecodeUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// Arena is a bump allocator for byte strings that all die together: the
// keys, scan bounds and encoded rows one transaction attempt builds, or the
// key and row of one population row. Whoever keeps one longer copies it: a
// tree copies the keys and rows it stores, and a log encodes a record
// before its append returns. Reset ends their lifetime and keeps the
// storage, so a steady caller stops allocating. An arena that runs out
// chains a larger chunk instead of moving what it already handed out, so
// earlier slices stay valid until Reset. The zero value is ready to use; an
// arena belongs to one process at a time. A nil *Arena allocates every slice
// from the heap, for callers that want a fresh key or row they own.
type Arena struct {
	cur  []byte   // the chunk being filled; len is the used part
	full [][]byte // exhausted chunks of this cycle, kept so their slices stay valid
}

// arenaMinChunk is the first chunk's size: the keys of a short transaction
// or of one action body; longer ones reach their size by doubling, once.
const arenaMinChunk = 256

// Alloc returns n uninitialised bytes, valid until Reset. The slice's
// capacity is n, so appending to it never runs into a neighbour.
func (a *Arena) Alloc(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	off := len(a.cur)
	if off+n > cap(a.cur) {
		a.grow(n)
		off = 0
	}
	a.cur = a.cur[:off+n]
	return a.cur[off : off+n : off+n]
}

// grow chains a chunk at least twice the size of the exhausted one.
func (a *Arena) grow(n int) {
	size := 2 * cap(a.cur)
	if size < arenaMinChunk {
		size = arenaMinChunk
	}
	for size < n {
		size *= 2
	}
	if cap(a.cur) > 0 {
		a.full = append(a.full, a.cur)
	}
	a.cur = make([]byte, 0, size)
}

// Reset ends the lifetime of every slice handed out and keeps the storage.
// A chain of chunks is replaced by one chunk of their combined size, so a
// cycle that repeats fits without growing. Under the race build tag the
// freed bytes are overwritten first (see arenaPoison).
func (a *Arena) Reset() {
	if arenaPoison {
		for _, c := range a.full {
			poison(c)
		}
		poison(a.cur)
	}
	if len(a.full) > 0 {
		size := cap(a.cur)
		for _, c := range a.full {
			size += cap(c)
		}
		clear(a.full)
		a.full = a.full[:0]
		a.cur = make([]byte, 0, size)
		return
	}
	a.cur = a.cur[:0]
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// Copy returns an arena copy of b.
func (a *Arena) Copy(b []byte) []byte {
	out := a.Alloc(len(b))
	copy(out, b)
	return out
}

// Uint64Key returns an order-preserving key for v, built in the arena.
func (a *Arena) Uint64Key(v uint64) []byte {
	out := a.Alloc(8)
	binary.BigEndian.PutUint64(out, v)
	return out
}

// CompositeKey builds an order-preserving key from fixed-width integer parts
// in the arena. The receiver is concrete and parts is not kept, so a call's
// argument list stays on the caller's stack.
func (a *Arena) CompositeKey(parts ...uint64) []byte {
	out := a.Alloc(8 * len(parts))
	for i, p := range parts {
		binary.BigEndian.PutUint64(out[8*i:], p)
	}
	return out
}

// --- Record encoding ---
//
// Rows are encoded as a sequence of typed fields. The format is
// length-prefixed per string field and fixed-width for integers, written
// with encoding/binary; it is compact, deterministic and self-contained so
// WAL before/after images can round-trip rows.

// RecordWriter builds one encoded row in an arena.
type RecordWriter struct {
	a   *Arena
	buf []byte // len is the encoded part; the capacity is the arena's
}

// NewRecordWriter returns a writer that builds its row in a, with room for
// capacity bytes before it grows: an encoder that passes its row's exact
// size takes one slice of the arena. As with Arena.Uint64Key, a nil arena
// allocates, for a caller that wants a row it owns.
func NewRecordWriter(a *Arena, capacity int) *RecordWriter {
	return &RecordWriter{a: a, buf: a.Alloc(capacity)[:0]}
}

// grow makes room for n more bytes, moving the row to a slice of the arena
// twice its capacity when it has none.
func (w *RecordWriter) grow(n int) {
	if len(w.buf)+n <= cap(w.buf) {
		return
	}
	buf := w.a.Alloc(max(2*cap(w.buf), len(w.buf)+n))
	w.buf = buf[:copy(buf, w.buf)]
}

// Uint64 appends a fixed-width integer field.
func (w *RecordWriter) Uint64(v uint64) *RecordWriter {
	w.grow(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return w
}

// Uint32 appends a fixed-width 32-bit field.
func (w *RecordWriter) Uint32(v uint32) *RecordWriter {
	w.grow(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// Bytes appends a length-prefixed variable-width field (max 64 KiB).
func (w *RecordWriter) Bytes(v []byte) *RecordWriter {
	if len(v) > 1<<16-1 {
		panic("storage: record field exceeds 64KiB")
	}
	w.grow(2 + len(v))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(v)))
	w.buf = append(w.buf, v...)
	return w
}

// String appends a length-prefixed string field. It is Bytes without the
// conversion, which would allocate for a long string.
func (w *RecordWriter) String(v string) *RecordWriter {
	if len(v) > 1<<16-1 {
		panic("storage: record field exceeds 64KiB")
	}
	w.grow(2 + len(v))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(v)))
	w.buf = append(w.buf, v...)
	return w
}

// Finish returns the encoded row, clipped so that its capacity is its
// length. It lives as long as the arena's slices do. The writer can be
// reused after Reset.
func (w *RecordWriter) Finish() []byte { return w.buf[:len(w.buf):len(w.buf)] }

// RecordReader decodes a row written by RecordWriter in field order.
type RecordReader struct {
	buf []byte
	off int
}

// NewRecordReader wraps an encoded row.
func NewRecordReader(buf []byte) *RecordReader { return &RecordReader{buf: buf} }

// Uint64 reads the next fixed-width integer field.
func (r *RecordReader) Uint64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uint32 reads the next fixed-width 32-bit field.
func (r *RecordReader) Uint32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Bytes reads the next variable-width field (a view into the record).
func (r *RecordReader) Bytes() []byte {
	n := int(binary.LittleEndian.Uint16(r.buf[r.off:]))
	r.off += 2
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}
