package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 2, Type: RecInsert, Table: 3, Key: []byte("k1"), After: []byte("row-bytes")},
		{Txn: 2, Type: RecUpdate, Table: 3, Key: []byte("k1"), Before: []byte("old"), After: []byte("new")},
		{Txn: 2, Type: RecDelete, Table: 7, Key: []byte("gone"), Before: []byte("victim")},
		{Txn: 2, Type: RecCommit},
		{Txn: 9, Type: RecAbort},
		{Txn: 0, Type: RecCheckpoint},
	}
	var data []byte
	for i := range recs {
		data = recs[i].Encode(data)
	}
	var got []Record
	if err := Scan(data, 0, func(r Record) bool {
		got = append(got, Record{
			LSN: r.LSN, Txn: r.Txn, Type: r.Type, Table: r.Table,
			Key: append([]byte(nil), r.Key...), Before: append([]byte(nil), r.Before...), After: append([]byte(nil), r.After...),
		})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	off := 0
	for i, r := range got {
		w := recs[i]
		if r.Txn != w.Txn || r.Type != w.Type || r.Table != w.Table ||
			!bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Before, w.Before) || !bytes.Equal(r.After, w.After) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, w)
		}
		if r.LSN != LSN(off) {
			t.Fatalf("record %d LSN %d, want %d", i, r.LSN, off)
		}
		off += w.EncodedSize()
	}
}

func TestRecordEncodedSizeMatches(t *testing.T) {
	if err := quick.Check(func(txn uint64, table uint16, key, before, after []byte) bool {
		if len(key) > 1000 {
			key = key[:1000]
		}
		r := Record{Txn: txn, Type: RecUpdate, Table: table, Key: key, Before: before, After: after}
		return len(r.Encode(nil)) == r.EncodedSize()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestScanTornTail(t *testing.T) {
	r1 := Record{Txn: 1, Type: RecInsert, Key: []byte("a"), After: []byte("x")}
	r2 := Record{Txn: 1, Type: RecCommit}
	data := r2.Encode(r1.Encode(nil))
	// Simulate a torn write: drop the last 3 bytes.
	torn := data[:len(data)-3]
	var seen []RecType
	if err := Scan(torn, 0, func(r Record) bool {
		seen = append(seen, r.Type)
		return true
	}); err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if len(seen) != 1 || seen[0] != RecInsert {
		t.Fatalf("seen %v, want just the intact first record", seen)
	}
}

func TestScanFromOffset(t *testing.T) {
	r1 := Record{Txn: 1, Type: RecBegin}
	r2 := Record{Txn: 1, Type: RecCommit}
	data := r2.Encode(r1.Encode(nil))
	var seen []RecType
	if err := Scan(data, LSN(r1.EncodedSize()), func(r Record) bool {
		seen = append(seen, r.Type)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != RecCommit {
		t.Fatalf("seen %v", seen)
	}
}

// corruptRecord is a minimal record whose length fields are then
// overwritten: a total length of total, a key length of key.
func corruptRecord(size, total int, key uint16) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint32(b, uint32(total))
	binary.LittleEndian.PutUint16(b[15:], key)
	return b
}

func TestDecodeRejectsCorruptLengths(t *testing.T) {
	good := (&Record{Txn: 4, Type: RecUpdate, Table: 2, Key: []byte("key"), Before: []byte("old"), After: []byte("new")}).Encode(nil)
	withLen := func(at int, n uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[at:], n)
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		torn bool // Scan reads it as a torn tail, not an error
	}{
		{"total below the smallest record", corruptRecord(17, 17, 0), false},
		{"key past the record's end", corruptRecord(40, 25, 60000), false},
		{"before-image past the record's end", withLen(20, 1<<20), false},
		{"after-image past the record's end", withLen(27, 1<<20), false},
		{"total past the buffer", withLen(0, 1<<31), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(tc.data, 0); err == nil {
				t.Fatal("decoded a corrupt record")
			}
			if err := Scan(tc.data, 0, func(Record) bool { return true }); (err == nil) != tc.torn {
				t.Fatalf("Scan returned %v", err)
			}
		})
	}
}

// TestDecodedFieldsHaveNoSpareCapacity: Key, Before and After end where the
// next field's bytes begin, so appending to one (recovery installs After as
// a stored row) reallocates instead of overwriting the log.
func TestDecodedFieldsHaveNoSpareCapacity(t *testing.T) {
	r1 := Record{Txn: 4, Type: RecUpdate, Table: 2, Key: []byte("key"), Before: []byte("old"), After: []byte("new")}
	r2 := Record{Txn: 4, Type: RecCommit}
	data := r2.Encode(r1.Encode(nil))
	orig := append([]byte(nil), data...)
	n := 0
	if err := Scan(data, 0, func(r Record) bool {
		for name, f := range map[string][]byte{"key": r.Key, "before": r.Before, "after": r.After} {
			if cap(f) != len(f) {
				t.Errorf("record %d: %s has len %d, cap %d", n, name, len(f), cap(f))
			}
			_ = append(f, 0xFF, 0xFF, 0xFF, 0xFF)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned %d records", n)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("appending to a decoded field wrote into the log")
	}
}

// FuzzDecode: on any input Decode and Scan return or error, never panic,
// and a record that decodes re-encodes to exactly the bytes it came from,
// its fields clipped to their length.
func FuzzDecode(f *testing.F) {
	var log []byte
	for _, r := range []Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 2, Type: RecUpdate, Table: 3, Key: []byte("k1"), Before: []byte("old"), After: []byte("new")},
		{Txn: 2, Type: RecCommit, After: []byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}},
	} {
		log = r.Encode(log)
	}
	f.Add(log, uint64(0))
	f.Add(log[:len(log)-3], uint64(25))
	f.Add(corruptRecord(17, 17, 0), uint64(0))
	f.Add(corruptRecord(40, 25, 60000), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, from uint64) {
		check := func(r Record, off, next int) {
			if got := r.Encode(nil); !bytes.Equal(got, data[off:next]) {
				t.Fatalf("record at %d re-encodes to %x, decoded from %x", off, got, data[off:next])
			}
			if cap(r.Key) != len(r.Key) || cap(r.Before) != len(r.Before) || cap(r.After) != len(r.After) {
				t.Fatalf("record at %d has a field with spare capacity", off)
			}
		}
		if r, next, err := Decode(data, int(from)); err == nil {
			check(r, int(from), next)
		}
		_ = Scan(data, LSN(from), func(r Record) bool {
			check(r, int(r.LSN), int(r.LSN)+r.EncodedSize())
			return true
		})
	})
}

func TestRecTypeStrings(t *testing.T) {
	for _, rt := range []RecType{RecBegin, RecCommit, RecAbort, RecInsert, RecUpdate, RecDelete, RecCheckpoint} {
		if s := rt.String(); s == "" || s[0] == 'R' && s != "RecType(99)" && len(s) < 3 {
			t.Errorf("bad name for %d: %q", rt, s)
		}
	}
	if RecType(99).String() != "RecType(99)" {
		t.Error("unknown type name")
	}
}

func newLogFixture() (*sim.Env, *platform.Platform, *Store, *Manager) {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	store := NewStore(pl.SSD)
	m := NewManager(pl, store, DefaultManagerConfig())
	return env, pl, store, m
}

func TestManagerAppendAssignsMonotonicLSNs(t *testing.T) {
	env, pl, store, m := newLogFixture()
	store.Register(0) // the test decodes the raw store
	var lsns []LSN
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < 10; i++ {
			rec := Record{Txn: 1, Type: RecInsert, Key: []byte("k"), After: []byte("v")}
			lsns = append(lsns, m.Append(task, &rec))
		}
		task.Flush()
		m.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSNs not increasing: %v", lsns)
		}
	}
	n := 0
	if err := Scan(store.Bytes(), 0, func(Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("appends = %d", n)
	}
}

func TestGroupCommitFlushesAndWakes(t *testing.T) {
	env, pl, store, m := newLogFixture()
	var commitAt sim.Time
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		rec := Record{Txn: 1, Type: RecCommit}
		lsn := m.Append(task, &rec)
		task.Flush()
		done := sim.NewSignal(env)
		m.CommitDurable(lsn, done)
		done.Await(p)
		commitAt = p.Now()
		m.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if store.Durable() == 0 {
		t.Fatal("nothing flushed")
	}
	// Group commit means durability arrives on the flush-interval scale.
	if commitAt < sim.Time(20*sim.Microsecond) || commitAt > sim.Time(200*sim.Microsecond) {
		t.Fatalf("commit became durable at %v, want tens of us", commitAt)
	}
}

func TestCommitDurableAlreadyDurable(t *testing.T) {
	env, pl, _, m := newLogFixture()
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		rec := Record{Txn: 1, Type: RecCommit}
		lsn := m.Append(task, &rec)
		task.Flush()
		d1 := sim.NewSignal(env)
		m.CommitDurable(lsn, d1)
		d1.Await(p)
		// Now the LSN is durable; a second waiter must fire immediately.
		d2 := sim.NewSignal(env)
		m.CommitDurable(lsn, d2)
		if !d2.Fired() {
			t.Error("already-durable commit did not fire immediately")
		}
		m.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyFlushOnBytesThreshold(t *testing.T) {
	env, pl, store, m := newLogFixture()
	store.Register(0) // the test decodes the raw store
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		big := make([]byte, 4096)
		for i := 0; i < 10; i++ { // 10 × >4KB > 32KB threshold
			rec := Record{Txn: 1, Type: RecInsert, Key: []byte("k"), After: big}
			m.Append(task, &rec)
		}
		task.Flush()
		m.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Syncs() < 1 {
		t.Fatal("no flush")
	}
	if int(store.Durable()) < 10*4096 {
		t.Fatalf("durable %d bytes", store.Durable())
	}
	// Verify the stream decodes.
	n := 0
	if err := Scan(store.Bytes(), 0, func(r Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("decoded %d records", n)
	}
}

// TestLogLatchContentionGrowsWithWriters has one writer, then eight on eight
// cores, append 200 records each: the log latch serializes the eight, so
// the last of them finishes later than the lone writer does.
func TestLogLatchContentionGrowsWithWriters(t *testing.T) {
	run := func(writers int) sim.Time {
		env := sim.NewEnv()
		pl := platform.New(env, platform.HC2())
		store := NewStore(pl.SSD)
		m := NewManager(pl, store, DefaultManagerConfig())
		var last sim.Time
		for w := 0; w < writers; w++ {
			w := w
			env.Spawn("w", func(p *sim.Proc) {
				task := pl.NewTask(p, pl.Cores[w%len(pl.Cores)], &stats.Breakdown{})
				for i := 0; i < 200; i++ {
					rec := Record{Txn: uint64(w), Type: RecInsert, Key: []byte("key"), After: make([]byte, 100)}
					m.Append(task, &rec)
				}
				task.Flush()
				last = max(last, p.Now())
			})
		}
		env.At(sim.Time(sim.Second), func() {})
		if err := env.RunUntil(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return last
	}
	one := run(1)
	eight := run(8)
	if eight <= one {
		t.Fatalf("8 writers done at %v, not after 1 writer (%v)", eight, one)
	}
}

func TestManagerChargesLogComponent(t *testing.T) {
	env, pl, _, m := newLogFixture()
	bd := &stats.Breakdown{}
	env.Spawn("w", func(p *sim.Proc) {
		task := pl.NewTask(p, pl.Cores[0], bd)
		rec := Record{Txn: 1, Type: RecInsert, Key: []byte("k"), After: make([]byte, 200)}
		m.Append(task, &rec)
		task.Flush()
		m.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(stats.CompLog) == 0 {
		t.Fatal("no Log mgmt time charged")
	}
	if bd.Get(stats.CompBtree) != 0 {
		t.Fatal("log append charged to wrong component")
	}
}
