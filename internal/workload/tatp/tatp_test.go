package tatp

import (
	"bytes"
	"fmt"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

func TestSubNbrRoundTrip(t *testing.T) {
	for _, sid := range []uint64{1, 42, 99999, 1000000} {
		nbr := SubNbr(sid)
		if len(nbr) != 15 {
			t.Fatalf("sub_nbr %q not 15 digits", nbr)
		}
		if parseSubNbr(nbr) != sid {
			t.Fatalf("round trip failed for %d", sid)
		}
	}
}

// sink keeps an encoded row on the heap, where the allocations are counted.
var sink []byte

// encoded encodes a row with enc in a fresh arena and in the nil arena, and
// requires both to be one row: the same bytes, no spare capacity, and one
// heap object from the nil arena, which an encoder whose size estimate is
// short would grow into a second.
func encoded(t *testing.T, name string, enc func(a *storage.Arena) []byte) []byte {
	t.Helper()
	var a storage.Arena
	row := enc(&a)
	if fresh := enc(nil); !bytes.Equal(fresh, row) || cap(row) != len(row) {
		t.Fatalf("%s: %x in an arena (cap %d), %x in the nil arena", name, row, cap(row), fresh)
	}
	if n := testing.AllocsPerRun(10, func() { sink = enc(nil) }); n != 1 {
		t.Errorf("%s: encoding a fresh row allocates %.0f times, want 1: its size is not exact", name, n)
	}
	return row
}

func TestRowEncodings(t *testing.T) {
	sub := SubscriberRow{SID: 7, Bits: 0x2aa, Hex: 0x1234567890, Byte2: []byte("0123456789"), MSC: 11, VLR: 22, SubNbr: []byte("000000000000007")}
	got := DecodeSubscriber(encoded(t, "subscriber", sub.Encode))
	if got.SID != 7 || got.Bits != 0x2aa || got.VLR != 22 || !bytes.Equal(got.SubNbr, sub.SubNbr) || !bytes.Equal(got.Byte2, sub.Byte2) {
		t.Fatalf("subscriber round trip: %+v", got)
	}
	sf := SpecialFacilityRow{SID: 7, SFType: 3, IsActive: 1, DataA: 99, DataB: []byte("fghij")}
	if g := DecodeSpecialFacility(encoded(t, "special facility", sf.Encode)); g.SFType != 3 || g.IsActive != 1 || g.DataA != 99 {
		t.Fatalf("sf round trip: %+v", g)
	}
	cf := CallForwardingRow{SID: 7, SFType: 2, StartTime: 8, EndTime: 12, NumberX: []byte("000000000000042")}
	if g := DecodeCallForwarding(encoded(t, "call forwarding", cf.Encode)); g.StartTime != 8 || g.EndTime != 12 || !bytes.Equal(g.NumberX, cf.NumberX) {
		t.Fatalf("cf round trip: %+v", g)
	}
	ai := encoded(t, "access info", func(a *storage.Arena) []byte { return accessInfoRow(a, 7, 2, sim.NewRand(1)) })
	if rd := storage.NewRecordReader(ai); rd.Uint64() != 7 || rd.Uint32() != 2 {
		t.Fatalf("access info round trip: %x", ai)
	}
}

func TestPopulationRules(t *testing.T) {
	w := New(Config{Subscribers: 500})
	rows := map[uint16]int{}
	perSubAI := map[uint64]int{}
	perSubSF := map[uint64]int{}
	cfPerSF := map[string]int{}
	w.Populate(func(table uint16, key, val []byte) {
		rows[table]++
		switch table {
		case TAccessInfo:
			perSubAI[storage.DecodeUint64(key)]++
		case TSpecialFacility:
			perSubSF[storage.DecodeUint64(key)]++
		case TCallForwarding:
			cfPerSF[string(key[:16])]++
		}
	}, sim.NewRand(3))
	if rows[TSubscriber] != 500 || rows[TSubNbrIdx] != 500 {
		t.Fatalf("subscribers=%d idx=%d", rows[TSubscriber], rows[TSubNbrIdx])
	}
	for sid, n := range perSubAI {
		if n < 1 || n > 4 {
			t.Fatalf("subscriber %d has %d access-info rows", sid, n)
		}
	}
	for sid, n := range perSubSF {
		if n < 1 || n > 4 {
			t.Fatalf("subscriber %d has %d special facilities", sid, n)
		}
	}
	for sf, n := range cfPerSF {
		if n > 3 {
			t.Fatalf("facility %x has %d call forwardings", sf, n)
		}
	}
	if rows[TAccessInfo] < 500 || rows[TAccessInfo] > 2000 {
		t.Fatalf("access info rows = %d", rows[TAccessInfo])
	}
}

func TestNuRandInRange(t *testing.T) {
	w := New(Config{Subscribers: 1000})
	r := sim.NewRand(5)
	for i := 0; i < 10000; i++ {
		sid := w.nuRand(r)
		if sid < 1 || sid > 1000 {
			t.Fatalf("nuRand out of range: %d", sid)
		}
	}
}

func TestMixProportions(t *testing.T) {
	w := New(Config{Subscribers: 100})
	r := sim.NewRand(9)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		name, _ := w.NextTxn(r)
		counts[name]++
	}
	expect := map[string]float64{
		"GetSubscriberData":    0.35,
		"GetNewDestination":    0.10,
		"GetAccessData":        0.35,
		"UpdateSubscriberData": 0.02,
		"UpdateLocation":       0.14,
		"InsertCallForwarding": 0.02,
		"DeleteCallForwarding": 0.02,
	}
	for name, want := range expect {
		got := float64(counts[name]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%s: %.3f of mix, want ~%.2f", name, got, want)
		}
	}
}

func TestSchemeColocatesSubscriberRows(t *testing.T) {
	w := New(Config{Subscribers: 100})
	s := w.Scheme(8)
	for sid := uint64(1); sid <= 100; sid++ {
		p := s.Route(TSubscriber, SubscriberKey(sid))
		if q := s.Route(TSpecialFacility, SFKey(sid, 2)); q != p {
			t.Fatalf("sf of %d routed to %d, subscriber to %d", sid, q, p)
		}
		if q := s.Route(TCallForwarding, CFKey(sid, 1, 8)); q != p {
			t.Fatalf("cf of %d routed elsewhere", sid)
		}
		if q := s.Route(TSubNbrIdx, SubNbr(sid)); q != p {
			t.Fatalf("sub_nbr idx of %d routed elsewhere", sid)
		}
		e := s.Entity(TSubscriber, SubscriberKey(sid))
		if e != s.Entity(TAccessInfo, AccessInfoKey(sid, 1)) {
			t.Fatalf("entities differ for subscriber %d", sid)
		}
		if want := fmt.Sprintf("s%d", sid); e.String() != want {
			t.Fatalf("entity %q, want %q", e, want)
		}
	}
}

// integration: the full mix on each engine at small scale.
func TestMixRunsOnAllEngines(t *testing.T) {
	wl := New(Config{Subscribers: 1000})
	cfg := core.RunConfig{Terminals: 8, Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 11}
	factories := map[string]func(env *sim.Env) core.Engine{
		"conventional": func(env *sim.Env) core.Engine {
			return core.NewConventional(env, platform.HC2(), wl.Tables())
		},
		"dora": func(env *sim.Env) core.Engine {
			return core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(8))
		},
		"bionic": func(env *sim.Env) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
		},
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			res, err := core.Run(cfg, wl, mk)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits < 50 {
				t.Fatalf("only %d commits", res.Commits)
			}
			// Update transactions hit expected TATP failure cases, so some
			// user aborts must appear over a reasonable sample.
			if res.Commits > 500 && res.Aborts == 0 {
				t.Error("no user aborts despite failure-prone transactions")
			}
		})
	}
}

func TestUpdateLocationAppliesVLR(t *testing.T) {
	wl := New(Config{Subscribers: 50})
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(4))
	wl.Populate(e.Load, sim.NewRand(1))
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(2)}
		// Drive UpdateLocation with a pinned generator so the target is known.
		r := sim.NewRand(77)
		logic := wl.UpdateLocation(r)
		if !e.Submit(term, logic) {
			t.Error("UpdateLocation aborted")
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Determine which subscriber the pinned generator chose and what VLR it
	// wrote, then verify.
	r := sim.NewRand(77)
	sid := wl.nuRand(r)
	wantVLR := uint32(r.Uint64())
	val, ok := e.ReadRaw(TSubscriber, SubscriberKey(sid))
	if !ok {
		t.Fatalf("subscriber %d missing", sid)
	}
	if got := DecodeSubscriber(val).VLR; got != wantVLR {
		t.Fatalf("VLR = %d, want %d", got, wantVLR)
	}
}

func TestInsertThenDeleteCallForwarding(t *testing.T) {
	wl := New(Config{Subscribers: 10})
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(2))
	wl.Populate(e.Load, sim.NewRand(1))
	// Build explicit logic against subscriber 3 with a facility we know
	// exists (scan raw to find one).
	var sfType uint32
	e.ScanRaw(TSpecialFacility, SFKey(3, 0), SFKey(4, 0), func(k, v []byte) bool {
		sfType = DecodeSpecialFacility(v).SFType
		return false
	})
	if sfType == 0 {
		t.Skip("subscriber 3 has no facilities under this seed")
	}
	key := CFKey(3, sfType, 99) // start_time outside populated values
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(2)}
		row := CallForwardingRow{SID: 3, SFType: sfType, StartTime: 99, EndTime: 100, NumberX: []byte("x")}
		ok := e.Submit(term, func(tx core.Tx) bool {
			return tx.Phase(core.Action{Table: TCallForwarding, Key: key, Body: func(c core.AccessCtx) bool {
				return c.Insert(TCallForwarding, key, row.Encode(c.Arena()))
			}})
		})
		if !ok {
			t.Error("insert failed")
		}
		ok = e.Submit(term, func(tx core.Tx) bool {
			return tx.Phase(core.Action{Table: TCallForwarding, Key: key, Body: func(c core.AccessCtx) bool {
				return c.Delete(TCallForwarding, key)
			}})
		})
		if !ok {
			t.Error("delete failed")
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.ReadRaw(TCallForwarding, key); ok {
		t.Fatal("row survived delete")
	}
}

func TestUpdateSubDataOnlyVariant(t *testing.T) {
	wl := New(Config{Subscribers: 200})
	only := wl.UpdateSubDataOnly()
	if only.Name() != "tatp-updsubdata" {
		t.Fatal("variant name")
	}
	r := sim.NewRand(1)
	for i := 0; i < 10; i++ {
		name, logic := only.NextTxn(r)
		if name != "UpdateSubscriberData" || logic == nil {
			t.Fatal("variant emits wrong transactions")
		}
	}
}

// AccessInfoKey returns the (s_id, ai_type) key.
func AccessInfoKey(sid uint64, aiType uint32) []byte { return keys{}.accessInfo(sid, aiType) }

// CFKey returns the (s_id, sf_type, start_time) key.
func CFKey(sid uint64, sfType, start uint32) []byte { return keys{}.cf(sid, sfType, start) }

// SFKey returns the (s_id, sf_type) key.
func SFKey(sid uint64, sfType uint32) []byte { return keys{}.sf(sid, sfType) }

// SubNbr renders the 15-digit subscriber number of s_id.
func SubNbr(sid uint64) []byte { return keys{}.subNbr(sid) }

// SubscriberKey returns the primary key for s_id.
func SubscriberKey(sid uint64) []byte { return keys{}.subscriber(sid) }
