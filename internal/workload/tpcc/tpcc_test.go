package tpcc

import (
	"bytes"
	"reflect"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/dora"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

func TestLastNameSyllables(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", LastName(0))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Errorf("LastName(999) = %q", LastName(999))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Errorf("LastName(371) = %q", LastName(371))
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
	w := WarehouseRow{WID: 3, Tax: 77, YTD: 300000}
	if g := DecodeWarehouse(encoded(t, "warehouse", w.Encode)); g != w {
		t.Fatalf("warehouse: %+v", g)
	}
	d := DistrictRow{WID: 2, DID: 5, Tax: 123, YTD: 4567, NextOID: 89}
	if g := DecodeDistrict(encoded(t, "district", d.Encode)); g != d {
		t.Fatalf("district: %+v", g)
	}
	c := CustomerRow{WID: 1, DID: 2, CID: 3, Last: []byte("BARBARBAR"), Credit: 1, Discount: 100, Balance: -4200, YTDPayment: 77, PaymentCnt: 3, DeliveryCnt: 1, Data: []byte("d")}
	if g := DecodeCustomer(encoded(t, "customer", c.Encode)); !reflect.DeepEqual(g, c) {
		t.Fatalf("customer: %+v", g)
	}
	it := ItemRow{IID: 9, Price: 1234, Name: []byte("item-9")}
	if g := DecodeItem(encoded(t, "item", it.Encode)); !reflect.DeepEqual(g, it) {
		t.Fatalf("item: %+v", g)
	}
	s := StockRow{WID: 1, IID: 9, Qty: -5, YTD: 100, OrderCnt: 7, RemoteCnt: 2}
	if g := DecodeStock(encoded(t, "stock", s.Encode)); g != s {
		t.Fatalf("stock: %+v", g)
	}
	o := OrderRow{WID: 1, DID: 2, OID: 3, CID: 4, EntryD: 5, Carrier: 6, OLCnt: 7, AllLocal: 1}
	if g := DecodeOrder(encoded(t, "order", o.Encode)); g != o {
		t.Fatalf("order: %+v", g)
	}
	ol := OrderLineRow{WID: 1, DID: 2, OID: 3, OL: 4, IID: 5, SupplyW: 6, Qty: 7, Amount: 8, DeliveryD: 9, DistInfo: []byte("x")}
	if g := DecodeOrderLine(encoded(t, "orderline", ol.Encode)); !reflect.DeepEqual(g, ol) {
		t.Fatalf("orderline: %+v", g)
	}
}

func TestPopulationShape(t *testing.T) {
	cfg := SmallConfig()
	w := New(cfg)
	rows := map[uint16]int{}
	w.Populate(func(table uint16, key, val []byte) { rows[table]++ }, sim.NewRand(1))
	if rows[TItem] != cfg.Items {
		t.Errorf("items=%d", rows[TItem])
	}
	if rows[TStock] != cfg.Items*cfg.Warehouses {
		t.Errorf("stock=%d", rows[TStock])
	}
	if rows[TWarehouse] != cfg.Warehouses || rows[TDistrict] != cfg.Warehouses*cfg.Districts {
		t.Errorf("warehouses=%d districts=%d", rows[TWarehouse], rows[TDistrict])
	}
	wantCust := cfg.Warehouses * cfg.Districts * cfg.CustomersPerDistrict
	if rows[TCustomer] != wantCust || rows[TCustNameIdx] != wantCust {
		t.Errorf("customers=%d idx=%d", rows[TCustomer], rows[TCustNameIdx])
	}
	wantOrders := cfg.Warehouses * cfg.Districts * cfg.InitialOrdersPerDistrict
	if rows[TOrder] != wantOrders {
		t.Errorf("orders=%d", rows[TOrder])
	}
	if rows[TOrderLine] < wantOrders*5 || rows[TOrderLine] > wantOrders*15 {
		t.Errorf("orderlines=%d", rows[TOrderLine])
	}
	if rows[TNewOrder] == 0 || rows[TNewOrder] >= wantOrders {
		t.Errorf("neworders=%d", rows[TNewOrder])
	}
}

func TestNURandRanges(t *testing.T) {
	w := New(SmallConfig())
	r := sim.NewRand(2)
	for i := 0; i < 5000; i++ {
		if c := w.randCID(r); c < 1 || c > uint64(w.cfg.CustomersPerDistrict) {
			t.Fatalf("cid %d", c)
		}
		if it := w.randItem(r); it < 1 || it > uint64(w.cfg.Items) {
			t.Fatalf("item %d", it)
		}
	}
}

// TestNewFillsConfig checks that New fills non-positive fields from
// DefaultConfig and raises Items to the 15 distinct items one NewOrder may
// draw: a zero field used to panic at the first draw, and fewer items made
// NewOrder's distinct-item draw loop forever.
func TestNewFillsConfig(t *testing.T) {
	if got := New(Config{}).Config(); got != DefaultConfig() {
		t.Errorf("New(Config{}).Config() = %+v, want %+v", got, DefaultConfig())
	}
	small := Config{Warehouses: 1, Districts: 1, CustomersPerDistrict: 3, Items: 3, InitialOrdersPerDistrict: 1}
	w := New(small)
	if got := w.Config().Items; got != maxOrderLines {
		t.Errorf("Items: 3 became %d, want %d", got, maxOrderLines)
	}
	for _, w := range []*Workload{New(Config{}), w} {
		r := sim.NewRand(1)
		for i := 0; i < 200; i++ {
			w.NewOrder(r)
			w.NextTxn(r)
		}
	}
}

func TestMixProportions(t *testing.T) {
	w := New(SmallConfig())
	r := sim.NewRand(4)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		name, _ := w.NextTxn(r)
		counts[name]++
	}
	expect := map[string]float64{"NewOrder": 0.45, "Payment": 0.43, "OrderStatus": 0.04, "Delivery": 0.04, "StockLevel": 0.04}
	for name, want := range expect {
		got := float64(counts[name]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%s: %.3f, want ~%.2f", name, got, want)
		}
	}
}

// mixEngine runs nTxns of the mix (or a variant) on an engine and returns it
// for inspection.
func mixEngine(t *testing.T, wl core.Workload, mk func(env *sim.Env) core.Engine, nTxns int, seed uint64) core.Engine {
	t.Helper()
	env := sim.NewEnv()
	e := mk(env)
	wl.Populate(e.Load, sim.NewRand(seed))
	e.Warm()
	const terminals = 4
	for term := 0; term < terminals; term++ {
		term := term
		r := sim.NewRand(seed + uint64(term) + 100)
		env.Spawn("terminal", func(p *sim.Proc) {
			tm := &core.Terminal{ID: term, P: p, Core: e.Platform().Cores[term%len(e.Platform().Cores)], R: r}
			for i := 0; i < nTxns/terminals; i++ {
				_, logic := wl.NextTxn(tm.R)
				e.Submit(tm, logic)
			}
			if term == 0 {
				// Last terminal out closes; harmless if others still run
				// since Close only stops daemons after drain.
			}
		})
	}
	if err := env.RunUntil(sim.Time(30 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkConsistency verifies the TPC-C consistency conditions the run must
// preserve: conditions 1 to 3 (CheckConsistency), every order id below the
// district's counter present, and order/line agreement.
func checkConsistency(t *testing.T, w *Workload, e core.Engine) {
	t.Helper()
	cfg := w.cfg
	if err := CheckConsistency(e, cfg); err != nil {
		t.Error(err)
	}
	for wid := uint64(1); wid <= uint64(cfg.Warehouses); wid++ {
		for did := uint64(1); did <= uint64(cfg.Districts); did++ {
			dv, ok := e.ReadRaw(TDistrict, DistrictKey(wid, did))
			if !ok {
				t.Fatalf("district %d.%d missing", wid, did)
			}
			d := DecodeDistrict(dv)
			// C1: every order id below NextOID exists; none at/above.
			var maxOID uint64
			orderCount := 0
			e.ScanRaw(TOrder, OrderKey(wid, did, 0), OrderKey(wid, did+1, 0), func(k, v []byte) bool {
				o := DecodeOrder(v)
				if o.OID > maxOID {
					maxOID = o.OID
				}
				orderCount++
				return true
			})
			if maxOID >= d.NextOID {
				t.Errorf("district %d.%d: order %d >= next_o_id %d", wid, did, maxOID, d.NextOID)
			}
			if uint64(orderCount) != d.NextOID-1 {
				t.Errorf("district %d.%d: %d orders for next_o_id %d", wid, did, orderCount, d.NextOID)
			}
			// Order lines agree with o_ol_cnt.
			e.ScanRaw(TOrder, OrderKey(wid, did, 0), OrderKey(wid, did+1, 0), func(k, v []byte) bool {
				o := DecodeOrder(v)
				lines := 0
				e.ScanRaw(TOrderLine, OrderLineKey(wid, did, o.OID, 0), OrderLineKey(wid, did, o.OID+1, 0), func(k2, v2 []byte) bool {
					lines++
					return true
				})
				if uint32(lines) != o.OLCnt {
					t.Errorf("order %d.%d.%d has %d lines, header says %d", wid, did, o.OID, lines, o.OLCnt)
					return false
				}
				return true
			})
		}
	}
}

func TestMixConsistencyOnDORA(t *testing.T) {
	w := New(SmallConfig())
	e := mixEngine(t, w, func(env *sim.Env) core.Engine {
		return core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(8))
	}, 400, 21)
	if e.Counters().Get("commits") < 300 {
		t.Fatalf("commits=%d", e.Counters().Get("commits"))
	}
	checkConsistency(t, w, e)
}

func TestMixConsistencyOnBionic(t *testing.T) {
	w := New(SmallConfig())
	e := mixEngine(t, w, func(env *sim.Env) core.Engine {
		return core.NewBionic(env, platform.HC2(), w.Tables(), w.Scheme(8), core.AllOffloads(), 8)
	}, 400, 22)
	if e.Counters().Get("commits") < 300 {
		t.Fatalf("commits=%d", e.Counters().Get("commits"))
	}
	checkConsistency(t, w, e)
}

func TestMixConsistencyOnConventional(t *testing.T) {
	w := New(SmallConfig())
	e := mixEngine(t, w, func(env *sim.Env) core.Engine {
		return core.NewConventional(env, platform.HC2(), w.Tables())
	}, 300, 23)
	if e.Counters().Get("commits") < 200 {
		t.Fatalf("commits=%d", e.Counters().Get("commits"))
	}
	checkConsistency(t, w, e)
}

func TestNewOrderAdvancesDistrictAndStock(t *testing.T) {
	w := New(SmallConfig())
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(4))
	w.Populate(e.Load, sim.NewRand(1))
	before := map[string]uint64{}
	for did := uint64(1); did <= uint64(w.cfg.Districts); did++ {
		dv, _ := e.ReadRaw(TDistrict, DistrictKey(1, did))
		before[string(DistrictKey(1, did))] = DecodeDistrict(dv).NextOID
	}
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(2)}
		commits := 0
		for i := 0; i < 20; i++ {
			if e.Submit(term, w.NewOrder(term.R)) {
				commits++
			}
		}
		if commits < 15 {
			t.Errorf("only %d/20 NewOrders committed", commits)
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	advanced := 0
	for did := uint64(1); did <= uint64(w.cfg.Districts); did++ {
		dv, _ := e.ReadRaw(TDistrict, DistrictKey(1, did))
		if DecodeDistrict(dv).NextOID > before[string(DistrictKey(1, did))] {
			advanced++
		}
	}
	// Warehouse 2 may also receive orders; at least some of warehouse 1's
	// districts must have advanced across 20 orders.
	total := 0
	for wid := uint64(1); wid <= uint64(w.cfg.Warehouses); wid++ {
		for did := uint64(1); did <= uint64(w.cfg.Districts); did++ {
			dv, _ := e.ReadRaw(TDistrict, DistrictKey(wid, did))
			total += int(DecodeDistrict(dv).NextOID)
		}
	}
	if advanced == 0 && total == 0 {
		t.Error("no district advanced")
	}
	checkConsistency(t, w, e)
}

func TestPaymentByNameFindsCustomer(t *testing.T) {
	w := New(SmallConfig())
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(4))
	w.Populate(e.Load, sim.NewRand(1))
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(3)}
		commits := 0
		for i := 0; i < 30; i++ {
			if e.Submit(term, w.Payment(term.R)) {
				commits++
			}
		}
		if commits < 20 {
			t.Errorf("only %d/30 Payments committed", commits)
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, w, e)
}

func TestDeliveryClearsNewOrders(t *testing.T) {
	w := New(SmallConfig())
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(4))
	w.Populate(e.Load, sim.NewRand(1))
	countNewOrders := func() int {
		n := 0
		e.ScanRaw(TNewOrder, nil, nil, func(k, v []byte) bool { n++; return true })
		return n
	}
	beforeCount := countNewOrders()
	if beforeCount == 0 {
		t.Fatal("population created no pending orders")
	}
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(4)}
		for i := 0; i < 5; i++ {
			e.Submit(term, w.Delivery(term.R))
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if after := countNewOrders(); after >= beforeCount {
		t.Fatalf("deliveries did not clear new orders: %d -> %d", beforeCount, after)
	}
	checkConsistency(t, w, e)
}

func TestStockLevelCommitsReadOnly(t *testing.T) {
	w := New(SmallConfig())
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(8))
	w.Populate(e.Load, sim.NewRand(1))
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(5)}
		commits := 0
		for i := 0; i < 10; i++ {
			if e.Submit(term, w.StockLevel(term.R)) {
				commits++
			}
		}
		if commits != 10 {
			t.Errorf("StockLevel commits=%d/10", commits)
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderRollbackLeavesNoTrace(t *testing.T) {
	// Force the 1% rollback path by iterating seeds until one triggers,
	// then verify the district counter and orders are untouched by the
	// aborted transaction (deterministic given the seed).
	w := New(SmallConfig())
	var seed uint64
	found := false
	for s := uint64(0); s < 4000 && !found; s++ {
		r := sim.NewRand(s)
		// Replicate the generator's decision order: wid, did, cid, olCnt, rollback.
		_ = r.Range(1, w.cfg.Warehouses)
		_ = r.Range(1, w.cfg.Districts)
		_ = w.randCID(r)
		_ = r.Range(5, 15)
		if r.Bool(0.01) {
			seed, found = s, true
		}
	}
	if !found {
		t.Fatal("no rollback seed found")
	}
	env := sim.NewEnv()
	e := core.NewDORA(env, platform.HC2(), w.Tables(), w.Scheme(4))
	w.Populate(e.Load, sim.NewRand(1))
	ordersBefore := 0
	e.ScanRaw(TOrder, nil, nil, func(k, v []byte) bool { ordersBefore++; return true })
	env.Spawn("term", func(p *sim.Proc) {
		term := &core.Terminal{ID: 0, P: p, Core: e.Platform().Cores[0], R: sim.NewRand(99)}
		if e.Submit(term, w.NewOrder(sim.NewRand(seed))) {
			t.Error("rollback NewOrder committed")
		}
		e.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ordersAfter := 0
	e.ScanRaw(TOrder, nil, nil, func(k, v []byte) bool { ordersAfter++; return true })
	if ordersAfter != ordersBefore {
		t.Fatalf("aborted NewOrder left orders: %d -> %d", ordersBefore, ordersAfter)
	}
	checkConsistency(t, w, e)
}

func TestSchemeRouting(t *testing.T) {
	w := New(SmallConfig())
	s := w.Scheme(8)
	// District-owned tables colocate.
	if s.Route(TDistrict, DistrictKey(1, 2)) != s.Route(TOrderLine, OrderLineKey(1, 2, 5, 1)) {
		t.Error("order lines not colocated with district")
	}
	if s.Route(TCustomer, CustomerKey(1, 2, 3)) != s.Route(TDistrict, DistrictKey(1, 2)) {
		t.Error("customer not colocated with district")
	}
	// Item is entity-free.
	if s.Entity(TItem, ItemKey(42)) != (dora.Entity{}) {
		t.Error("item should have no entity lock")
	}
	// Entity names read as they always have.
	if got := s.Entity(TStock, StockKey(1, 2)).String(); got != "s1.2" {
		t.Errorf("stock entity %q, want s1.2", got)
	}
	if got := s.Entity(TWarehouse, WarehouseKey(3)).String(); got != "w3" {
		t.Errorf("warehouse entity %q, want w3", got)
	}
	if got := s.Entity(TOrder, OrderKey(4, 10, 77)).String(); got != "d4.10" {
		t.Errorf("district entity %q, want d4.10", got)
	}
	// Stock entities are per (w, i).
	if s.Entity(TStock, StockKey(1, 2)) == s.Entity(TStock, StockKey(1, 3)) {
		t.Error("stock entities collide")
	}
	_ = storage.DecodeUint64
}

// CustomerKey returns customer (w, d, c)'s key.
func CustomerKey(wid, did, cid uint64) []byte { return keys{}.customer(wid, did, cid) }

// ItemKey returns item i's key.
func ItemKey(iid uint64) []byte { return keys{}.item(iid) }

// OrderLineKey returns order line (w, d, o, ol)'s key.
func OrderLineKey(wid, did, oid, ol uint64) []byte { return keys{}.orderLine(wid, did, oid, ol) }

// StockKey returns stock (w, i)'s key.
func StockKey(wid, iid uint64) []byte { return keys{}.stock(wid, iid) }
