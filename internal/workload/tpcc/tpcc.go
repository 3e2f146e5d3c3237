// Package tpcc implements the TPC-C benchmark: the nine-table warehouse
// schema, spec population rules (scaled), the NURand input distributions,
// and all five transactions in the standard 45/43/4/4/4 mix. TPC-C
// StockLevel is the right bar of the paper's Figure 3. Routing follows the
// DORA convention: district-owned tables partition by (warehouse,
// district), stock by (warehouse, item), and the district is the entity
// lock granule — the real TPC-C contention point.
package tpcc

import (
	"encoding/binary"
	"strconv"

	"bionicdb/internal/core"
	"bionicdb/internal/dora"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload"
)

// Table ids.
const (
	TWarehouse uint16 = iota + 10
	TDistrict
	TCustomer
	TCustNameIdx // (w, d, last, c) -> c
	TItem
	TStock
	TOrder
	TOrderCustIdx // (w, d, c, o) -> o
	TNewOrder
	TOrderLine
	THistory
)

// Config scales the benchmark. The spec values are Districts=10,
// CustomersPerDistrict=3000, Items=100000, InitialOrdersPerDistrict=3000;
// tests shrink them. New fills non-positive fields from DefaultConfig.
type Config struct {
	Warehouses               int
	Districts                int
	CustomersPerDistrict     int
	Items                    int
	InitialOrdersPerDistrict int
}

// DefaultConfig returns the scaled configuration used by the figure
// generators: 4 warehouses at spec ratios, with a reduced initial order
// backlog to keep population tractable.
func DefaultConfig() Config {
	return Config{Warehouses: 4, Districts: 10, CustomersPerDistrict: 3000, Items: 100000, InitialOrdersPerDistrict: 100}
}

// SmallConfig returns a miniature database for unit tests.
func SmallConfig() Config {
	return Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 30, Items: 200, InitialOrdersPerDistrict: 10}
}

// Workload implements core.Workload.
type Workload struct {
	cfg   Config
	cID   uint64 // NURand C constants, fixed per run
	cLast uint64
	cItem uint64

	// parts records the partition count of the last Scheme call so
	// StockLevel can batch its stock probes per partition (8 before any
	// Scheme call).
	parts int

	streams workload.PerStream[txns]
}

// New creates a TPC-C workload. Every non-positive Config field takes
// DefaultConfig's value, and Items is at least 15, the most distinct items
// one NewOrder draws.
func New(cfg Config) *Workload {
	def := DefaultConfig()
	if cfg.Warehouses < 1 {
		cfg.Warehouses = def.Warehouses
	}
	if cfg.Districts < 1 {
		cfg.Districts = def.Districts
	}
	if cfg.CustomersPerDistrict < 1 {
		cfg.CustomersPerDistrict = def.CustomersPerDistrict
	}
	if cfg.Items < 1 {
		cfg.Items = def.Items
	}
	cfg.Items = max(cfg.Items, maxOrderLines)
	if cfg.InitialOrdersPerDistrict < 1 {
		cfg.InitialOrdersPerDistrict = def.InitialOrdersPerDistrict
	}
	w := &Workload{cfg: cfg, cID: 259, cLast: 173, cItem: 7911, parts: 8}
	w.streams.New = w.newTxns
	return w
}

// stockPartition mirrors Scheme's stock routing for probe batching.
func (w *Workload) stockPartition(wid, iid uint64) int {
	return int((wid*7919 + iid) % uint64(w.parts))
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "tpcc" }

// Config returns the scale parameters.
func (w *Workload) Config() Config { return w.cfg }

// Tables implements core.Workload.
func (w *Workload) Tables() []core.TableDef {
	return []core.TableDef{
		{ID: TWarehouse, Name: "warehouse", Order: 64},
		{ID: TDistrict, Name: "district", Order: 64},
		{ID: TCustomer, Name: "customer", Order: 128},
		{ID: TCustNameIdx, Name: "customer_name_idx", Order: 128},
		{ID: TItem, Name: "item", Order: 128},
		{ID: TStock, Name: "stock", Order: 128},
		{ID: TOrder, Name: "orders", Order: 128},
		{ID: TOrderCustIdx, Name: "order_cust_idx", Order: 128},
		{ID: TNewOrder, Name: "new_order", Order: 128},
		{ID: TOrderLine, Name: "order_line", Order: 128},
		{ID: THistory, Name: "history", Order: 128},
	}
}

// Scheme implements core.Workload.
func (w *Workload) Scheme(partitions int) core.PartitionScheme {
	w.parts = partitions
	return core.PartitionScheme{
		Partitions: partitions,
		Route: func(table uint16, key []byte) int {
			switch table {
			case TItem:
				return int(storage.DecodeUint64(key) % uint64(partitions))
			case TStock:
				wid := storage.DecodeUint64(key)
				iid := storage.DecodeUint64(key[8:])
				return int((wid*7919 + iid) % uint64(partitions))
			case TWarehouse:
				return int(storage.DecodeUint64(key) % uint64(partitions))
			default:
				// District-owned tables: (w, d) are the first two fields.
				wid := storage.DecodeUint64(key)
				did := storage.DecodeUint64(key[8:])
				return int((wid*31 + did) % uint64(partitions))
			}
		},
		Entity: func(table uint16, key []byte) dora.Entity {
			switch table {
			case TItem:
				return dora.Entity{} // read-only after load
			case TStock:
				return dora.Entity2('s', storage.DecodeUint64(key), storage.DecodeUint64(key[8:]))
			case TWarehouse:
				return dora.Entity1('w', storage.DecodeUint64(key))
			default:
				return dora.Entity2('d', storage.DecodeUint64(key), storage.DecodeUint64(key[8:]))
			}
		},
	}
}

// Keys.

// keys builds every table's key, in the arena a: the transaction path and
// Populate build theirs in the attempt's (or the row's) arena, where they cost
// no allocation, and the exported functions below build in the nil arena,
// which returns fresh slices the caller owns.
type keys struct{ a *storage.Arena }

func (k keys) warehouse(wid uint64) []byte          { return k.a.Uint64Key(wid) }
func (k keys) district(wid, did uint64) []byte      { return k.a.CompositeKey(wid, did) }
func (k keys) customer(wid, did, cid uint64) []byte { return k.a.CompositeKey(wid, did, cid) }
func (k keys) item(iid uint64) []byte               { return k.a.Uint64Key(iid) }
func (k keys) stock(wid, iid uint64) []byte         { return k.a.CompositeKey(wid, iid) }
func (k keys) order(wid, did, oid uint64) []byte    { return k.a.CompositeKey(wid, did, oid) }

func (k keys) orderLine(wid, did, oid, ol uint64) []byte {
	return k.a.CompositeKey(wid, did, oid, ol)
}

// orderCust is the customer-order index key (w, d, c, o).
func (k keys) orderCust(wid, did, cid, oid uint64) []byte {
	return k.a.CompositeKey(wid, did, cid, oid)
}

// history is the history row's key (w, d, customer's w, a unique draw).
func (k keys) history(wid, did, cwid, uniq uint64) []byte {
	return k.a.CompositeKey(wid, did, cwid, uniq)
}

// custNameTo builds (w, d, last, sep) with room for extra bytes after it: the
// part of a last-name index key that bounds and keys share.
func (k keys) custNameTo(wid, did uint64, last string, sep byte, extra int) []byte {
	n := 16 + len(last) + 1
	out := k.a.Alloc(n + extra)
	binary.BigEndian.PutUint64(out, wid)
	binary.BigEndian.PutUint64(out[8:], did)
	copy(out[16:], last)
	out[n-1] = sep
	return out
}

// custName is the last-name index key (w, d, last, 0, c).
func (k keys) custName(wid, did uint64, last string, cid uint64) []byte {
	out := k.custNameTo(wid, did, last, 0, 8)
	binary.BigEndian.PutUint64(out[len(out)-8:], cid)
	return out
}

// custNameBounds bounds a last-name scan.
func (k keys) custNameBounds(wid, did uint64, last string) (from, to []byte) {
	return k.custNameTo(wid, did, last, 0, 0), k.custNameTo(wid, did, last, 1, 0)
}

// WarehouseKey returns warehouse w's key (1-based).
func WarehouseKey(wid uint64) []byte { return keys{}.warehouse(wid) }

// DistrictKey returns district (w, d)'s key.
func DistrictKey(wid, did uint64) []byte { return keys{}.district(wid, did) }

// OrderKey returns order (w, d, o)'s key.
func OrderKey(wid, did, oid uint64) []byte { return keys{}.order(wid, did, oid) }

// Rows. Encode builds a row in an arena at its exact size: the transaction
// path in the attempt's arena and Populate in the row's, since the store
// copies the rows it keeps, and a nil arena returns a fresh row the caller
// owns. A decoded row's variable-width fields ([]byte) are views into the
// encoded row: stored rows are immutable (a write replaces the row, it never
// overwrites it in place), so a view stays good for as long as the row it
// came from is reachable, and decoding copies nothing.

// WarehouseRow is the decoded warehouse tuple.
type WarehouseRow struct {
	WID uint64
	Tax uint32 // basis points
	YTD uint64 // cents
}

// Encode serializes the row in a.
func (r *WarehouseRow) Encode(a *storage.Arena) []byte {
	return storage.NewRecordWriter(a, 20).Uint64(r.WID).Uint32(r.Tax).Uint64(r.YTD).Finish()
}

// DecodeWarehouse parses a warehouse row.
func DecodeWarehouse(b []byte) WarehouseRow {
	rd := storage.NewRecordReader(b)
	return WarehouseRow{WID: rd.Uint64(), Tax: rd.Uint32(), YTD: rd.Uint64()}
}

// DistrictRow is the decoded district tuple.
type DistrictRow struct {
	WID, DID uint64
	Tax      uint32
	YTD      uint64
	NextOID  uint64
}

// Encode serializes the row in a.
func (r *DistrictRow) Encode(a *storage.Arena) []byte {
	return storage.NewRecordWriter(a, 36).Uint64(r.WID).Uint64(r.DID).Uint32(r.Tax).Uint64(r.YTD).Uint64(r.NextOID).Finish()
}

// DecodeDistrict parses a district row.
func DecodeDistrict(b []byte) DistrictRow {
	rd := storage.NewRecordReader(b)
	return DistrictRow{WID: rd.Uint64(), DID: rd.Uint64(), Tax: rd.Uint32(), YTD: rd.Uint64(), NextOID: rd.Uint64()}
}

// CustomerRow is the decoded customer tuple.
type CustomerRow struct {
	WID, DID, CID uint64
	Last          []byte
	Credit        uint32 // 0 = GC, 1 = BC
	Discount      uint32 // basis points
	Balance       int64  // cents
	YTDPayment    uint64
	PaymentCnt    uint32
	DeliveryCnt   uint32
	Data          []byte
}

// Encode serializes the row in a.
func (r *CustomerRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 60+len(r.Last)+len(r.Data))
	w.Uint64(r.WID).Uint64(r.DID).Uint64(r.CID).Bytes(r.Last).Uint32(r.Credit).Uint32(r.Discount)
	w.Uint64(uint64(r.Balance)).Uint64(r.YTDPayment).Uint32(r.PaymentCnt).Uint32(r.DeliveryCnt).Bytes(r.Data)
	return w.Finish()
}

// DecodeCustomer parses a customer row.
func DecodeCustomer(b []byte) CustomerRow {
	rd := storage.NewRecordReader(b)
	return CustomerRow{
		WID: rd.Uint64(), DID: rd.Uint64(), CID: rd.Uint64(), Last: rd.Bytes(),
		Credit: rd.Uint32(), Discount: rd.Uint32(), Balance: int64(rd.Uint64()),
		YTDPayment: rd.Uint64(), PaymentCnt: rd.Uint32(), DeliveryCnt: rd.Uint32(), Data: rd.Bytes(),
	}
}

// ItemRow is the decoded item tuple.
type ItemRow struct {
	IID   uint64
	Price uint32 // cents
	Name  []byte
}

// Encode serializes the row in a.
func (r *ItemRow) Encode(a *storage.Arena) []byte {
	return storage.NewRecordWriter(a, 14+len(r.Name)).Uint64(r.IID).Uint32(r.Price).Bytes(r.Name).Finish()
}

// DecodeItem parses an item row.
func DecodeItem(b []byte) ItemRow {
	rd := storage.NewRecordReader(b)
	return ItemRow{IID: rd.Uint64(), Price: rd.Uint32(), Name: rd.Bytes()}
}

// StockRow is the decoded stock tuple.
type StockRow struct {
	WID, IID  uint64
	Qty       int64
	YTD       uint64
	OrderCnt  uint32
	RemoteCnt uint32
}

// Encode serializes the row in a.
func (r *StockRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 40)
	w.Uint64(r.WID).Uint64(r.IID).Uint64(uint64(r.Qty)).Uint64(r.YTD).Uint32(r.OrderCnt).Uint32(r.RemoteCnt)
	return w.Finish()
}

// DecodeStock parses a stock row.
func DecodeStock(b []byte) StockRow {
	rd := storage.NewRecordReader(b)
	return StockRow{WID: rd.Uint64(), IID: rd.Uint64(), Qty: int64(rd.Uint64()), YTD: rd.Uint64(), OrderCnt: rd.Uint32(), RemoteCnt: rd.Uint32()}
}

// OrderRow is the decoded order tuple.
type OrderRow struct {
	WID, DID, OID, CID uint64
	EntryD             uint64
	Carrier            uint32 // 0 = undelivered
	OLCnt              uint32
	AllLocal           uint32
}

// Encode serializes the row in a.
func (r *OrderRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 52)
	w.Uint64(r.WID).Uint64(r.DID).Uint64(r.OID).Uint64(r.CID).Uint64(r.EntryD).Uint32(r.Carrier).Uint32(r.OLCnt).Uint32(r.AllLocal)
	return w.Finish()
}

// DecodeOrder parses an order row.
func DecodeOrder(b []byte) OrderRow {
	rd := storage.NewRecordReader(b)
	return OrderRow{WID: rd.Uint64(), DID: rd.Uint64(), OID: rd.Uint64(), CID: rd.Uint64(), EntryD: rd.Uint64(), Carrier: rd.Uint32(), OLCnt: rd.Uint32(), AllLocal: rd.Uint32()}
}

// OrderLineRow is the decoded order-line tuple.
type OrderLineRow struct {
	WID, DID, OID, OL uint64
	IID               uint64
	SupplyW           uint64
	Qty               uint32
	Amount            uint64 // cents
	DeliveryD         uint64 // 0 = undelivered
	DistInfo          []byte
}

// Encode serializes the row in a.
func (r *OrderLineRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 70+len(r.DistInfo))
	w.Uint64(r.WID).Uint64(r.DID).Uint64(r.OID).Uint64(r.OL).Uint64(r.IID).Uint64(r.SupplyW)
	w.Uint32(r.Qty).Uint64(r.Amount).Uint64(r.DeliveryD).Bytes(r.DistInfo)
	return w.Finish()
}

// DecodeOrderLine parses an order-line row.
func DecodeOrderLine(b []byte) OrderLineRow {
	rd := storage.NewRecordReader(b)
	return OrderLineRow{
		WID: rd.Uint64(), DID: rd.Uint64(), OID: rd.Uint64(), OL: rd.Uint64(), IID: rd.Uint64(),
		SupplyW: rd.Uint64(), Qty: rd.Uint32(), Amount: rd.Uint64(), DeliveryD: rd.Uint64(), DistInfo: rd.Bytes(),
	}
}

// lastNames are the spec last names (clause 4.3.2.3), by number.
var lastNames = func() (names [1000]string) {
	syllables := [10]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	for num := range names {
		names[num] = syllables[num/100] + syllables[(num/10)%10] + syllables[num%10]
	}
	return names
}()

// LastName returns the spec last name for a 0-999 number.
func LastName(num int) string { return lastNames[num] }

// nuRand is the spec's non-uniform random generator.
func nuRand(r *sim.Rand, a, c, x, y uint64) uint64 {
	return (((r.Uint64()%(a+1))|(x+r.Uint64()%(y-x+1)))+c)%(y-x+1) + x
}

func (w *Workload) randCID(r *sim.Rand) uint64 {
	return nuRand(r, 1023, w.cID, 1, uint64(w.cfg.CustomersPerDistrict))
}

func (w *Workload) randItem(r *sim.Rand) uint64 {
	return nuRand(r, 8191, w.cItem, 1, uint64(w.cfg.Items))
}

func (w *Workload) randLastNum(r *sim.Rand) int {
	span := uint64(w.cfg.CustomersPerDistrict / 3)
	if span < 1 {
		span = 1
	}
	if span > 1000 {
		span = 1000
	}
	return int(nuRand(r, 255, w.cLast, 0, span-1))
}

// Row texts the workload writes; Encode copies them into the row. The
// new-order marker is a whole row: the store copies it.
var (
	dataInitial    = []byte("initial")
	dataBCTrail    = []byte("bc-trail")
	distInfoPad    = []byte("dist-info-pad")
	histPayment    = []byte("payment")
	newOrderMarker = []byte{1}
)

// Populate implements core.Workload. Every key and row is built in one
// arena that is reset after each load: the engine's tree copies the keys and
// rows it keeps, so a fresh slice per row would be allocated twice.
func (w *Workload) Populate(load func(table uint16, key, val []byte), r *sim.Rand) {
	cfg := w.cfg
	var arena storage.Arena
	k := keys{&arena}
	put := func(table uint16, key, val []byte) {
		load(table, key, val)
		arena.Reset()
	}
	var name []byte
	for i := 1; i <= cfg.Items; i++ {
		name = strconv.AppendUint(append(name[:0], "item-"...), uint64(i), 10)
		row := ItemRow{IID: uint64(i), Price: uint32(r.Range(100, 10000)), Name: name}
		put(TItem, k.item(uint64(i)), row.Encode(&arena))
	}
	for wid := 1; wid <= cfg.Warehouses; wid++ {
		wrow := WarehouseRow{WID: uint64(wid), Tax: uint32(r.Intn(2001))}
		put(TWarehouse, k.warehouse(uint64(wid)), wrow.Encode(&arena))
		for i := 1; i <= cfg.Items; i++ {
			srow := StockRow{WID: uint64(wid), IID: uint64(i), Qty: int64(r.Range(10, 100))}
			put(TStock, k.stock(uint64(wid), uint64(i)), srow.Encode(&arena))
		}
		for did := 1; did <= cfg.Districts; did++ {
			nOrders := cfg.InitialOrdersPerDistrict
			drow := DistrictRow{WID: uint64(wid), DID: uint64(did), Tax: uint32(r.Intn(2001)), NextOID: uint64(nOrders + 1)}
			put(TDistrict, k.district(uint64(wid), uint64(did)), drow.Encode(&arena))
			for cid := 1; cid <= cfg.CustomersPerDistrict; cid++ {
				lastNum := cid - 1
				if cid > 1000 {
					lastNum = int(nuRand(r, 255, w.cLast, 0, 999))
				}
				credit := uint32(0)
				if r.Bool(0.1) {
					credit = 1
				}
				last := LastName(lastNum % 1000)
				crow := CustomerRow{
					WID: uint64(wid), DID: uint64(did), CID: uint64(cid),
					Last: []byte(last), Credit: credit,
					Discount: uint32(r.Intn(5001)), Balance: -1000, Data: dataInitial,
				}
				put(TCustomer, k.customer(uint64(wid), uint64(did), uint64(cid)), crow.Encode(&arena))
				put(TCustNameIdx, k.custName(uint64(wid), uint64(did), last, uint64(cid)), arena.Uint64Key(uint64(cid)))
			}
			// Initial order backlog: the last 1/3 are undelivered.
			for oid := 1; oid <= nOrders; oid++ {
				cid := uint64(r.Range(1, cfg.CustomersPerDistrict))
				olCnt := uint64(r.Range(5, 15))
				carrier := uint32(r.Range(1, 10))
				undelivered := oid > nOrders*2/3
				if undelivered {
					carrier = 0
				}
				orow := OrderRow{WID: uint64(wid), DID: uint64(did), OID: uint64(oid), CID: cid, Carrier: carrier, OLCnt: uint32(olCnt), AllLocal: 1}
				put(TOrder, k.order(uint64(wid), uint64(did), uint64(oid)), orow.Encode(&arena))
				put(TOrderCustIdx, k.orderCust(uint64(wid), uint64(did), cid, uint64(oid)), arena.Uint64Key(uint64(oid)))
				if undelivered {
					put(TNewOrder, k.order(uint64(wid), uint64(did), uint64(oid)), newOrderMarker)
				}
				for ol := uint64(1); ol <= olCnt; ol++ {
					deliveryD := uint64(1)
					if undelivered {
						deliveryD = 0
					}
					olrow := OrderLineRow{
						WID: uint64(wid), DID: uint64(did), OID: uint64(oid), OL: ol,
						IID: uint64(r.Range(1, cfg.Items)), SupplyW: uint64(wid),
						Qty: 5, Amount: uint64(r.Range(1, 999900)), DeliveryD: deliveryD, DistInfo: distInfoPad,
					}
					put(TOrderLine, k.orderLine(uint64(wid), uint64(did), uint64(oid), ol), olrow.Encode(&arena))
				}
			}
		}
	}
}

// Transaction mix (spec minimums, standard configuration).
const (
	pNewOrder    = 45
	pPayment     = 43
	pOrderStatus = 4
	pDelivery    = 4
	// StockLevel takes the remaining 4%.
)

// NextTxn implements core.Workload.
func (w *Workload) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	p := r.Intn(100)
	switch {
	case p < pNewOrder:
		return "NewOrder", w.NewOrder(r)
	case p < pNewOrder+pPayment:
		return "Payment", w.Payment(r)
	case p < pNewOrder+pPayment+pOrderStatus:
		return "OrderStatus", w.OrderStatus(r)
	case p < pNewOrder+pPayment+pOrderStatus+pDelivery:
		return "Delivery", w.Delivery(r)
	default:
		return "StockLevel", w.StockLevel(r)
	}
}

// StockLevelOnly returns a workload variant emitting only StockLevel — the
// Figure 3 right-bar configuration.
func (w *Workload) StockLevelOnly() core.Workload {
	return workload.NewSingle(w, "tpcc-stocklevel", "StockLevel", w.StockLevel)
}

// NewOrderOnly returns a NewOrder-only variant for contention studies.
func (w *Workload) NewOrderOnly() core.Workload {
	return workload.NewSingle(w, "tpcc-neworder", "NewOrder", w.NewOrder)
}
