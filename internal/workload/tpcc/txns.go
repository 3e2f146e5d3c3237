package tpcc

import (
	"cmp"
	"slices"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

// Transactions. Each type is an input struct that its exported method fills
// with the spec's draws from r, returning the struct's logic, which stays
// valid until r's next draw. The struct belongs to r (txns); its logic,
// action bodies and scan callbacks are method values bound once, in bind, so
// an attempt builds only its keys, in the attempt's arena, and hands Phase
// the struct's own action arrays. What an attempt computes (an order id, a
// customer's id list, the rows to update) is scratch in the struct too, and
// every attempt resets it before use: a retried logic runs again from the
// same inputs.

// txns is one stream's transaction inputs, one struct per type.
type txns struct {
	newOrder    newOrder
	payment     payment
	orderStatus orderStatus
	delivery    delivery
	stockLevel  stockLevel
}

func (w *Workload) newTxns() *txns {
	t := new(txns)
	t.newOrder.bind()
	t.payment.bind()
	t.orderStatus.bind()
	t.delivery.bind(w)
	t.stockLevel.bind(w)
	return t
}

// maxOrderLines is the most lines a NewOrder draws (spec: 5 to 15).
const maxOrderLines = 15

// NewOrder is the spec's order-entry transaction (45%): read warehouse and
// district, allocate the order id, read+update one stock row per line
// (1% of orders carry an invalid item and roll back), then insert the
// order, its lines, and the new-order queue entry.
func (w *Workload) NewOrder(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	t := &w.streams.Of(r).newOrder
	t.wid = uint64(r.Range(1, cfg.Warehouses))
	t.did = uint64(r.Range(1, cfg.Districts))
	t.cid = w.randCID(r)
	t.n = r.Range(5, maxOrderLines)
	rollback := r.Bool(0.01)
	for i := range t.n {
		ln := &t.lines[i]
		ln.iid = w.randItem(r)
		for t.drawn(i, ln.iid) {
			ln.iid = w.randItem(r)
		}
		ln.supplyW = t.wid
		if cfg.Warehouses > 1 && r.Bool(0.01) {
			for ln.supplyW == t.wid {
				ln.supplyW = uint64(r.Range(1, cfg.Warehouses))
			}
			// remote line
		}
		ln.qty = uint32(r.Range(1, 10))
	}
	if rollback {
		t.lines[t.n-1].iid = uint64(cfg.Items + 1) // unused item id
	}
	t.entryD = r.Uint64()
	return t.logic
}

type newOrder struct {
	wid, did, cid uint64
	lines         [maxOrderLines]orderLine
	n             int // lines drawn
	entryD        uint64

	oid   uint64                     // allocated by the district action
	head  [2]core.Action             // district, warehouse
	stock [maxOrderLines]core.Action // one per line
	order [1]core.Action
	logic core.TxnLogic
}

// orderLine is one drawn line and the amount its stock action prices it at.
type orderLine struct {
	t       *newOrder
	iid     uint64
	supplyW uint64
	qty     uint32
	amount  uint64
}

func (t *newOrder) bind() {
	t.logic = t.run
	t.head = [2]core.Action{
		{Table: TDistrict, Body: t.district},
		{Table: TWarehouse, NoLock: true, Body: t.warehouse},
	}
	for i := range t.lines {
		t.lines[i].t = t
		t.stock[i] = core.Action{Table: TStock, Body: t.lines[i].stock}
	}
	t.order[0] = core.Action{Table: TOrder, Body: t.insert}
}

// drawn reports whether one of the first i lines orders item iid.
func (t *newOrder) drawn(i int, iid uint64) bool {
	for _, ln := range t.lines[:i] {
		if ln.iid == iid {
			return true
		}
	}
	return false
}

func (t *newOrder) run(tx core.Tx) bool {
	t.oid = 0
	// Phase 1: district allocates the order id; customer and warehouse are
	// read for tax/discount. The warehouse tax read takes no entity lock
	// (read-committed suffices, and it keeps the entity-acquisition order
	// warehouse < district cycle-free against Payment).
	tk := keys{tx.Arena()}
	t.head[0].Key, t.head[1].Key = tk.district(t.wid, t.did), tk.warehouse(t.wid)
	if !tx.Phase(t.head[:]...) {
		return false
	}
	// Phase 2: one action per order line on its stock partition; the
	// read-only item lookup rides along (items are immutable).
	for i := range t.n {
		ln := &t.lines[i]
		ln.amount = 0
		t.stock[i].Key = tk.stock(ln.supplyW, ln.iid)
	}
	if !tx.Phase(t.stock[:t.n]...) {
		return false
	}
	// Phase 3: materialize the order in the district partition.
	t.order[0].Key = tk.order(t.wid, t.did, t.oid)
	return tx.Phase(t.order[:]...)
}

func (t *newOrder) district(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	dk := k.district(t.wid, t.did)
	dv, found := c.ReadForUpdate(TDistrict, dk)
	if !found {
		return false
	}
	d := DecodeDistrict(dv)
	t.oid = d.NextOID
	d.NextOID++
	if !c.Update(TDistrict, dk, d.Encode(c.Arena())) {
		return false
	}
	_, found = c.Read(TCustomer, k.customer(t.wid, t.did, t.cid))
	return found
}

func (t *newOrder) warehouse(c core.AccessCtx) bool {
	_, found := c.Read(TWarehouse, keys{c.Arena()}.warehouse(t.wid))
	return found
}

func (ln *orderLine) stock(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	iv, found := c.Read(TItem, k.item(ln.iid))
	if !found {
		return false // invalid item: spec rollback
	}
	item := DecodeItem(iv)
	sk := k.stock(ln.supplyW, ln.iid)
	sv, found := c.ReadForUpdate(TStock, sk)
	if !found {
		return false
	}
	s := DecodeStock(sv)
	if s.Qty >= int64(ln.qty)+10 {
		s.Qty -= int64(ln.qty)
	} else {
		s.Qty = s.Qty - int64(ln.qty) + 91
	}
	s.YTD += uint64(ln.qty)
	s.OrderCnt++
	if ln.supplyW != ln.t.wid {
		s.RemoteCnt++
	}
	if !c.Update(TStock, sk, s.Encode(c.Arena())) {
		return false
	}
	ln.amount = uint64(ln.qty) * uint64(item.Price)
	return true
}

func (t *newOrder) insert(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	lines := t.lines[:t.n]
	allLocal := uint32(1)
	for _, ln := range lines {
		if ln.supplyW != t.wid {
			allLocal = 0
		}
	}
	o := OrderRow{WID: t.wid, DID: t.did, OID: t.oid, CID: t.cid, EntryD: t.entryD, OLCnt: uint32(len(lines)), AllLocal: allLocal}
	okey := k.order(t.wid, t.did, t.oid)
	if !c.Insert(TOrder, okey, o.Encode(c.Arena())) {
		return false
	}
	if !c.Insert(TOrderCustIdx, k.orderCust(t.wid, t.did, t.cid, t.oid), c.Arena().Uint64Key(t.oid)) {
		return false
	}
	if !c.Insert(TNewOrder, okey, newOrderMarker) {
		return false
	}
	for i, ln := range lines {
		olr := OrderLineRow{WID: t.wid, DID: t.did, OID: t.oid, OL: uint64(i + 1), IID: ln.iid,
			SupplyW: ln.supplyW, Qty: ln.qty, Amount: ln.amount, DistInfo: distInfoPad}
		if !c.Insert(TOrderLine, k.orderLine(t.wid, t.did, t.oid, uint64(i+1)), olr.Encode(c.Arena())) {
			return false
		}
	}
	return true
}

// Payment is the spec's payment transaction (43%): update warehouse and
// district YTD, select the customer (60% by last name), update the
// customer, and insert a history row. 15% of payments come from a remote
// customer.
func (w *Workload) Payment(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	t := &w.streams.Of(r).payment
	t.wid = uint64(r.Range(1, cfg.Warehouses))
	t.did = uint64(r.Range(1, cfg.Districts))
	t.cwid, t.cdid = t.wid, t.did
	if cfg.Warehouses > 1 && r.Bool(0.15) {
		for t.cwid == t.wid {
			t.cwid = uint64(r.Range(1, cfg.Warehouses))
		}
		t.cdid = uint64(r.Range(1, cfg.Districts))
	}
	t.cust.draw(w, r)
	t.amount = uint64(r.Range(100, 500000))
	t.uniq = r.Uint64()
	return t.logic
}

type payment struct {
	wid, did, cwid, cdid uint64
	cust                 custSelect
	amount, uniq         uint64

	dist, custAct, hist, wh [1]core.Action
	logic                   core.TxnLogic
}

func (t *payment) bind() {
	t.logic = t.run
	t.cust.bind()
	t.dist[0] = core.Action{Table: TDistrict, Body: t.district}
	t.custAct[0] = core.Action{Table: TCustomer, Body: t.customer}
	t.hist[0] = core.Action{Table: THistory, Body: t.history}
	t.wh[0] = core.Action{Table: TWarehouse, Body: t.warehouse}
}

func (t *payment) run(tx core.Tx) bool {
	// The district and customer phases run first; the warehouse YTD
	// update — TPC-C's hottest row — runs as the final phase so the
	// warehouse entity is held for only one short phase before commit
	// instead of the whole transaction (otherwise every Payment on
	// the warehouse convoys behind whichever holder blocks).
	tk := keys{tx.Arena()}
	t.dist[0].Key = tk.district(t.wid, t.did)
	if !tx.Phase(t.dist[:]...) {
		return false
	}
	// Phase 2: customer selection and update in its home partition.
	if t.cust.byName {
		t.custAct[0].Key = tk.district(t.cwid, t.cdid) // routing only needs (w, d)
	} else {
		t.custAct[0].Key = tk.customer(t.cwid, t.cdid, t.cust.cid)
	}
	if !tx.Phase(t.custAct[:]...) {
		return false
	}
	// Phase 3: history row in the home district partition.
	t.hist[0].Key = tk.history(t.wid, t.did, t.cwid, t.uniq)
	if !tx.Phase(t.hist[:]...) {
		return false
	}
	// Final phase: the warehouse YTD update, held only across commit.
	t.wh[0].Key = tk.warehouse(t.wid)
	return tx.Phase(t.wh[:]...)
}

func (t *payment) district(c core.AccessCtx) bool {
	dk := keys{c.Arena()}.district(t.wid, t.did)
	dv, found := c.ReadForUpdate(TDistrict, dk)
	if !found {
		return false
	}
	d := DecodeDistrict(dv)
	d.YTD += t.amount
	return c.Update(TDistrict, dk, d.Encode(c.Arena()))
}

func (t *payment) customer(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	target, found := t.cust.find(c, k, t.cwid, t.cdid)
	if !found {
		return false // no such customer: spec rollback
	}
	ck := k.customer(t.cwid, t.cdid, target)
	cv, found := c.ReadForUpdate(TCustomer, ck)
	if !found {
		return false
	}
	cr := DecodeCustomer(cv)
	cr.Balance -= int64(t.amount)
	cr.YTDPayment += t.amount
	cr.PaymentCnt++
	if cr.Credit == 1 { // bad credit: data trail update
		cr.Data = dataBCTrail
	}
	return c.Update(TCustomer, ck, cr.Encode(c.Arena()))
}

func (t *payment) history(c core.AccessCtx) bool {
	row := storage.NewRecordWriter(c.Arena(), 26+len(histPayment)).Uint64(t.cwid).Uint64(t.cdid).Uint64(t.amount).Bytes(histPayment).Finish()
	return c.Insert(THistory, t.hist[0].Key, row)
}

func (t *payment) warehouse(c core.AccessCtx) bool {
	wk := keys{c.Arena()}.warehouse(t.wid)
	wv, found := c.ReadForUpdate(TWarehouse, wk)
	if !found {
		return false
	}
	wr := DecodeWarehouse(wv)
	wr.YTD += t.amount
	return c.Update(TWarehouse, wk, wr.Encode(c.Arena()))
}

// custSelect is how Payment and OrderStatus pick their customer: 60% by
// last name, the rest by a non-uniform id.
type custSelect struct {
	byName   bool
	cid      uint64
	lastName string

	ids     []uint64 // the name's matches, per attempt
	collect func(key, val []byte) bool
}

func (s *custSelect) bind() { s.collect = s.add }

func (s *custSelect) draw(w *Workload, r *sim.Rand) {
	s.byName = r.Bool(0.6)
	s.cid, s.lastName = 0, ""
	if s.byName {
		s.lastName = LastName(w.randLastNum(r) % 1000)
	} else {
		s.cid = w.randCID(r)
	}
}

// find returns the selected customer's id in (wid, did): the drawn id, or
// the middle one, in id order, of the customers with the drawn last name;
// false when no customer has that name.
func (s *custSelect) find(c core.AccessCtx, k keys, wid, did uint64) (uint64, bool) {
	if !s.byName {
		return s.cid, true
	}
	s.ids = s.ids[:0]
	from, to := k.custNameBounds(wid, did, s.lastName)
	c.Scan(TCustNameIdx, from, to, s.collect)
	if len(s.ids) == 0 {
		return 0, false
	}
	slices.Sort(s.ids)
	return s.ids[len(s.ids)/2], true
}

func (s *custSelect) add(_, v []byte) bool {
	s.ids = append(s.ids, storage.DecodeUint64(v))
	return true
}

// OrderStatus is the spec's read-only status inquiry (4%): locate the
// customer (60% by last name), find their most recent order, read its
// lines.
func (w *Workload) OrderStatus(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	t := &w.streams.Of(r).orderStatus
	t.wid = uint64(r.Range(1, cfg.Warehouses))
	t.did = uint64(r.Range(1, cfg.Districts))
	t.cust.draw(w, r)
	return t.logic
}

type orderStatus struct {
	wid, did uint64
	cust     custSelect

	lastOID uint64 // the customer's most recent order, per attempt
	lineCnt uint32 // its lines, per attempt
	act     [1]core.Action
	lastFn  func(key, val []byte) bool
	countFn func(key, val []byte) bool
	logic   core.TxnLogic
}

func (t *orderStatus) bind() {
	t.logic, t.lastFn, t.countFn = t.run, t.lastOrder, t.countLine
	t.cust.bind()
	t.act[0] = core.Action{Table: TCustomer, Body: t.status}
}

func (t *orderStatus) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.district(t.wid, t.did)
	return tx.Phase(t.act[:]...)
}

func (t *orderStatus) status(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	target, found := t.cust.find(c, k, t.wid, t.did)
	if !found {
		return false
	}
	if _, found := c.Read(TCustomer, k.customer(t.wid, t.did, target)); !found {
		return false
	}
	// Most recent order via the customer-order index.
	t.lastOID = 0
	c.Scan(TOrderCustIdx, k.orderCust(t.wid, t.did, target, 0), k.orderCust(t.wid, t.did, target+1, 0), t.lastFn)
	if t.lastOID == 0 {
		return true // customer with no orders: still a success
	}
	ov, found := c.Read(TOrder, k.order(t.wid, t.did, t.lastOID))
	if !found {
		return false
	}
	o := DecodeOrder(ov)
	t.lineCnt = 0
	c.Scan(TOrderLine, k.orderLine(t.wid, t.did, t.lastOID, 0), k.orderLine(t.wid, t.did, t.lastOID+1, 0), t.countFn)
	return t.lineCnt == o.OLCnt
}

func (t *orderStatus) lastOrder(_, v []byte) bool {
	t.lastOID = storage.DecodeUint64(v)
	return true
}

func (t *orderStatus) countLine(_, _ []byte) bool {
	t.lineCnt++
	return true
}

// Delivery is the spec's deferred delivery batch (4%): for every district,
// pop the oldest undelivered order, stamp the carrier, mark its lines
// delivered, and credit the customer.
func (w *Workload) Delivery(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).delivery
	t.wid = uint64(r.Range(1, w.cfg.Warehouses))
	t.carrier = uint32(r.Range(1, 10))
	t.deliveryD = r.Uint64()
	return t.logic
}

type delivery struct {
	districts int
	wid       uint64
	carrier   uint32
	deliveryD uint64

	// Per phase: the district it delivers, its oldest undelivered order,
	// that order's line total and line updates, and the arena of the body
	// that builds them.
	did      uint64
	oldest   uint64
	total    uint64
	upds     []olUpdate
	arena    *storage.Arena
	act      [1]core.Action
	oldestFn func(key, val []byte) bool
	lineFn   func(key, val []byte) bool
	logic    core.TxnLogic
}

type olUpdate struct {
	key []byte
	row OrderLineRow
}

func (t *delivery) bind(w *Workload) {
	t.districts = w.cfg.Districts
	t.logic, t.oldestFn, t.lineFn = t.run, t.oldestOrder, t.addLine
	t.act[0] = core.Action{Table: TNewOrder, Body: t.deliver}
}

func (t *delivery) run(tx core.Tx) bool {
	// Districts are delivered in ascending order, one phase each:
	// concurrent Deliveries then acquire district entities in the same
	// canonical order and cannot deadlock each other.
	for d := 1; d <= t.districts; d++ {
		t.did = uint64(d)
		t.act[0].Key = keys{tx.Arena()}.district(t.wid, t.did)
		if !tx.Phase(t.act[:]...) {
			return false
		}
	}
	return true
}

func (t *delivery) deliver(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	wid, did := t.wid, t.did
	// Oldest undelivered order in this district.
	t.oldest = 0
	c.Scan(TNewOrder, k.order(wid, did, 0), k.order(wid, did+1, 0), t.oldestFn)
	if t.oldest == 0 {
		return true // nothing to deliver: skip, not an abort
	}
	okey := k.order(wid, did, t.oldest)
	if !c.Delete(TNewOrder, okey) {
		return false
	}
	ov, found := c.ReadForUpdate(TOrder, okey)
	if !found {
		return false
	}
	o := DecodeOrder(ov)
	o.Carrier = t.carrier
	if !c.Update(TOrder, okey, o.Encode(c.Arena())) {
		return false
	}
	t.total, t.upds, t.arena = 0, t.upds[:0], c.Arena()
	c.Scan(TOrderLine, k.orderLine(wid, did, t.oldest, 0), k.orderLine(wid, did, t.oldest+1, 0), t.lineFn)
	for _, u := range t.upds {
		if !c.Update(TOrderLine, u.key, u.row.Encode(c.Arena())) {
			return false
		}
	}
	ck := k.customer(wid, did, o.CID)
	cv, found := c.ReadForUpdate(TCustomer, ck)
	if !found {
		return false
	}
	cr := DecodeCustomer(cv)
	cr.Balance += int64(t.total)
	cr.DeliveryCnt++
	return c.Update(TCustomer, ck, cr.Encode(c.Arena()))
}

func (t *delivery) oldestOrder(nk, _ []byte) bool {
	t.oldest = storage.DecodeUint64(nk[16:])
	return false // first = oldest
}

func (t *delivery) addLine(lk, v []byte) bool {
	ol := DecodeOrderLine(v)
	t.total += ol.Amount
	ol.DeliveryD = t.deliveryD
	t.upds = append(t.upds, olUpdate{key: t.arena.Copy(lk), row: ol})
	return true
}

// StockLevel is the spec's warehouse inventory inquiry (4%): read the
// district's order horizon, scan the last 20 orders' lines, and count
// distinct items with stock below a threshold. It is the index-heaviest
// transaction — the right bar of Figure 3 — and may run at relaxed
// isolation, so the stock reads take no entity locks.
func (w *Workload) StockLevel(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	t := &w.streams.Of(r).stockLevel
	t.wid = uint64(r.Range(1, cfg.Warehouses))
	t.did = uint64(r.Range(1, cfg.Districts))
	t.threshold = int64(r.Range(10, 20))
	return t.logic
}

type stockLevel struct {
	w         *Workload
	wid, did  uint64
	threshold int64

	// Per attempt: the order horizon, the items of its lines paired with
	// their stock rows' partitions, and the stock rows below threshold.
	nextOID, lowOID uint64
	probes          []stockProbe
	low             int

	dist, lines [1]core.Action
	stock       []core.Action // one per partition probed
	groups      []*probeGroup // their bodies, grown to the most partitions probed
	collect     func(key, val []byte) bool
	logic       core.TxnLogic
}

// stockProbe is one item's stock row and the partition that owns it.
type stockProbe struct {
	part int
	iid  uint64
}

func compareProbes(a, b stockProbe) int {
	if c := cmp.Compare(a.part, b.part); c != 0 {
		return c
	}
	return cmp.Compare(a.iid, b.iid)
}

// probeGroup is one stock action: the probes of one partition.
type probeGroup struct {
	t      *stockLevel
	probes []stockProbe
	body   func(c core.AccessCtx) bool
}

func (t *stockLevel) bind(w *Workload) {
	t.w = w
	t.logic, t.collect = t.run, t.addItem
	t.dist[0] = core.Action{Table: TDistrict, NoLock: true, Body: t.district}
	t.lines[0] = core.Action{Table: TOrderLine, NoLock: true, Body: t.scanLines}
}

func (t *stockLevel) run(tx core.Tx) bool {
	// The spec allows StockLevel to run at read-committed isolation,
	// so no action takes entity locks: a long inventory inquiry never
	// camps on the district that NewOrder and Payment need.
	t.nextOID, t.probes, t.low = 0, t.probes[:0], 0
	tk := keys{tx.Arena()}
	t.dist[0].Key = tk.district(t.wid, t.did)
	if !tx.Phase(t.dist[:]...) {
		return false
	}
	t.lowOID = 1
	if t.nextOID > 20 {
		t.lowOID = t.nextOID - 20
	}
	// Phase 2: collect the distinct items of the last 20 orders.
	t.lines[0].Key = tk.district(t.wid, t.did)
	if !tx.Phase(t.lines[:]...) {
		return false
	}
	if len(t.probes) == 0 {
		return true
	}
	// Phase 3: probe each distinct item's stock row (dirty reads
	// allowed: no entity lock). Probes batch into one action per
	// owning partition, the way a DORA implementation fans this out;
	// partitions in ascending order, items ascending within each.
	slices.SortFunc(t.probes, compareProbes)
	t.probes = slices.Compact(t.probes)
	t.stock = t.stock[:0]
	for lo := 0; lo < len(t.probes); {
		hi := lo + 1
		for hi < len(t.probes) && t.probes[hi].part == t.probes[lo].part {
			hi++
		}
		g := t.group(len(t.stock))
		g.probes = t.probes[lo:hi]
		t.stock = append(t.stock, core.Action{Table: TStock, Key: tk.stock(t.wid, t.probes[lo].iid), NoLock: true, Body: g.body})
		lo = hi
	}
	return tx.Phase(t.stock...)
}

// group returns the i-th probe group, building it on first use.
func (t *stockLevel) group(i int) *probeGroup {
	for len(t.groups) <= i {
		g := &probeGroup{t: t}
		g.body = g.probe
		t.groups = append(t.groups, g)
	}
	return t.groups[i]
}

func (t *stockLevel) district(c core.AccessCtx) bool {
	dv, found := c.Read(TDistrict, keys{c.Arena()}.district(t.wid, t.did))
	if !found {
		return false
	}
	t.nextOID = DecodeDistrict(dv).NextOID
	return true
}

func (t *stockLevel) scanLines(c core.AccessCtx) bool {
	k := keys{c.Arena()}
	c.Scan(TOrderLine, k.orderLine(t.wid, t.did, t.lowOID, 0), k.orderLine(t.wid, t.did, t.nextOID, 0), t.collect)
	return true
}

func (t *stockLevel) addItem(_, v []byte) bool {
	iid := DecodeOrderLine(v).IID
	t.probes = append(t.probes, stockProbe{part: t.w.stockPartition(t.wid, iid), iid: iid})
	return true
}

func (g *probeGroup) probe(c core.AccessCtx) bool {
	t := g.t
	k := keys{c.Arena()}
	for _, p := range g.probes {
		sv, found := c.Read(TStock, k.stock(t.wid, p.iid))
		if !found {
			return false
		}
		if DecodeStock(sv).Qty < t.threshold {
			t.low++
		}
	}
	return true
}
