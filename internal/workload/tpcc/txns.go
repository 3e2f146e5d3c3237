package tpcc

import (
	"sort"

	"bionicdb/internal/core"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
)

// NewOrder is the spec's order-entry transaction (45%): read warehouse and
// district, allocate the order id, read+update one stock row per line
// (1% of orders carry an invalid item and roll back), then insert the
// order, its lines, and the new-order queue entry.
func (w *Workload) NewOrder(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	wid := uint64(r.Range(1, cfg.Warehouses))
	did := uint64(r.Range(1, cfg.Districts))
	cid := w.randCID(r)
	olCnt := r.Range(5, 15)
	rollback := r.Bool(0.01)

	type line struct {
		iid     uint64
		supplyW uint64
		qty     uint32
	}
	lines := make([]line, olCnt)
	seen := map[uint64]bool{}
	for i := range lines {
		iid := w.randItem(r)
		for seen[iid] {
			iid = w.randItem(r)
		}
		seen[iid] = true
		supply := wid
		if cfg.Warehouses > 1 && r.Bool(0.01) {
			for supply == wid {
				supply = uint64(r.Range(1, cfg.Warehouses))
			}
			// remote line
		}
		lines[i] = line{iid: iid, supplyW: supply, qty: uint32(r.Range(1, 10))}
	}
	if rollback {
		lines[len(lines)-1].iid = uint64(cfg.Items + 1) // unused item id
	}
	entryD := uint64(r.Uint64())

	return func(tx core.Tx) bool {
		var oid uint64
		var amounts = make([]uint64, len(lines))
		// Phase 1: district allocates the order id; customer and
		// warehouse are read for tax/discount. The warehouse tax read
		// takes no entity lock (read-committed suffices, and it keeps the
		// entity-acquisition order warehouse < district cycle-free
		// against Payment).
		tk := keys{tx.Arena()}
		ok := tx.Phase(
			core.Action{Table: TDistrict, Key: tk.district(wid, did), Body: func(c core.AccessCtx) bool {
				k := keys{c.Arena()}
				dk := k.district(wid, did)
				dv, found := c.ReadForUpdate(TDistrict, dk)
				if !found {
					return false
				}
				d := DecodeDistrict(dv)
				oid = d.NextOID
				d.NextOID++
				if !c.Update(TDistrict, dk, d.Encode()) {
					return false
				}
				_, found = c.Read(TCustomer, k.customer(wid, did, cid))
				return found
			}},
			core.Action{Table: TWarehouse, Key: tk.warehouse(wid), NoLock: true, Body: func(c core.AccessCtx) bool {
				_, found := c.Read(TWarehouse, keys{c.Arena()}.warehouse(wid))
				return found
			}},
		)
		if !ok {
			return false
		}
		// Phase 2: one action per order line on its stock partition; the
		// read-only item lookup rides along (items are immutable).
		actions := make([]core.Action, len(lines))
		for i, ln := range lines {
			i, ln := i, ln
			actions[i] = core.Action{Table: TStock, Key: tk.stock(ln.supplyW, ln.iid), Body: func(c core.AccessCtx) bool {
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
				if ln.supplyW != wid {
					s.RemoteCnt++
				}
				if !c.Update(TStock, sk, s.Encode()) {
					return false
				}
				amounts[i] = uint64(ln.qty) * uint64(item.Price)
				return true
			}}
		}
		if !tx.Phase(actions...) {
			return false
		}
		// Phase 3: materialize the order in the district partition.
		return tx.Phase(core.Action{Table: TOrder, Key: tk.order(wid, did, oid), Body: func(c core.AccessCtx) bool {
			k := keys{c.Arena()}
			allLocal := uint32(1)
			for _, ln := range lines {
				if ln.supplyW != wid {
					allLocal = 0
				}
			}
			o := OrderRow{WID: wid, DID: did, OID: oid, CID: cid, EntryD: entryD, OLCnt: uint32(len(lines)), AllLocal: allLocal}
			okey := k.order(wid, did, oid)
			if !c.Insert(TOrder, okey, o.Encode()) {
				return false
			}
			if !c.Insert(TOrderCustIdx, k.orderCust(wid, did, cid, oid), storage.Uint64Key(oid)) {
				return false
			}
			if !c.Insert(TNewOrder, okey, []byte{1}) {
				return false
			}
			for i, ln := range lines {
				olr := OrderLineRow{WID: wid, DID: did, OID: oid, OL: uint64(i + 1), IID: ln.iid,
					SupplyW: ln.supplyW, Qty: ln.qty, Amount: amounts[i], DistInfo: distInfoPad}
				if !c.Insert(TOrderLine, k.orderLine(wid, did, oid, uint64(i+1)), olr.Encode()) {
					return false
				}
			}
			return true
		}})
	}
}

// Payment is the spec's payment transaction (43%): update warehouse and
// district YTD, select the customer (60% by last name), update the
// customer, and insert a history row. 15% of payments come from a remote
// customer.
func (w *Workload) Payment(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	wid := uint64(r.Range(1, cfg.Warehouses))
	did := uint64(r.Range(1, cfg.Districts))
	cwid, cdid := wid, did
	if cfg.Warehouses > 1 && r.Bool(0.15) {
		for cwid == wid {
			cwid = uint64(r.Range(1, cfg.Warehouses))
		}
		cdid = uint64(r.Range(1, cfg.Districts))
	}
	byName := r.Bool(0.6)
	var cid uint64
	var lastName string
	if byName {
		lastName = LastName(w.randLastNum(r) % 1000)
	} else {
		cid = w.randCID(r)
	}
	amount := uint64(r.Range(100, 500000))
	uniq := r.Uint64()

	return func(tx core.Tx) bool {
		// The district and customer phases run first; the warehouse YTD
		// update — TPC-C's hottest row — runs as the final phase so the
		// warehouse entity is held for only one short phase before commit
		// instead of the whole transaction (otherwise every Payment on
		// the warehouse convoys behind whichever holder blocks).
		tk := keys{tx.Arena()}
		if !tx.Phase(core.Action{Table: TDistrict, Key: tk.district(wid, did), Body: func(c core.AccessCtx) bool {
			dk := keys{c.Arena()}.district(wid, did)
			dv, found := c.ReadForUpdate(TDistrict, dk)
			if !found {
				return false
			}
			d := DecodeDistrict(dv)
			d.YTD += amount
			return c.Update(TDistrict, dk, d.Encode())
		}}) {
			return false
		}
		// Phase 2: customer selection and update in its home partition.
		custKey := tk.customer(cwid, cdid, cid)
		if byName {
			custKey = tk.district(cwid, cdid) // routing only needs (w, d)
		}
		if !tx.Phase(core.Action{Table: TCustomer, Key: custKey, Body: func(c core.AccessCtx) bool {
			k := keys{c.Arena()}
			target := cid
			if byName {
				from, to := k.custNameBounds(cwid, cdid, lastName)
				var ids []uint64
				c.Scan(TCustNameIdx, from, to, func(_, v []byte) bool {
					ids = append(ids, storage.DecodeUint64(v))
					return true
				})
				if len(ids) == 0 {
					return false // no such customer: spec rollback
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				target = ids[len(ids)/2]
			}
			ck := k.customer(cwid, cdid, target)
			cv, found := c.ReadForUpdate(TCustomer, ck)
			if !found {
				return false
			}
			cr := DecodeCustomer(cv)
			cr.Balance -= int64(amount)
			cr.YTDPayment += amount
			cr.PaymentCnt++
			if cr.Credit == 1 { // bad credit: data trail update
				cr.Data = dataBCTrail
			}
			return c.Update(TCustomer, ck, cr.Encode())
		}}) {
			return false
		}
		// Phase 3: history row in the home district partition.
		histKey := tk.history(wid, did, cwid, uniq)
		if !tx.Phase(core.Action{Table: THistory, Key: histKey, Body: func(c core.AccessCtx) bool {
			row := storage.NewRecordWriter(48).Uint64(cwid).Uint64(cdid).Uint64(amount).Bytes(histPayment).Finish()
			return c.Insert(THistory, histKey, row)
		}}) {
			return false
		}
		// Final phase: the warehouse YTD update, held only across commit.
		return tx.Phase(core.Action{Table: TWarehouse, Key: tk.warehouse(wid), Body: func(c core.AccessCtx) bool {
			wk := keys{c.Arena()}.warehouse(wid)
			wv, found := c.ReadForUpdate(TWarehouse, wk)
			if !found {
				return false
			}
			wr := DecodeWarehouse(wv)
			wr.YTD += amount
			return c.Update(TWarehouse, wk, wr.Encode())
		}})
	}
}

// OrderStatus is the spec's read-only status inquiry (4%): locate the
// customer (60% by last name), find their most recent order, read its
// lines.
func (w *Workload) OrderStatus(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	wid := uint64(r.Range(1, cfg.Warehouses))
	did := uint64(r.Range(1, cfg.Districts))
	byName := r.Bool(0.6)
	var cid uint64
	var lastName string
	if byName {
		lastName = LastName(w.randLastNum(r) % 1000)
	} else {
		cid = w.randCID(r)
	}

	return func(tx core.Tx) bool {
		return tx.Phase(core.Action{Table: TCustomer, Key: keys{tx.Arena()}.district(wid, did), Body: func(c core.AccessCtx) bool {
			k := keys{c.Arena()}
			target := cid
			if byName {
				from, to := k.custNameBounds(wid, did, lastName)
				var ids []uint64
				c.Scan(TCustNameIdx, from, to, func(_, v []byte) bool {
					ids = append(ids, storage.DecodeUint64(v))
					return true
				})
				if len(ids) == 0 {
					return false
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				target = ids[len(ids)/2]
			}
			if _, found := c.Read(TCustomer, k.customer(wid, did, target)); !found {
				return false
			}
			// Most recent order via the customer-order index.
			var lastOID uint64
			c.Scan(TOrderCustIdx, k.orderCust(wid, did, target, 0), k.orderCust(wid, did, target+1, 0), func(_, v []byte) bool {
				lastOID = storage.DecodeUint64(v)
				return true
			})
			if lastOID == 0 {
				return true // customer with no orders: still a success
			}
			ov, found := c.Read(TOrder, k.order(wid, did, lastOID))
			if !found {
				return false
			}
			o := DecodeOrder(ov)
			count := uint32(0)
			c.Scan(TOrderLine, k.orderLine(wid, did, lastOID, 0), k.orderLine(wid, did, lastOID+1, 0), func(_, v []byte) bool {
				count++
				return true
			})
			return count == o.OLCnt
		}})
	}
}

// Delivery is the spec's deferred delivery batch (4%): for every district,
// pop the oldest undelivered order, stamp the carrier, mark its lines
// delivered, and credit the customer.
func (w *Workload) Delivery(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	wid := uint64(r.Range(1, cfg.Warehouses))
	carrier := uint32(r.Range(1, 10))
	deliveryD := uint64(r.Uint64())

	return func(tx core.Tx) bool {
		// Districts are delivered in ascending order, one phase each:
		// concurrent Deliveries then acquire district entities in the same
		// canonical order and cannot deadlock each other.
		for d := 1; d <= cfg.Districts; d++ {
			did := uint64(d)
			ok := tx.Phase(core.Action{Table: TNewOrder, Key: keys{tx.Arena()}.district(wid, did), Body: func(c core.AccessCtx) bool {
				k := keys{c.Arena()}
				// Oldest undelivered order in this district.
				var oldest uint64
				c.Scan(TNewOrder, k.order(wid, did, 0), k.order(wid, did+1, 0), func(nk, _ []byte) bool {
					oldest = storage.DecodeUint64(nk[16:])
					return false // first = oldest
				})
				if oldest == 0 {
					return true // nothing to deliver: skip, not an abort
				}
				okey := k.order(wid, did, oldest)
				if !c.Delete(TNewOrder, okey) {
					return false
				}
				ov, found := c.ReadForUpdate(TOrder, okey)
				if !found {
					return false
				}
				o := DecodeOrder(ov)
				o.Carrier = carrier
				if !c.Update(TOrder, okey, o.Encode()) {
					return false
				}
				var total uint64
				type olUpd struct {
					key []byte
					row OrderLineRow
				}
				var upds []olUpd
				c.Scan(TOrderLine, k.orderLine(wid, did, oldest, 0), k.orderLine(wid, did, oldest+1, 0), func(lk, v []byte) bool {
					ol := DecodeOrderLine(v)
					total += ol.Amount
					ol.DeliveryD = deliveryD
					upds = append(upds, olUpd{key: c.Arena().Copy(lk), row: ol})
					return true
				})
				for _, u := range upds {
					if !c.Update(TOrderLine, u.key, u.row.Encode()) {
						return false
					}
				}
				ck := k.customer(wid, did, o.CID)
				cv, found := c.ReadForUpdate(TCustomer, ck)
				if !found {
					return false
				}
				cr := DecodeCustomer(cv)
				cr.Balance += int64(total)
				cr.DeliveryCnt++
				return c.Update(TCustomer, ck, cr.Encode())
			}})
			if !ok {
				return false
			}
		}
		return true
	}
}

// StockLevel is the spec's warehouse inventory inquiry (4%): read the
// district's order horizon, scan the last 20 orders' lines, and count
// distinct items with stock below a threshold. It is the index-heaviest
// transaction — the right bar of Figure 3 — and may run at relaxed
// isolation, so the stock reads take no entity locks.
func (w *Workload) StockLevel(r *sim.Rand) core.TxnLogic {
	cfg := w.cfg
	wid := uint64(r.Range(1, cfg.Warehouses))
	did := uint64(r.Range(1, cfg.Districts))
	threshold := int64(r.Range(10, 20))

	return func(tx core.Tx) bool {
		// The spec allows StockLevel to run at read-committed isolation,
		// so no action takes entity locks: a long inventory inquiry never
		// camps on the district that NewOrder and Payment need.
		var nextOID uint64
		tk := keys{tx.Arena()}
		if !tx.Phase(core.Action{Table: TDistrict, Key: tk.district(wid, did), NoLock: true, Body: func(c core.AccessCtx) bool {
			dv, found := c.Read(TDistrict, keys{c.Arena()}.district(wid, did))
			if !found {
				return false
			}
			nextOID = DecodeDistrict(dv).NextOID
			return true
		}}) {
			return false
		}
		lowOID := uint64(1)
		if nextOID > 20 {
			lowOID = nextOID - 20
		}
		// Phase 2: collect the distinct items of the last 20 orders.
		items := map[uint64]bool{}
		if !tx.Phase(core.Action{Table: TOrderLine, Key: tk.district(wid, did), NoLock: true, Body: func(c core.AccessCtx) bool {
			k := keys{c.Arena()}
			c.Scan(TOrderLine, k.orderLine(wid, did, lowOID, 0), k.orderLine(wid, did, nextOID, 0), func(_, v []byte) bool {
				items[DecodeOrderLine(v).IID] = true
				return true
			})
			return true
		}}) {
			return false
		}
		if len(items) == 0 {
			return true
		}
		// Phase 3: probe each distinct item's stock row (dirty reads
		// allowed: no entity lock). Probes batch into one action per
		// owning partition, the way a DORA implementation fans this out.
		iids := make([]uint64, 0, len(items))
		for iid := range items {
			iids = append(iids, iid)
		}
		sort.Slice(iids, func(i, j int) bool { return iids[i] < iids[j] })
		groups := make(map[int][]uint64)
		for _, iid := range iids {
			p := w.stockPartition(wid, iid)
			groups[p] = append(groups[p], iid)
		}
		parts := make([]int, 0, len(groups))
		for p := range groups {
			parts = append(parts, p)
		}
		sort.Ints(parts)
		lowCount := 0
		actions := make([]core.Action, 0, len(groups))
		for _, p := range parts {
			group := groups[p]
			actions = append(actions, core.Action{Table: TStock, Key: tk.stock(wid, group[0]), NoLock: true, Body: func(c core.AccessCtx) bool {
				k := keys{c.Arena()}
				for _, iid := range group {
					sv, found := c.Read(TStock, k.stock(wid, iid))
					if !found {
						return false
					}
					if DecodeStock(sv).Qty < threshold {
						lowCount++
					}
				}
				return true
			}})
		}
		return tx.Phase(actions...)
	}
}
