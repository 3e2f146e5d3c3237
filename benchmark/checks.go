package main

import (
	"bytes"
	"fmt"
	"sort"

	"bionicdb/internal/btree"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload/tpcc"
)

// reader is the untimed read surface the output checks use: an engine after
// its run, or the trees a recovery boot rebuilt.
type reader interface {
	ReadRaw(table uint16, key []byte) ([]byte, bool)
	ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool)
}

// treeSets reads recovered socket-indexed tree sets the way an engine's
// ReadRaw/ScanRaw read its own.
type treeSets []map[uint16]*btree.Tree

func (ts treeSets) ReadRaw(table uint16, key []byte) ([]byte, bool) {
	for _, set := range ts {
		if v, ok := set[table].Get(key, nil); ok {
			return v, true
		}
	}
	return nil, false
}

func (ts treeSets) ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	if len(ts) == 1 {
		ts[0][table].Scan(from, to, nil, fn)
		return
	}
	type row struct{ k, v []byte }
	var rows []row
	for _, set := range ts {
		set[table].Scan(from, to, nil, func(k, v []byte) bool {
			rows = append(rows, row{k, v})
			return true
		})
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].k, rows[j].k) < 0 })
	for _, r := range rows {
		if !fn(r.k, r.v) {
			return
		}
	}
}

// checkRows verifies a table still holds exactly want rows, each of valLen
// bytes when valLen > 0.
func checkRows(db reader, table uint16, want, valLen int) error {
	rows, badLen := 0, 0
	db.ScanRaw(table, nil, nil, func(k, v []byte) bool {
		rows++
		if valLen > 0 && len(v) != valLen {
			badLen++
		}
		return true
	})
	if rows != want {
		return fmt.Errorf("table %d holds %d rows, want %d", table, rows, want)
	}
	if badLen > 0 {
		return fmt.Errorf("table %d: %d rows are not %d bytes", table, badLen, valLen)
	}
	return nil
}

// checkTPCC verifies TPC-C consistency conditions 1 to 3 (clause 3.3.2):
// W_YTD = sum(D_YTD) per warehouse; per district D_NEXT_O_ID - 1 =
// max(O_ID) = max(NO_O_ID); and the new-order ids of a district are
// contiguous.
func checkTPCC(db reader, cfg tpcc.Config) error {
	for wid := uint64(1); wid <= uint64(cfg.Warehouses); wid++ {
		wv, ok := db.ReadRaw(tpcc.TWarehouse, tpcc.WarehouseKey(wid))
		if !ok {
			return fmt.Errorf("tpcc: warehouse %d missing", wid)
		}
		var dYTD uint64
		for did := uint64(1); did <= uint64(cfg.Districts); did++ {
			dv, ok := db.ReadRaw(tpcc.TDistrict, tpcc.DistrictKey(wid, did))
			if !ok {
				return fmt.Errorf("tpcc: district %d.%d missing", wid, did)
			}
			d := tpcc.DecodeDistrict(dv)
			dYTD += d.YTD
			from, to := tpcc.OrderKey(wid, did, 0), tpcc.OrderKey(wid, did+1, 0)
			// The order id is the third field of both tables' keys.
			oid := func(k []byte) uint64 { return storage.DecodeUint64(k[16:]) }
			var maxO uint64
			db.ScanRaw(tpcc.TOrder, from, to, func(k, v []byte) bool {
				if o := oid(k); o > maxO {
					maxO = o
				}
				return true
			})
			if maxO != d.NextOID-1 {
				return fmt.Errorf("tpcc condition 2: district %d.%d next_o_id-1 = %d, max(o_id) = %d", wid, did, d.NextOID-1, maxO)
			}
			var minNO, maxNO uint64
			countNO := uint64(0)
			db.ScanRaw(tpcc.TNewOrder, from, to, func(k, v []byte) bool {
				o := oid(k)
				if countNO == 0 || o < minNO {
					minNO = o
				}
				if o > maxNO {
					maxNO = o
				}
				countNO++
				return true
			})
			if countNO == 0 {
				continue // every order delivered: conditions 2 and 3 say nothing
			}
			if maxNO != maxO {
				return fmt.Errorf("tpcc condition 2: district %d.%d max(no_o_id) = %d, max(o_id) = %d", wid, did, maxNO, maxO)
			}
			if maxNO-minNO+1 != countNO {
				return fmt.Errorf("tpcc condition 3: district %d.%d has %d new-orders over ids %d..%d", wid, did, countNO, minNO, maxNO)
			}
		}
		if w := tpcc.DecodeWarehouse(wv); w.YTD != dYTD {
			return fmt.Errorf("tpcc condition 1: warehouse %d w_ytd = %d, sum(d_ytd) = %d", wid, w.YTD, dYTD)
		}
	}
	return nil
}
