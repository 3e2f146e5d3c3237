package tpcc

import (
	"fmt"

	"bionicdb/internal/storage"
)

// CheckConsistency verifies TPC-C consistency conditions 1 to 3 (clause
// 3.3.2) on a quiesced database: W_YTD = sum(D_YTD) per warehouse; per
// district D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID); and the new-order ids
// of a district are contiguous. db is any engine (core.Engine's ReadRaw and
// ScanRaw). It returns the first violation found.
func CheckConsistency(db interface {
	ReadRaw(table uint16, key []byte) ([]byte, bool)
	ScanRaw(table uint16, from, to []byte, fn func(k, v []byte) bool)
}, cfg Config) error {
	for wid := uint64(1); wid <= uint64(cfg.Warehouses); wid++ {
		wv, ok := db.ReadRaw(TWarehouse, WarehouseKey(wid))
		if !ok {
			return fmt.Errorf("tpcc: warehouse %d missing", wid)
		}
		var dYTD uint64
		for did := uint64(1); did <= uint64(cfg.Districts); did++ {
			dv, ok := db.ReadRaw(TDistrict, DistrictKey(wid, did))
			if !ok {
				return fmt.Errorf("tpcc: district %d.%d missing", wid, did)
			}
			d := DecodeDistrict(dv)
			dYTD += d.YTD
			from, to := OrderKey(wid, did, 0), OrderKey(wid, did+1, 0)
			// The order id is the third field of both tables' keys.
			oid := func(k []byte) uint64 { return storage.DecodeUint64(k[16:]) }
			var maxO uint64
			db.ScanRaw(TOrder, from, to, func(k, v []byte) bool {
				if o := oid(k); o > maxO {
					maxO = o
				}
				return true
			})
			if maxO != d.NextOID-1 {
				return fmt.Errorf("tpcc condition 2: district %d.%d next_o_id-1 = %d, max(o_id) = %d", wid, did, d.NextOID-1, maxO)
			}
			var minNO, maxNO, countNO uint64
			db.ScanRaw(TNewOrder, from, to, func(k, v []byte) bool {
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
		if w := DecodeWarehouse(wv); w.YTD != dYTD {
			return fmt.Errorf("tpcc condition 1: warehouse %d w_ytd = %d, sum(d_ytd) = %d", wid, w.YTD, dYTD)
		}
	}
	return nil
}
