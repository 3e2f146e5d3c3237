package lockmgr

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// scheduleResult is what one run of the seeded schedule produced: its
// Acquire calls, the ErrDeadlock results among them, and a hash of its
// grants, whose instants pin every wait.
type scheduleResult struct {
	acquires, deadlocks int64
	grants              uint64 // FNV-1a over (time, txn, name hash, mode) of every grant, in order
}

// runSchedule runs a seeded random schedule on m: 16 processes, each running
// 40 transactions that take IS or IX on one of two tables and then S or X on
// one of its 8 hot rows, one to four times, with short waits between
// acquires and after each ReleaseAll. A row read and later written upgrades;
// rows taken in different orders deadlock. check runs after every grant; a
// deadlock victim releases what it holds and goes on to its next
// transaction.
func runSchedule(t *testing.T, env *sim.Env, pl *platform.Platform, m *Manager, check func(txn uint64, n Name)) scheduleResult {
	t.Helper()
	res := scheduleResult{grants: 1469598103934665603}
	mix := func(v uint64) { res.grants = (res.grants ^ v) * 1099511628211 }
	for i := 0; i < 16; i++ {
		i := i
		env.Spawn("txn", func(p *sim.Proc) {
			tk := task(pl, p, i)
			r := sim.NewRand(uint64(100 + i))
			acquire := func(txn uint64, n Name, mode Mode) bool {
				res.acquires++
				switch err := m.Acquire(tk, txn, n, mode); err {
				case nil:
					mix(uint64(p.Now()))
					mix(txn)
					mix(hashName(n))
					mix(uint64(mode))
					check(txn, n)
					return true
				case ErrDeadlock:
					res.deadlocks++
					return false
				default:
					t.Errorf("Acquire(%d, %s, %v) = %v, want nil or ErrDeadlock", txn, n, mode, err)
					return false
				}
			}
			for k := 0; k < 40; k++ {
				txn := uint64(i*40 + k + 1)
				for op, ops := 0, 1+r.Intn(4); op < ops; op++ {
					table := uint16(1 + r.Intn(2))
					key := []byte{byte(r.Intn(8))}
					tableMode, rowMode := IS, S
					if r.Intn(3) == 0 {
						tableMode, rowMode = IX, X
					}
					if !acquire(txn, TableLock(table), tableMode) || !acquire(txn, RowLock(table, key), rowMode) {
						break
					}
					p.Wait(sim.Duration(r.Intn(2000)) * sim.Nanosecond)
				}
				m.ReleaseAll(tk, txn)
				p.Wait(sim.Duration(r.Intn(500)) * sim.Nanosecond)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes still live after the schedule drained", env.Live())
	}
	t.Logf("acquires %d, deadlocks %d, grant hash %#x", res.acquires, res.deadlocks, res.grants)
	return res
}
