package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"bionicdb/internal/btree"
	"bionicdb/internal/bufferpool"
	"bionicdb/internal/columnar"
	"bionicdb/internal/dora"
	"bionicdb/internal/hw/logengine"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/hw/scanner"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/lockmgr"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/txn"
	"bionicdb/internal/wal"
)

// The ladder: one rung per layer, each a driver of the benchmark's own that
// times calls into the layer's exported functions on seed-fixed inputs. A
// rung reports host nanoseconds per operation, and where they are not zero
// the allocations and kernel events per operation, which repeat exactly.
// Rung inputs never depend on --seed: a rung measures the layer, not a
// workload.

// measured is what timing one rung repetition yields.
type measured struct {
	wall    time.Duration
	mallocs uint64
	ops     int    // operations the repetition performed
	events  uint64 // kernel events it executed
}

// rung is one ladder entry. name is the metric holding ns per operation;
// the allocs and events metrics swap "_ns" for "_allocs" and "_events".
type rung struct {
	name string
	ops  int // operations per repetition at scale 1: about 50 ms of host time
	// allocs and events say which of the exact counts this rung reports:
	// those that are not zero.
	allocs, events bool
	run            func(n int) measured
}

const ladderReps = 3

// runLadder runs every rung at scale times its operation count and returns
// the per-layer metrics: the median ns per operation of ladderReps
// repetitions (one when scaled down), and the counts of the last.
func runLadder(scale float64, tr *tracer) values {
	out := values{}
	reps := ladderReps
	if scale < 1 {
		reps = 1
	}
	for _, r := range rungs {
		n := int(float64(r.ops) * scale)
		if n < 64 {
			n = 64
		}
		tr.begin(r.name)
		var ns []float64
		var last measured
		for i := 0; i < reps; i++ {
			last = r.run(n)
			ns = append(ns, float64(last.wall.Nanoseconds())/float64(last.ops))
		}
		tr.end()
		out[r.name] = median(ns)
		if r.allocs {
			out[strings.Replace(r.name, "_ns", "_allocs", 1)] = float64(last.mallocs) / float64(last.ops)
		}
		if r.events {
			out[strings.Replace(r.name, "_ns", "_events", 1)] = float64(last.events) / float64(last.ops)
		}
	}
	return out
}

// timed measures fn's wall time and allocations.
func timed(fn func()) measured {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return measured{wall: wall, mallocs: after.Mallocs - before.Mallocs}
}

// drive spawns procs simulated processes running body, times the
// environment until it drains, and closes it. The process that finishes
// last calls done, which stops whatever daemons would keep the environment
// alive.
func drive(env *sim.Env, procs int, body func(p *sim.Proc, i int), done func()) measured {
	defer env.Close()
	remaining := procs
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn(fmt.Sprintf("rung%d", i), func(p *sim.Proc) {
			body(p, i)
			if remaining--; remaining == 0 && done != nil {
				done()
			}
		})
	}
	m := timed(func() {
		if err := env.Run(); err != nil {
			panic(err) // a rung that cannot run is a bug in the rung
		}
	})
	m.events = env.Executed()
	return m
}

// machine builds the paper's one-socket platform on a fresh environment.
func machine() (*sim.Env, *platform.Platform) {
	env := sim.NewEnv()
	return env, platform.New(env, platform.HC2())
}

const ladderRows = 200000 // rows in the ladder's trees: three levels at order 128

// ladderKeys[i] is key i, built once so that no rung times (or counts the
// allocation of) its own key encoding. Trees hold the even keys; odd keys
// insert.
var ladderKeys = func() [][]byte {
	keys := make([][]byte, 2*ladderRows+1)
	for i := range keys {
		keys[i] = storage.Uint64Key(uint64(i))
	}
	return keys
}()

var ladderVal = []byte("0123456789abcdef0123456789abcdef")

// loadedTree returns a fresh tree holding ladderRows rows at the even keys.
func loadedTree() *btree.Tree {
	t := btree.New(btree.Config{Order: 128})
	for i := 0; i < ladderRows; i++ {
		t.Put(ladderKeys[2*i], ladderVal, nil)
	}
	return t
}

// readTree is one loaded tree shared by the rungs that only read it.
var readTree = sync.OnceValue(loadedTree)

// logRecord is a typical update record: 8-byte key, 48-byte images.
func logRecord(txnID uint64, typ wal.RecType) wal.Record {
	return wal.Record{Txn: txnID, Type: typ, Table: 1, Key: ladderKeys[txnID%ladderRows],
		Before: ladderVal[:24], After: ladderVal[:24]}
}

var rungs = []rung{
	{name: "sim.timer_ns_per_event", ops: 200000, run: func(n int) measured {
		// The kernel's own microbenchmark shape: processes timer-stepping
		// through interleaved waits. Operations are events.
		env := sim.NewEnv()
		per := n / 16
		m := drive(env, 16, func(p *sim.Proc, i int) {
			for j := 0; j < per; j++ {
				p.Wait(sim.Duration(1 + (i+j)%7))
			}
		}, nil)
		m.ops = int(m.events)
		return m
	}},
	{name: "sim.handoff_ns", ops: 200000, events: true, run: func(n int) measured {
		// Two processes ping-pong through queues: every operation parks one
		// goroutine and readies the other.
		env := sim.NewEnv()
		ping := sim.NewQueue[int](env, "ping", 0)
		pong := sim.NewQueue[int](env, "pong", 0)
		m := drive(env, 2, func(p *sim.Proc, i int) {
			if i == 0 {
				for j := 0; j < n/2; j++ {
					ping.Put(p, j)
					pong.Get(p)
				}
				ping.Close()
				return
			}
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(p, v)
			}
		}, nil)
		m.ops = n / 2 * 2
		return m
	}},
	{name: "sim.resource_ns", ops: 120000, events: true, run: func(n int) measured {
		env := sim.NewEnv()
		res := sim.NewResource(env, "res", 1)
		per := n / 4
		m := drive(env, 4, func(p *sim.Proc, i int) {
			for j := 0; j < per; j++ {
				res.Use(p, sim.Duration(10+i))
			}
		}, nil)
		m.ops = 4 * per
		return m
	}},
	{name: "sim.spawn_ns", ops: 60000, allocs: true, events: true, run: func(n int) measured {
		env := sim.NewEnv()
		const batch = 256
		m := drive(env, 1, func(p *sim.Proc, _ int) {
			for left := n; left > 0; left -= batch {
				for j := 0; j < batch && j < left; j++ {
					env.Spawn("child", func(*sim.Proc) {})
				}
				p.Wait(1)
			}
		}, nil)
		m.ops = n
		return m
	}},
	{name: "sim.par_storm_ns_per_event", ops: 120000, run: func(n int) measured {
		// The sharded kernel on every host CPU: four shards of processes
		// stepping, sharing a resource and a queue, and posting to the next
		// shard. Informational: ROADMAP gates the parallel kernel on 8 host
		// cores, so on fewer this measures its barrier overhead.
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
		const shards, procs, quantum = 4, 6, 1000
		env := sim.NewEnv()
		defer env.Close()
		env.EnableParallel(shards, quantum)
		steps := n / (shards * procs * 4)
		arrivals := make([]int, shards)
		for s := 0; s < shards; s++ {
			s := s
			res := sim.NewResource(env, "res", 2).OnShard(s)
			q := sim.NewQueue[int](env, "q", 0).OnShard(s)
			for k := 0; k < procs; k++ {
				k := k
				env.SpawnOn(s, "storm", func(p *sim.Proc) {
					for i := 0; i < steps; i++ {
						p.Wait(sim.Duration(quantum * (1 + (k+i)%5)))
						res.Use(p, sim.Duration(quantum*(1+k%3)))
						q.Put(p, i)
						q.TryGet()
						if i%4 == 3 {
							dst := (s + 1) % shards
							p.CrossAt(dst, p.Now().Add(sim.Duration(quantum+s*8+3)), func() { arrivals[dst]++ })
						}
					}
				})
			}
		}
		m := timed(func() {
			if err := env.Run(); err != nil {
				panic(err)
			}
		})
		m.events = env.Executed()
		m.ops = int(m.events)
		return m
	}},

	{name: "platform.exec_flush_ns", ops: 160000, events: true, run: func(n int) measured {
		// A burst of instructions put onto a core: the charge every engine
		// action ends with.
		env, pl := machine()
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				task.Exec(stats.CompOther, 1500)
				task.Flush()
			}
		}, nil)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "platform.access_hit_ns", ops: 8000000, run: func(n int) measured {
		env, pl := machine()
		base := pl.AllocHost(1 << 20)
		m := drive(env, 1, func(p *sim.Proc, _ int) {
			task := pl.NewTask(p, pl.Cores[0], nil)
			for j := 0; j < n; j++ {
				task.Access(stats.CompOther, base+uint64(j%64)*64, 8)
			}
			task.Flush()
		}, nil)
		m.ops = n
		return m
	}},
	{name: "platform.access_miss_ns", ops: 1500000, run: func(n int) measured {
		// A sweep eight times the LLC: every reference misses all three
		// levels and evicts.
		env, pl := machine()
		lines := uint64(8 * pl.Cfg.L3Size / pl.Cfg.LineSize)
		base := pl.AllocHost(int(lines) * pl.Cfg.LineSize)
		m := drive(env, 1, func(p *sim.Proc, _ int) {
			task := pl.NewTask(p, pl.Cores[0], nil)
			for j := 0; j < n; j++ {
				task.Access(stats.CompOther, base+(uint64(j)%lines)*uint64(pl.Cfg.LineSize), 8)
			}
			task.Flush()
		}, nil)
		m.ops = n
		return m
	}},
	{name: "platform.device_transfer_ns", ops: 60000, events: true, run: func(n int) measured {
		env, pl := machine()
		per := n / 4
		m := drive(env, 4, func(p *sim.Proc, _ int) {
			for j := 0; j < per; j++ {
				pl.SSD.Transfer(p, 4096)
			}
		}, nil)
		m.ops = 4 * per
		return m
	}},

	{name: "btree.get_ns", ops: 100000, run: func(n int) measured {
		tree := readTree()
		r := sim.NewRand(1)
		var traces btree.TracePool
		m := timed(func() {
			for j := 0; j < n; j++ {
				tr := traces.Get()
				tree.Get(ladderKeys[2*r.Intn(ladderRows)], tr)
				traces.Put(tr)
			}
		})
		m.ops = n
		return m
	}},
	{name: "btree.put_ns", ops: 80000, allocs: true, run: func(n int) measured {
		// Half overwrite a row, half insert one (and split now and then).
		tree := loadedTree()
		r := sim.NewRand(2)
		var traces btree.TracePool
		m := timed(func() {
			for j := 0; j < n; j++ {
				tr := traces.Get()
				tree.Put(ladderKeys[2*r.Intn(ladderRows)+j%2], ladderVal, tr)
				traces.Put(tr)
			}
		})
		m.ops = n
		return m
	}},
	{name: "btree.scan_ns_per_row", ops: 5000000, run: func(n int) measured {
		tree := readTree()
		r := sim.NewRand(3)
		var traces btree.TracePool
		rows := 0
		m := timed(func() {
			for rows < n {
				tr := traces.Get()
				left := 100
				tree.Scan(ladderKeys[2*r.Intn(ladderRows-200)], nil, tr, func(k, v []byte) bool {
					rows++
					left--
					return left > 0
				})
				traces.Put(tr)
			}
		})
		m.ops = rows
		return m
	}},

	{name: "bufferpool.fix_hit_ns", ops: 80000, allocs: true, events: true, run: func(n int) measured {
		env, pl := machine()
		const frames = 4096
		pool := bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(frames, pl.Cfg.PageSize))
		for id := 1; id <= frames; id++ {
			pool.Prewarm(storage.PageID(id))
		}
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			r := sim.NewRand(uint64(10 + i))
			for j := 0; j < per; j++ {
				id := storage.PageID(1 + r.Intn(frames))
				pool.Fix(task, id)
				pool.Unfix(task, id, false)
			}
		}, nil)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "bufferpool.fix_miss_ns", ops: 32000, allocs: true, events: true, run: func(n int) measured {
		// A pool of 256 frames swept by 4096 pages: every fix evicts, one
		// in four writes back.
		env, pl := machine()
		pool := bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(256, pl.Cfg.PageSize))
		per := n / 4
		m := drive(env, 4, func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				id := storage.PageID(1 + (i*1024+j)%4096)
				pool.Fix(task, id)
				pool.Unfix(task, id, j%4 == 0)
			}
		}, nil)
		m.ops = 4 * per
		return m
	}},

	{name: "lockmgr.acquire_release_ns", ops: 48000, allocs: true, events: true, run: func(n int) measured {
		// Uncontended hierarchical 2PL: a table intention lock and three row
		// locks nobody else wants, released together. Operations are locks.
		env, pl := machine()
		lm := lockmgr.New(pl, lockmgr.DefaultConfig())
		table := lockmgr.TableLock(1)
		per := n / (4 * len(pl.Cores))
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				id := uint64(i*per + j + 1)
				mustLock(lm.Acquire(task, id, table, lockmgr.IX))
				for k := 0; k < 3; k++ {
					mustLock(lm.Acquire(task, id, lockmgr.RowLock(1, ladderKeys[(int(id)*3+k)%len(ladderKeys)]), lockmgr.X))
				}
				lm.ReleaseAll(task, id)
			}
		}, nil)
		m.ops = 4 * per * len(pl.Cores)
		return m
	}},
	{name: "lockmgr.contended_ns", ops: 24000, allocs: true, events: true, run: func(n int) measured {
		// Eight transactions at a time after four hot rows: most acquires
		// queue behind a holder. One row lock each, so nothing can deadlock.
		env, pl := machine()
		lm := lockmgr.New(pl, lockmgr.DefaultConfig())
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			r := sim.NewRand(uint64(20 + i))
			for j := 0; j < per; j++ {
				id := uint64(i*per + j + 1)
				mustLock(lm.Acquire(task, id, lockmgr.RowLock(1, ladderKeys[r.Intn(4)]), lockmgr.X))
				p.Wait(200 * sim.Nanosecond)
				lm.ReleaseAll(task, id)
			}
		}, nil)
		m.ops = per * len(pl.Cores)
		return m
	}},

	{name: "wal.append_ns", ops: 40000, allocs: true, events: true, run: func(n int) measured {
		env, pl := machine()
		log := wal.NewManager(pl, wal.NewStore(pl.SSD), wal.DefaultManagerConfig())
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				rec := logRecord(uint64(i*per+j), wal.RecUpdate)
				log.Append(task, &rec)
			}
		}, log.Stop)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "wal.commit_flush_ns", ops: 32000, allocs: true, events: true, run: func(n int) measured {
		// Append a commit record and wait for the group commit that makes
		// it durable.
		env, pl := machine()
		log := wal.NewManager(pl, wal.NewStore(pl.SSD), wal.DefaultManagerConfig())
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				rec := wal.Record{Txn: uint64(i*per + j), Type: wal.RecCommit}
				lsn := log.Append(task, &rec)
				durable := sim.NewSignal(env)
				log.CommitDurable(lsn, durable)
				durable.Await(p)
			}
		}, log.Stop)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "wal.decode_ns_per_record", ops: 200000, run: func(n int) measured {
		// What recovery does to a log: decode every record in order.
		var data []byte
		for j := 0; j < n; j++ {
			rec := logRecord(uint64(j), wal.RecUpdate)
			data = rec.Encode(data)
		}
		records := 0
		m := timed(func() {
			if err := wal.Scan(data, 0, func(wal.Record) bool { records++; return true }); err != nil {
				panic(err)
			}
		})
		m.ops = records
		return m
	}},
	{name: "hw.logengine.append_ns", ops: 160000, allocs: true, events: true, run: func(n int) measured {
		// The hardware log path: three staged data records, then a commit
		// record awaited through the arbitration epoch.
		env, pl := machine()
		log := logengine.New(pl, wal.NewStore(pl.SSD), logengine.DefaultConfig())
		per := n / (4 * len(pl.Cores))
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				id := uint64(i*per + j)
				for k := 0; k < 3; k++ {
					rec := logRecord(id, wal.RecUpdate)
					log.Append(task, &rec)
				}
				rec := wal.Record{Txn: id, Type: wal.RecCommit}
				h := log.Append(task, &rec)
				task.Flush()
				durable := sim.NewSignal(env)
				log.CommitDurable(h, durable)
				durable.Await(p)
			}
		}, log.Stop)
		m.ops = 4 * per * len(pl.Cores)
		return m
	}},

	{name: "txn.begin_commit_ns", ops: 16000, allocs: true, events: true, run: func(n int) measured {
		// One logged update between begin and a durable commit, on the
		// software log.
		env, pl := machine()
		store := wal.NewStore(pl.SSD)
		log := wal.NewManager(pl, store, wal.DefaultManagerConfig())
		tm := txn.NewManager(env, wal.NewLogSet(pl, []wal.LogShard{{App: log, Store: store}}), txn.DefaultConfig())
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			for j := 0; j < per; j++ {
				tx := tm.Begin(task)
				tm.LogUpdate(task, tx, 1, ladderKeys[j%ladderRows], ladderVal[:24], ladderVal[:24])
				durable := tm.Commit(task, tx)
				task.Flush()
				durable.Await(p)
			}
		}, log.Stop)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "dora.enqueue_rvp_ns", ops: 32000, allocs: true, events: true, run: func(n int) measured {
		// Four coordinators each send a one-action phase to one of four
		// partitions and wait at its rendezvous point.
		env, pl := machine()
		reg := dora.NewRegistry()
		var parts []*dora.Partition
		for i := 0; i < 4; i++ {
			pt := dora.NewPartition(pl, reg, i, pl.Cores[i], dora.DefaultCosts(), 1, nil)
			pt.Start()
			parts = append(parts, pt)
		}
		body := func(t *platform.Task, _ *dora.Partition) bool {
			t.Exec(stats.CompOther, 400)
			return true
		}
		per := n / 4
		m := drive(env, 4, func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[4+i], nil)
			for j := 0; j < per; j++ {
				rvp := dora.NewRVP(env, 1)
				parts[(i+j)%4].Enqueue(task, &dora.Action{TxnID: uint64(i*per + j + 1), RVP: rvp, Run: body})
				rvp.Await(p)
			}
		}, func() {
			for _, pt := range parts {
				pt.Close()
			}
		})
		m.ops = 4 * per
		return m
	}},

	{name: "hw.treeprobe.probe_ns", ops: 10000, events: true, run: func(n int) measured {
		env, pl := machine()
		probe := treeprobe.New(pl, treeprobe.DefaultConfig())
		tree := readTree()
		per := n / len(pl.Cores)
		m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
			task := pl.NewTask(p, pl.Cores[i], nil)
			r := sim.NewRand(uint64(30 + i))
			for j := 0; j < per; j++ {
				probe.Probe(task, tree, ladderKeys[2*r.Intn(ladderRows)])
			}
			task.Flush()
		}, nil)
		m.ops = per * len(pl.Cores)
		return m
	}},
	{name: "hw.overlay.get_ns", ops: 10000, events: true, run: func(n int) measured {
		return overlayRung(n, func(ov *overlay.Store, task *platform.Task, key []byte) { ov.Get(task, 1, key) })
	}},
	{name: "hw.overlay.put_ns", ops: 5000, allocs: true, events: true, run: func(n int) measured {
		return overlayRung(n, func(ov *overlay.Store, task *platform.Task, key []byte) { ov.Put(task, 1, key, ladderVal) })
	}},
	{name: "hw.scanner.scan_ns_per_row", ops: 4000000, run: func(n int) measured {
		env, pl := machine()
		table := columnar.NewTable(pl, "ladder", columnar.U64Col("k"), columnar.U64Col("v"))
		for i := 0; i < ladderRows; i++ {
			table.Upsert(uint64(i), uint64(i%97))
		}
		sc := scanner.New(pl, scanner.DefaultConfig())
		scans := n/ladderRows + 1
		m := drive(env, 1, func(p *sim.Proc, _ int) {
			task := pl.NewTask(p, pl.Cores[0], nil)
			for j := 0; j < scans; j++ {
				sc.Scan(task, table, func(t *columnar.Table, pos int) bool { return t.U64At("v", pos) < 10 }, []string{"v"})
			}
			task.Flush()
		}, nil)
		m.ops = scans * ladderRows
		return m
	}},

	{name: "stats.hist_record_ns", ops: 2000000, run: func(n int) measured {
		var h stats.Histogram
		m := timed(func() {
			for j := 0; j < n; j++ {
				h.Record(sim.Duration(1000 + j*7919%100000000))
			}
		})
		m.ops = n
		return m
	}},
	{name: "obs.record_ns", ops: 4000000, run: func(n int) measured {
		// The recorder's hot path, ring overwrite included.
		ring := obs.NewRecorder(1, obs.DefaultTraceCap).Shard(0)
		m := timed(func() {
			for j := 0; j < n; j++ {
				ring.Record(obs.Span{Start: sim.Time(j), End: sim.Time(j + 50), Kind: obs.KindAction, Txn: uint64(j)})
			}
		})
		m.ops = n
		return m
	}},
}

// overlayRung drives the overlay database with op on resident rows from
// every core.
func overlayRung(n int, op func(ov *overlay.Store, task *platform.Task, key []byte)) measured {
	env, pl := machine()
	probe := treeprobe.New(pl, treeprobe.DefaultConfig())
	ov := overlay.New(pl, probe, overlay.DefaultConfig())
	ov.CreateTable(1, 128)
	for i := 0; i < ladderRows; i++ {
		ov.LoadRaw(1, ladderKeys[i], ladderVal)
	}
	per := n / len(pl.Cores)
	m := drive(env, len(pl.Cores), func(p *sim.Proc, i int) {
		task := pl.NewTask(p, pl.Cores[i], nil)
		r := sim.NewRand(uint64(40 + i))
		for j := 0; j < per; j++ {
			op(ov, task, ladderKeys[r.Intn(ladderRows)])
		}
		task.Flush()
	}, ov.Stop)
	m.ops = per * len(pl.Cores)
	return m
}

func mustLock(err error) {
	if err != nil {
		panic(err) // the rungs' lock orders cannot deadlock
	}
}
