package core_test

import (
	"bytes"
	"hash/fnv"
	"testing"
	"unsafe"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// heldView is one row view a transaction attempt took, with a copy of the
// bytes it read then.
type heldView struct {
	table      uint16
	key        []byte
	view, want []byte
}

// viewHolder wraps a workload so that every attempt keeps every row view it
// takes, through Read, ReadForUpdate and Scan, and also views, taken with
// ReadRaw as the attempt starts, of the last rows other transactions wrote:
// rows the rest of the run is replacing while the attempt parks in its
// phases. When the logic returns, inside the attempt, every view must still
// read the bytes it read when it was taken. Everything it does is host-side
// and untimed, so the run is the run the workload alone makes.
type viewHolder struct {
	core.Workload
	eng core.Engine

	recent [8]heldView // the last rows written, as (table, key)
	next   int

	seen map[uintptr]uint64 // a row's first byte → a hash of the row last read there

	views, replaced, reused, stale int
}

func (h *viewHolder) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	name, logic := h.Workload.NextTxn(r)
	return name, func(tx core.Tx) bool {
		a := &heldAttempt{h: h}
		for _, w := range h.recent {
			if w.key != nil {
				if v, ok := h.eng.ReadRaw(w.table, w.key); ok {
					a.keep(w.table, w.key, v)
				}
			}
		}
		ok := logic(&holdingTx{Tx: tx, a: a})
		a.check()
		return ok
	}
}

// heldAttempt is one attempt's views and the keys it wrote itself.
type heldAttempt struct {
	h       *viewHolder
	views   []heldView
	written [][]byte
}

func (a *heldAttempt) keep(table uint16, key, v []byte) {
	h := a.h
	h.views++
	a.views = append(a.views, heldView{table, bytes.Clone(key), v, bytes.Clone(v)})
	if len(v) == 0 {
		return
	}
	f := fnv.New64a()
	f.Write(v)
	at, sum := uintptr(unsafe.Pointer(&v[0])), f.Sum64()
	if prev, ok := h.seen[at]; ok && prev != sum {
		h.reused++ // stored rows change only when the tree reuses their bytes
	}
	h.seen[at] = sum
}

func (a *heldAttempt) wrote(table uint16, key []byte) {
	k := bytes.Clone(key)
	a.written = append(a.written, k)
	a.h.recent[a.h.next%len(a.h.recent)] = heldView{table: table, key: k}
	a.h.next++
}

// check requires every view to hold its bytes, and counts the views whose
// row another attempt replaced or deleted while this one held them.
func (a *heldAttempt) check() {
	h := a.h
	for _, v := range a.views {
		if !bytes.Equal(v.view, v.want) {
			h.stale++
			continue
		}
		cur, ok := h.eng.ReadRaw(v.table, v.key)
		if ok && len(cur) > 0 && len(v.view) > 0 && &cur[0] == &v.view[0] {
			continue
		}
		own := false
		for _, k := range a.written {
			own = own || bytes.Equal(k, v.key)
		}
		if !own {
			h.replaced++
		}
	}
}

// holdingTx hands the logic's bodies an AccessCtx that keeps their views.
type holdingTx struct {
	core.Tx
	a *heldAttempt
}

func (t *holdingTx) Phase(actions ...core.Action) bool {
	wrapped := make([]core.Action, len(actions))
	for i, act := range actions {
		body := act.Body
		act.Body = func(c core.AccessCtx) bool { return body(&holdingCtx{AccessCtx: c, a: t.a}) }
		wrapped[i] = act
	}
	return t.Tx.Phase(wrapped...)
}

type holdingCtx struct {
	core.AccessCtx
	a *heldAttempt
}

func (c *holdingCtx) Read(table uint16, key []byte) ([]byte, bool) {
	v, ok := c.AccessCtx.Read(table, key)
	if ok {
		c.a.keep(table, key, v)
	}
	return v, ok
}

func (c *holdingCtx) ReadForUpdate(table uint16, key []byte) ([]byte, bool) {
	v, ok := c.AccessCtx.ReadForUpdate(table, key)
	if ok {
		c.a.keep(table, key, v)
	}
	return v, ok
}

func (c *holdingCtx) Scan(table uint16, from, to []byte, fn func(k, v []byte) bool) {
	c.AccessCtx.Scan(table, from, to, func(k, v []byte) bool {
		c.a.keep(table, k, v)
		return fn(k, v)
	})
}

func (c *holdingCtx) Update(table uint16, key, val []byte) bool {
	c.a.wrote(table, key)
	return c.AccessCtx.Update(table, key, val)
}

func (c *holdingCtx) Insert(table uint16, key, val []byte) bool {
	c.a.wrote(table, key)
	return c.AccessCtx.Insert(table, key, val)
}

func (c *holdingCtx) Delete(table uint16, key []byte) bool {
	c.a.wrote(table, key)
	return c.AccessCtx.Delete(table, key)
}

// viewDigests pins the content each engine leaves behind on each workload
// in TestViewsOutliveReplacement: the digests the same runs leave on trees
// that never reuse a byte (recorded before the trees had a reclaimer), so
// reuse moves no row. Commits, views and replacements were equal too.
var viewDigests = map[string]string{
	"tpcc/conventional":                   "cafddea9504d1ebb5dc6d61e417dfef5572427d6c61971c978f3b2ef0b9a6e50",
	"tpcc/dora":                           "721f7b14917bc223da3db66681a60e1a23ef7d77c0e98fb0f7b573aa20044c58",
	"tpcc/bionic[tree+log+queue+overlay]": "c2ce6dcde7e946480f88ca32e47904293c3bfa2115672f8bf54abbddd58aa545",
	"tatp/conventional":                   "3675013179ce927e91bdbaa9bf7a774417bb973dd0ddd54cbf34c3251988c00d",
	"tatp/dora":                           "b2bdff2936c7ff282c6e6850712f319dd3e4e4ab3e1c93a2f45fe0658a55cac7",
	"tatp/bionic[tree+log+queue+overlay]": "74e6fd0b2cdbd042239501b25bee5e14ab75a63c181e6359fcb9a46e2345d25d",
	"ycsb/conventional":                   "08fa7f2dccad5262de685661d667de863bf5877ae4052ad554255c75025a6c70",
	"ycsb/dora":                           "dada7b8cc4943f2807092e60dd2192e46783612150fe3f3ca46502b1b429c5a6",
	"ycsb/bionic[tree+log+queue+overlay]": "98ae64048b1b439251086f3b10d1d00896380ac652ea1258b0d52599f139e4c9",
}

// TestViewsOutliveReplacement runs TPC-C, TATP and YCSB on the conventional,
// DORA and full bionic engines with every attempt holding its row views, and
// the views of the rows other transactions last wrote, until its logic
// returns. Other terminals replace those rows meanwhile and the trees reuse
// the bytes of dead versions, yet every view must read what it read when it
// was taken, and the database must end as the pinned digest says.
func TestViewsOutliveReplacement(t *testing.T) {
	ycfg := ycsb.WorkloadA()
	ycfg.Records, ycfg.Theta = 2000, 0.9
	workloads := []func() core.Workload{
		func() core.Workload { return tpcc.New(tpcc.SmallConfig()) },
		func() core.Workload { return tatp.New(tatp.Config{Subscribers: 1000}) },
		func() core.Workload { return ycsb.New(ycfg) },
	}
	engines := []func(env *sim.Env, wl core.Workload) core.Engine{
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewConventional(env, platform.HC2(), wl.Tables())
		},
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewDORA(env, platform.HC2(), wl.Tables(), wl.Scheme(8))
		},
		func(env *sim.Env, wl core.Workload) core.Engine {
			return core.NewBionic(env, platform.HC2(), wl.Tables(), wl.Scheme(8), core.AllOffloads(), 8)
		},
	}
	for _, mkWl := range workloads {
		for _, mkEng := range engines {
			h := &viewHolder{Workload: mkWl(), seen: map[uintptr]uint64{}}
			res, err := core.Run(core.RunConfig{
				Terminals: 32, Warmup: 2 * sim.Millisecond, Measure: 8 * sim.Millisecond, Seed: 42,
			}, h, func(env *sim.Env) core.Engine {
				h.eng = mkEng(env, h.Workload)
				return h.eng
			})
			if err != nil {
				t.Fatal(err)
			}
			name := h.Name() + "/" + h.eng.Name()
			digest := core.ContentDigest(h.eng.Tables())
			t.Logf("%s: %d commits, %d views, %d replaced by another attempt while held, %d reuses seen, content %s",
				name, res.Commits, h.views, h.replaced, h.reused, digest)
			if h.stale != 0 {
				t.Errorf("%s: %d of %d views changed before their attempt ended", name, h.stale, h.views)
			}
			if h.replaced == 0 || h.reused == 0 {
				t.Errorf("%s: %d views replaced while held, %d reuses seen; want some of each", name, h.replaced, h.reused)
			}
			if want := viewDigests[name]; digest != want {
				t.Errorf("%s: content %s, want %s", name, digest, want)
			}
		}
	}
}
