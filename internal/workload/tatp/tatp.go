// Package tatp implements the TATP (Telecom Application Transaction
// Processing) benchmark: the Subscriber / Access_Info / Special_Facility /
// Call_Forwarding schema, the non-uniform subscriber distribution, and all
// seven transaction types in the standard 35/35/10/2/14/2/2 mix. TATP
// UpdateSubscriberData is the left bar of the paper's Figure 3.
package tatp

import (
	"bionicdb/internal/core"
	"bionicdb/internal/dora"
	"bionicdb/internal/sim"
	"bionicdb/internal/storage"
	"bionicdb/internal/workload"
)

// Table ids.
const (
	TSubscriber uint16 = iota + 1
	TAccessInfo
	TSpecialFacility
	TCallForwarding
	TSubNbrIdx // secondary index: sub_nbr -> s_id
)

// Config scales the benchmark.
type Config struct {
	// Subscribers is the scale factor (TATP default 100000).
	Subscribers int
}

// DefaultConfig returns the 100k-subscriber configuration used for the
// Figure 3 and Figure 4 experiments.
func DefaultConfig() Config { return Config{Subscribers: 100000} }

// Workload implements core.Workload.
type Workload struct {
	cfg     Config
	streams workload.PerStream[txns]
}

// New creates a TATP workload.
func New(cfg Config) *Workload {
	if cfg.Subscribers < 1 {
		cfg.Subscribers = 1
	}
	return &Workload{cfg: cfg, streams: workload.PerStream[txns]{New: newTxns}}
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "tatp" }

// Tables implements core.Workload.
func (w *Workload) Tables() []core.TableDef {
	return []core.TableDef{
		{ID: TSubscriber, Name: "subscriber", Order: 128},
		{ID: TAccessInfo, Name: "access_info", Order: 128},
		{ID: TSpecialFacility, Name: "special_facility", Order: 128},
		{ID: TCallForwarding, Name: "call_forwarding", Order: 128},
		{ID: TSubNbrIdx, Name: "sub_nbr_idx", Order: 128},
	}
}

// Scheme implements core.Workload: everything routes by subscriber id, so
// a subscriber's rows across all tables colocate in one partition and the
// subscriber is the DORA entity.
func (w *Workload) Scheme(partitions int) core.PartitionScheme {
	return core.PartitionScheme{
		Partitions: partitions,
		Route: func(table uint16, key []byte) int {
			return int(sidOf(table, key) % uint64(partitions))
		},
		Entity: func(table uint16, key []byte) dora.Entity {
			return dora.Entity1('s', sidOf(table, key))
		},
	}
}

// sidOf extracts the subscriber id from any table's key.
func sidOf(table uint16, key []byte) uint64 {
	if table == TSubNbrIdx {
		return parseSubNbr(key)
	}
	return storage.DecodeUint64(key)
}

func parseSubNbr(nbr []byte) uint64 {
	var v uint64
	for _, c := range nbr {
		v = v*10 + uint64(c-'0')
	}
	return v
}

// Row encodings. Fixed field order via storage.RecordWriter/Reader. Encode
// builds a row in an arena at its exact size: the transaction path in the
// attempt's arena and Populate in the subscriber's, since the store copies
// the rows it keeps, and a nil arena returns a fresh row the caller owns. A
// decoded row's variable-width fields are views into the encoded row: stored
// rows are immutable (a write replaces the row, never overwrites it in
// place), so decoding copies nothing.

// SubscriberRow is the decoded Subscriber tuple.
type SubscriberRow struct {
	SID    uint64
	Bits   uint32 // bit_1..bit_10
	Hex    uint64 // hex_1..hex_10, 4 bits each
	Byte2  []byte // byte2_1..byte2_10
	MSC    uint32
	VLR    uint32
	SubNbr []byte
}

// Encode serializes the row in a.
func (r *SubscriberRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 32+len(r.Byte2)+len(r.SubNbr))
	w.Uint64(r.SID).Uint32(r.Bits).Uint64(r.Hex).Bytes(r.Byte2).Uint32(r.MSC).Uint32(r.VLR).Bytes(r.SubNbr)
	return w.Finish()
}

// DecodeSubscriber parses a Subscriber row.
func DecodeSubscriber(b []byte) SubscriberRow {
	rd := storage.NewRecordReader(b)
	return SubscriberRow{
		SID: rd.Uint64(), Bits: rd.Uint32(), Hex: rd.Uint64(),
		Byte2: rd.Bytes(), MSC: rd.Uint32(), VLR: rd.Uint32(), SubNbr: rd.Bytes(),
	}
}

// SpecialFacilityRow is the decoded Special_Facility tuple.
type SpecialFacilityRow struct {
	SID      uint64
	SFType   uint32
	IsActive uint32
	ErrorCtl uint32
	DataA    uint32
	DataB    []byte
}

// Encode serializes the row in a.
func (r *SpecialFacilityRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 26+len(r.DataB))
	w.Uint64(r.SID).Uint32(r.SFType).Uint32(r.IsActive).Uint32(r.ErrorCtl).Uint32(r.DataA).Bytes(r.DataB)
	return w.Finish()
}

// DecodeSpecialFacility parses a Special_Facility row.
func DecodeSpecialFacility(b []byte) SpecialFacilityRow {
	rd := storage.NewRecordReader(b)
	return SpecialFacilityRow{
		SID: rd.Uint64(), SFType: rd.Uint32(), IsActive: rd.Uint32(),
		ErrorCtl: rd.Uint32(), DataA: rd.Uint32(), DataB: rd.Bytes(),
	}
}

// CallForwardingRow is the decoded Call_Forwarding tuple.
type CallForwardingRow struct {
	SID       uint64
	SFType    uint32
	StartTime uint32 // 0, 8, 16
	EndTime   uint32
	NumberX   []byte
}

// Encode serializes the row in a.
func (r *CallForwardingRow) Encode(a *storage.Arena) []byte {
	w := storage.NewRecordWriter(a, 22+len(r.NumberX))
	w.Uint64(r.SID).Uint32(r.SFType).Uint32(r.StartTime).Uint32(r.EndTime).Bytes(r.NumberX)
	return w.Finish()
}

// DecodeCallForwarding parses a Call_Forwarding row.
func DecodeCallForwarding(b []byte) CallForwardingRow {
	rd := storage.NewRecordReader(b)
	return CallForwardingRow{
		SID: rd.Uint64(), SFType: rd.Uint32(), StartTime: rd.Uint32(),
		EndTime: rd.Uint32(), NumberX: rd.Bytes(),
	}
}

// dataB is the Special_Facility filler text.
var dataB = []byte("fghij")

// accessInfoRow encodes an Access_Info tuple in a (only data1 is read
// back).
func accessInfoRow(a *storage.Arena, sid uint64, aiType uint32, r *sim.Rand) []byte {
	w := storage.NewRecordWriter(a, 32)
	w.Uint64(sid).Uint32(aiType).Uint32(uint32(r.Intn(256))).Uint32(uint32(r.Intn(256)))
	w.String("abc").String("abcde")
	return w.Finish()
}

// Keys.

// keys builds every table's key, in the arena a: the transaction path and
// Populate build theirs in the attempt's (or the row's) arena, where they cost
// no allocation, and the exported functions below build in the nil arena,
// which returns fresh slices the caller owns.
type keys struct{ a *storage.Arena }

func (k keys) subscriber(sid uint64) []byte { return k.a.Uint64Key(sid) }

func (k keys) accessInfo(sid uint64, aiType uint32) []byte {
	return k.a.CompositeKey(sid, uint64(aiType))
}

func (k keys) sf(sid uint64, sfType uint32) []byte {
	return k.a.CompositeKey(sid, uint64(sfType))
}

func (k keys) cf(sid uint64, sfType, start uint32) []byte {
	return k.a.CompositeKey(sid, uint64(sfType), uint64(start))
}

// subNbr is the sub_nbr index key: the 15-digit subscriber number.
func (k keys) subNbr(sid uint64) []byte {
	b := k.a.Alloc(15)
	for i := 14; i >= 0; i-- {
		b[i] = byte('0' + sid%10)
		sid /= 10
	}
	return b
}

// Populate implements core.Workload: the spec's population rules — every
// subscriber, 1-4 access-info rows, 1-4 special facilities (85% active),
// 0-3 call forwardings per facility.
//
// Every key and row (and the sub_nbr texts and random bytes the rows embed)
// is built in one arena that is reset per subscriber: the engine's tree
// copies the keys and rows it keeps, so a fresh slice per row would be
// allocated twice.
func (w *Workload) Populate(load func(table uint16, key, val []byte), r *sim.Rand) {
	n := w.cfg.Subscribers
	var arena storage.Arena
	k := keys{&arena}
	for i := 1; i <= n; i++ {
		arena.Reset()
		sid := uint64(i)
		nbr := k.subNbr(sid)
		sub := SubscriberRow{
			SID:    sid,
			Bits:   uint32(r.Uint64() & 0x3ff),
			Hex:    r.Uint64() & 0xffffffffff,
			Byte2:  randBytes(&arena, r, 10),
			MSC:    uint32(r.Uint64()),
			VLR:    uint32(r.Uint64()),
			SubNbr: nbr,
		}
		load(TSubscriber, k.subscriber(sid), sub.Encode(&arena))
		load(TSubNbrIdx, nbr, arena.Uint64Key(sid))

		for _, ai := range pickTypes(r) {
			load(TAccessInfo, k.accessInfo(sid, ai), accessInfoRow(&arena, sid, ai, r))
		}
		for _, sf := range pickTypes(r) {
			active := uint32(0)
			if r.Bool(0.85) {
				active = 1
			}
			row := SpecialFacilityRow{SID: sid, SFType: sf, IsActive: active,
				ErrorCtl: uint32(r.Intn(256)), DataA: uint32(r.Intn(256)), DataB: dataB}
			load(TSpecialFacility, k.sf(sid, sf), row.Encode(&arena))
			nCF := r.Intn(4)
			starts := []uint32{0, 8, 16}
			for c := 0; c < nCF; c++ {
				st := starts[c%3]
				cf := CallForwardingRow{SID: sid, SFType: sf, StartTime: st,
					EndTime: st + uint32(r.Range(1, 8)), NumberX: k.subNbr(uint64(r.Range(1, n)))}
				load(TCallForwarding, k.cf(sid, sf, st), cf.Encode(&arena))
			}
		}
	}
}

// pickTypes returns a random non-empty subset size 1-4 of types {1,2,3,4}
// (the spec's "1 to 4 rows, types distinct").
func pickTypes(r *sim.Rand) []uint32 {
	count := r.Range(1, 4)
	perm := r.Perm(4)
	out := make([]uint32, count)
	for i := 0; i < count; i++ {
		out[i] = uint32(perm[i] + 1)
	}
	return out
}

// randBytes draws n random bytes in a.
func randBytes(a *storage.Arena, r *sim.Rand, n int) []byte {
	b := a.Alloc(n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// nuRand is TATP's non-uniform subscriber id generator.
func (w *Workload) nuRand(r *sim.Rand) uint64 {
	n := uint64(w.cfg.Subscribers)
	a := uint64(65535)
	if n > 1000000 {
		a = 1048575
	}
	return ((r.Uint64()%(a+1))|(1+r.Uint64()%n))%n + 1
}

// Transaction mix percentages (TATP standard).
const (
	pGetSubscriberData = 35
	pGetNewDestination = 10
	pGetAccessData     = 35
	pUpdateSubData     = 2
	pUpdateLocation    = 14
	pInsertCF          = 2
	// DeleteCallForwarding takes the remaining 2%.
)

// NextTxn implements core.Workload.
func (w *Workload) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	p := r.Intn(100)
	switch {
	case p < pGetSubscriberData:
		return "GetSubscriberData", w.GetSubscriberData(r)
	case p < pGetSubscriberData+pGetNewDestination:
		return "GetNewDestination", w.GetNewDestination(r)
	case p < pGetSubscriberData+pGetNewDestination+pGetAccessData:
		return "GetAccessData", w.GetAccessData(r)
	case p < pGetSubscriberData+pGetNewDestination+pGetAccessData+pUpdateSubData:
		return "UpdateSubscriberData", w.UpdateSubscriberData(r)
	case p < pGetSubscriberData+pGetNewDestination+pGetAccessData+pUpdateSubData+pUpdateLocation:
		return "UpdateLocation", w.UpdateLocation(r)
	case p < pGetSubscriberData+pGetNewDestination+pGetAccessData+pUpdateSubData+pUpdateLocation+pInsertCF:
		return "InsertCallForwarding", w.InsertCallForwarding(r)
	default:
		return "DeleteCallForwarding", w.DeleteCallForwarding(r)
	}
}

// Transactions. Each type is an input struct that its exported method fills
// with the spec's draws from r, returning the struct's logic, which stays
// valid until r's next draw. The struct belongs to r (txns); its logic,
// action bodies and scan callbacks are method values bound once, in bind, so
// an attempt only builds its keys in the attempt's arena and hands Phase the
// struct's own action array.

// txns is one stream's transaction inputs, one struct per type.
type txns struct {
	getSub  getSubscriberData
	getAcc  getAccessData
	getDest getNewDestination
	updSub  updateSubscriberData
	updLoc  updateLocation
	insCF   insertCallForwarding
	delCF   deleteCallForwarding
}

func newTxns() *txns {
	t := new(txns)
	t.getSub.bind()
	t.getAcc.bind()
	t.getDest.bind()
	t.updSub.bind()
	t.updLoc.bind()
	t.insCF.bind()
	t.delCF.bind()
	return t
}

// GetSubscriberData reads one subscriber row (read-only, 35%).
func (w *Workload) GetSubscriberData(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).getSub
	t.sid = w.nuRand(r)
	return t.logic
}

type getSubscriberData struct {
	sid   uint64
	act   [1]core.Action // Key: the subscriber
	logic core.TxnLogic
}

func (t *getSubscriberData) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TSubscriber, Body: t.read}
}

func (t *getSubscriberData) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.subscriber(t.sid)
	return tx.Phase(t.act[:]...)
}

func (t *getSubscriberData) read(c core.AccessCtx) bool {
	c.Read(TSubscriber, t.act[0].Key)
	return true
}

// GetAccessData reads one access-info row (read-only, 35%; ~62.5% hit).
func (w *Workload) GetAccessData(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).getAcc
	t.sid = w.nuRand(r)
	t.ai = uint32(r.Range(1, 4))
	return t.logic
}

type getAccessData struct {
	sid   uint64
	ai    uint32
	act   [1]core.Action // Key: the access-info row
	logic core.TxnLogic
}

func (t *getAccessData) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TAccessInfo, Body: t.read}
}

func (t *getAccessData) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.accessInfo(t.sid, t.ai)
	return tx.Phase(t.act[:]...)
}

func (t *getAccessData) read(c core.AccessCtx) bool {
	c.Read(TAccessInfo, t.act[0].Key)
	return true
}

// GetNewDestination reads a special facility and its active call
// forwardings (read-only, 10%).
func (w *Workload) GetNewDestination(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).getDest
	t.sid = w.nuRand(r)
	t.sf = uint32(r.Range(1, 4))
	t.startTime = uint32(r.Intn(3) * 8)
	t.endTime = uint32(r.Range(1, 24))
	return t.logic
}

type getNewDestination struct {
	sid                uint64
	sf                 uint32
	startTime, endTime uint32
	act                [1]core.Action // Key: the special facility
	logic              core.TxnLogic
	match              func(key, val []byte) bool
}

func (t *getNewDestination) bind() {
	t.logic, t.act[0], t.match = t.run, core.Action{Table: TSpecialFacility, Body: t.read}, t.matchCF
}

func (t *getNewDestination) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.sf(t.sid, t.sf)
	return tx.Phase(t.act[:]...)
}

func (t *getNewDestination) read(c core.AccessCtx) bool {
	val, ok := c.Read(TSpecialFacility, t.act[0].Key)
	if !ok {
		return true // unsuccessful but committed
	}
	row := DecodeSpecialFacility(val)
	if row.IsActive == 0 {
		return true
	}
	k := keys{c.Arena()}
	c.Scan(TCallForwarding, k.cf(t.sid, t.sf, 0), k.cf(t.sid, t.sf+1, 0), t.match)
	return true
}

func (t *getNewDestination) matchCF(_, v []byte) bool {
	cf := DecodeCallForwarding(v)
	_ = cf.StartTime <= t.startTime && t.startTime < cf.EndTime && t.endTime <= cf.EndTime
	return true
}

// UpdateSubscriberData updates subscriber bit_1 and a special facility's
// data_a (2%; rolls back when the facility row is absent — the Figure 3
// left bar workload).
func (w *Workload) UpdateSubscriberData(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).updSub
	t.sid = w.nuRand(r)
	t.sf = uint32(r.Range(1, 4))
	t.bit = uint32(1) << uint(r.Intn(10))
	t.dataA = uint32(r.Intn(256))
	return t.logic
}

type updateSubscriberData struct {
	sid            uint64
	sf, bit, dataA uint32
	sfKey          []byte
	act            [1]core.Action // Key: the subscriber
	logic          core.TxnLogic
}

func (t *updateSubscriberData) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TSubscriber, Body: t.update}
}

func (t *updateSubscriberData) run(tx core.Tx) bool {
	k := keys{tx.Arena()}
	t.act[0].Key, t.sfKey = k.subscriber(t.sid), k.sf(t.sid, t.sf)
	return tx.Phase(t.act[:]...)
}

func (t *updateSubscriberData) update(c core.AccessCtx) bool {
	subKey := t.act[0].Key
	val, ok := c.ReadForUpdate(TSubscriber, subKey)
	if !ok {
		return false
	}
	sub := DecodeSubscriber(val)
	sub.Bits ^= t.bit
	if !c.Update(TSubscriber, subKey, sub.Encode(c.Arena())) {
		return false
	}
	sfVal, ok := c.ReadForUpdate(TSpecialFacility, t.sfKey)
	if !ok {
		return false // spec: roll back
	}
	row := DecodeSpecialFacility(sfVal)
	row.DataA = t.dataA
	return c.Update(TSpecialFacility, t.sfKey, row.Encode(c.Arena()))
}

// UpdateLocation updates vlr_location, located via the sub_nbr secondary
// index (14%).
func (w *Workload) UpdateLocation(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).updLoc
	t.sid = w.nuRand(r)
	t.vlr = uint32(r.Uint64())
	return t.logic
}

type updateLocation struct {
	sid   uint64
	vlr   uint32
	act   [1]core.Action // Key: the sub_nbr index entry
	logic core.TxnLogic
}

func (t *updateLocation) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TSubNbrIdx, Body: t.update}
}

func (t *updateLocation) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.subNbr(t.sid)
	return tx.Phase(t.act[:]...)
}

func (t *updateLocation) update(c core.AccessCtx) bool {
	idxVal, ok := c.Read(TSubNbrIdx, t.act[0].Key)
	if !ok {
		return false
	}
	target := keys{c.Arena()}.subscriber(storage.DecodeUint64(idxVal))
	val, ok := c.ReadForUpdate(TSubscriber, target)
	if !ok {
		return false
	}
	sub := DecodeSubscriber(val)
	sub.VLR = t.vlr
	return c.Update(TSubscriber, target, sub.Encode(c.Arena()))
}

// InsertCallForwarding inserts a call-forwarding row (2%; fails when the
// facility is absent or the row already exists).
func (w *Workload) InsertCallForwarding(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).insCF
	t.sid = w.nuRand(r)
	t.sf = uint32(r.Range(1, 4))
	t.start = uint32(r.Intn(3) * 8)
	t.end = t.start + uint32(r.Range(1, 8))
	return t.logic
}

type insertCallForwarding struct {
	sid            uint64
	sf, start, end uint32
	act            [1]core.Action // Key: the sub_nbr index entry
	logic          core.TxnLogic
}

func (t *insertCallForwarding) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TSubNbrIdx, Body: t.insert}
}

func (t *insertCallForwarding) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.subNbr(t.sid)
	return tx.Phase(t.act[:]...)
}

func (t *insertCallForwarding) insert(c core.AccessCtx) bool {
	nbr := t.act[0].Key
	idxVal, ok := c.Read(TSubNbrIdx, nbr)
	if !ok {
		return false
	}
	target := storage.DecodeUint64(idxVal)
	k := keys{c.Arena()}
	if _, ok := c.Read(TSpecialFacility, k.sf(target, t.sf)); !ok {
		return false
	}
	row := CallForwardingRow{SID: target, SFType: t.sf, StartTime: t.start, EndTime: t.end, NumberX: nbr}
	return c.Insert(TCallForwarding, k.cf(target, t.sf, t.start), row.Encode(c.Arena()))
}

// DeleteCallForwarding removes a call-forwarding row (2%; fails when
// absent).
func (w *Workload) DeleteCallForwarding(r *sim.Rand) core.TxnLogic {
	t := &w.streams.Of(r).delCF
	t.sid = w.nuRand(r)
	t.sf = uint32(r.Range(1, 4))
	t.start = uint32(r.Intn(3) * 8)
	return t.logic
}

type deleteCallForwarding struct {
	sid       uint64
	sf, start uint32
	act       [1]core.Action // Key: the sub_nbr index entry
	logic     core.TxnLogic
}

func (t *deleteCallForwarding) bind() {
	t.logic, t.act[0] = t.run, core.Action{Table: TSubNbrIdx, Body: t.delete}
}

func (t *deleteCallForwarding) run(tx core.Tx) bool {
	t.act[0].Key = keys{tx.Arena()}.subNbr(t.sid)
	return tx.Phase(t.act[:]...)
}

func (t *deleteCallForwarding) delete(c core.AccessCtx) bool {
	idxVal, ok := c.Read(TSubNbrIdx, t.act[0].Key)
	if !ok {
		return false
	}
	target := storage.DecodeUint64(idxVal)
	return c.Delete(TCallForwarding, keys{c.Arena()}.cf(target, t.sf, t.start))
}

// UpdateSubDataOnly returns a workload variant that issues only
// UpdateSubscriberData transactions — the Figure 3 left-bar configuration.
func (w *Workload) UpdateSubDataOnly() core.Workload {
	return workload.NewSingle(w, "tatp-updsubdata", "UpdateSubscriberData", w.UpdateSubscriberData)
}
