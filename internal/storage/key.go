package storage

// Key is a byte-string key held as a comparable value, so that it can key a
// Go map without a string allocation per insert: keys up to KeyInline bytes
// (every key of the shipped workloads) are held inline, longer ones spill
// into a string. Two Keys are == exactly when their bytes are equal.
type Key struct {
	n     uint8 // bytes held inline
	b     [KeyInline]byte
	spill string // the whole key when it does not fit inline, else ""
}

// KeyInline is the longest key a Key holds without spilling; TPC-C's
// customer-by-name index key, the longest in the shipped workloads, is 40.
const KeyInline = 40

// KeyOf returns b as a Key. It copies b, so the caller may reuse b's bytes.
func KeyOf(b []byte) Key {
	var k Key
	if len(b) > KeyInline {
		k.spill = string(b)
	} else {
		k.n = uint8(copy(k.b[:], b))
	}
	return k
}

// Bytes returns the key's bytes: a view into k for an inline key, which must
// not be written and is valid while k is, and a fresh copy for a spilled one.
func (k *Key) Bytes() []byte {
	if k.spill != "" {
		return []byte(k.spill)
	}
	return k.b[:k.n]
}
