package platform

import (
	"testing"

	"bionicdb/internal/sim"
)

var benchSink bool

func benchLines(pattern string) []uint64 {
	n := 4096
	if pattern == "llc" {
		n = 1 << 20
	}
	lines := make([]uint64, n)
	r := sim.NewRand(1)
	for i := range lines {
		switch pattern {
		case "mru": // the ladder's hit rung: 64 lines, one per L1 set
			lines[i] = uint64(i % 64)
		case "mixed": // hits at every way position, fills, evictions
			lines[i] = uint64(r.Intn(64 * 8 * 3 / 2))
		case "llc": // an LLC-sized tag store probed all over: the host's own caches miss
			lines[i] = uint64(r.Intn(1 << 19))
		}
	}
	return lines
}

func BenchmarkCacheFlat(b *testing.B) {
	for _, pat := range []string{"mru", "mixed", "llc"} {
		b.Run(pat, func(b *testing.B) {
			c := newCacheLevel(32<<10, 8, 64)
			if pat == "llc" {
				c = newCacheLevel(20<<20, 16, 64)
			}
			lines := benchLines(pat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = c.access(lines[i&(len(lines)-1)])
			}
		})
	}
}

func BenchmarkCacheNested(b *testing.B) {
	for _, pat := range []string{"mru", "mixed", "llc"} {
		b.Run(pat, func(b *testing.B) {
			c := &nestedCache{assoc: 8, mask: 63, sets: make([][]uint64, 64)}
			if pat == "llc" {
				c = &nestedCache{assoc: 16, mask: 1<<14 - 1, sets: make([][]uint64, 1<<14)}
			}
			lines := benchLines(pat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = c.access(lines[i&(len(lines)-1)])
			}
		})
	}
}
