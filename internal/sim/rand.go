package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xorshift64*). Simulations must draw all randomness from
// a Rand seeded by the harness so runs are reproducible; math/rand's global
// state is never used.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded from seed via splitmix64, so nearby
// seeds give unrelated streams.
func NewRand(seed uint64) *Rand {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &Rand{state: z}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Split returns a new generator with a stream derived from, but independent
// of, this one. Use it to give each simulated process its own stream.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64()) }

// Exp returns an exponentially distributed duration with the given mean,
// for arrival-process modelling. The result is at least 1 ps.
func (r *Rand) Exp(mean Duration) Duration {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	d := Duration(-float64(mean) * math.Log(u))
	if d < 1 {
		d = 1
	}
	return d
}
