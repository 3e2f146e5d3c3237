package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for an
// even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default "exclusive" method), so a
// spread computed here is the one the acceptance protocol computes. It needs
// at least two values; with fewer all three are the single value.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// stepQuantile is a histogram's quantised percentile query: non-decreasing in
// p, constant over each bucket, and jumping from one non-empty bucket's
// representative value to the next.
type stepQuantile func(p float64) float64

// bucket is one non-empty histogram bucket as the percentile query reveals
// it: the value it answers with and the percentile range it answers it for.
type bucket struct{ v, from, to float64 }

// buckets recovers the histogram behind a percentile query by bisecting for
// the percentiles at which the answer changes.
func buckets(step stepQuantile) []bucket {
	// firstAbove returns the smallest percentile whose answer exceeds v,
	// 100 when none does.
	firstAbove := func(v float64) float64 {
		lo, hi := 0.0, 100.0
		if step(math.Nextafter(hi, 0)) <= v {
			return 100
		}
		for i := 0; i < 60; i++ {
			if mid := (lo + hi) / 2; step(mid) > v {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	var bs []bucket
	for from := 0.0; from < 100; {
		v := step(math.Nextafter(from, 100))
		to := firstAbove(v)
		bs = append(bs, bucket{v, from, to})
		from = to
	}
	return bs
}

// quantile estimates the p-th percentile (0 < p < 100) of the histogram bs
// came from, given its exact minimum and mean. A bucketed histogram answers
// every p inside one bucket with the same value, so its p50 of a narrow
// distribution reads the same on every seed and flips by a whole bucket on
// a wide one. This places each bucket's mass at its representative value
// and interpolates linearly between the two buckets around p - the usual
// estimate for grouped data.
//
// The last bucket may be an overflow bucket holding an unbounded tail (the
// program's histogram lumps everything above 4.29 ms together, and TPC-C's
// p99 lies in there). Its mean follows from the exact mean and the other
// buckets, and inside it the estimate is that of an exponential tail with
// that mean starting at the bucket's lower edge.
func quantile(bs []bucket, p, min, mean float64) float64 {
	k := 0
	for k < len(bs)-1 && p >= bs[k].to {
		k++
	}
	centre := func(b bucket) float64 { return (b.from + b.to) / 2 }
	last := len(bs) - 1
	if k == last && last > 0 {
		share := (100 - bs[last].from) / 100
		below := 0.0
		for _, b := range bs[:last] {
			below += b.v * (b.to - b.from) / 100
		}
		edge := (bs[last-1].v + bs[last].v) / 2
		if tailMean := (mean - below) / share; tailMean > edge {
			return edge + (tailMean-edge)*math.Log(share*100/(100-p))
		}
		return bs[last].v
	}
	c0, v0 := centre(bs[k]), bs[k].v
	c1, v1 := 0.0, min // below the first bucket's centre: towards the minimum
	switch {
	case p >= c0 && k == last:
		return v0 // a single bucket: nothing above to interpolate towards
	case p >= c0:
		c1, v1 = centre(bs[k+1]), bs[k+1].v
	case k > 0:
		c1, v1 = centre(bs[k-1]), bs[k-1].v
	}
	return v0 + (v1-v0)*(p-c0)/(c1-c0)
}
