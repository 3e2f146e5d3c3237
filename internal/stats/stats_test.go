package stats

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"bionicdb/internal/sim"
)

func TestComponentNames(t *testing.T) {
	want := []string{"Other", "Front-end", "Dora", "Xct mgmt", "Log mgmt", "Btree mgmt", "Bpool mgmt"}
	comps := Components()
	if len(comps) != len(want) {
		t.Fatalf("%d components", len(comps))
	}
	for i, c := range comps {
		if c.String() != want[i] {
			t.Errorf("component %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if s := Component(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range component = %q", s)
	}
}

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(CompBtree, 30*sim.Nanosecond)
	b.Add(CompBtree, 10*sim.Nanosecond)
	b.Add(CompLog, 60*sim.Nanosecond)
	if got := b.Get(CompBtree); got != 40*sim.Nanosecond {
		t.Errorf("btree = %v", got)
	}
	if got := b.Total(); got != 100*sim.Nanosecond {
		t.Errorf("total = %v", got)
	}
	if f := b.Fraction(CompLog); f != 0.6 {
		t.Errorf("log fraction = %v", f)
	}
	var c Breakdown
	c.AddAll(&b)
	c.AddAll(&b)
	if c.Total() != 200*sim.Nanosecond {
		t.Errorf("merged total = %v", c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("reset did not zero")
	}
}

func TestBreakdownEmptyFraction(t *testing.T) {
	var b Breakdown
	if f := b.Fraction(CompOther); f != 0 {
		t.Errorf("empty fraction = %v", f)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Errorf("min=%v max=%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 49*sim.Microsecond || m > 52*sim.Microsecond {
		t.Errorf("mean = %v, want ~50.5us", m)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	checks := []struct {
		p    float64
		want sim.Duration
	}{
		{50, 500 * sim.Microsecond},
		{90, 900 * sim.Microsecond},
		{99, 990 * sim.Microsecond},
	}
	for _, c := range checks {
		got := h.Percentile(c.p)
		lo := c.want - c.want/8
		hi := c.want + c.want/8
		if got < lo || got > hi {
			t.Errorf("p%v = %v, want within [%v, %v]", c.p, got, lo, hi)
		}
	}
	if h.Percentile(0) != h.Min() || h.Percentile(100) != h.Max() {
		t.Error("extremes should return min/max")
	}
}

func TestHistogramBucketMonotonic(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		da, db := sim.Duration(a)+1, sim.Duration(b)+1
		if da > db {
			da, db = db, da
		}
		return bucketOf(da) <= bucketOf(db)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketBoundsContainValue(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		d := sim.Duration(v) + 1
		b := bucketOf(d)
		return bucketLow(b) <= d && d < bucketLow(b+1)*2
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(10 * sim.Microsecond)
		b.Record(1000 * sim.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 10*sim.Microsecond || a.Max() != 1000*sim.Microsecond {
		t.Errorf("min=%v max=%v", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // must not disturb
	if a.Count() != 200 {
		t.Error("merging empty changed count")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", ">value")
	tbl.Row("alpha", "1.5")
	tbl.Row("b", "10")
	out := tbl.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "alpha") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// Right-aligned column: "1.5" and "10" should end at the same column.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("right-aligned rows have different widths:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.Row("x,y", `quote"d`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""d"`) {
		t.Errorf("quote not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("missing header: %s", csv)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("commits", 2)
	c.Inc("commits", 3)
	c.Inc("aborts", 1)
	if c.Get("commits") != 5 || c.Get("aborts") != 1 || c.Get("nope") != 0 {
		t.Error("counter values wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "aborts" || names[1] != "commits" {
		t.Errorf("names = %v", names)
	}
}

// AddAll merges another breakdown into this one.
func (b *Breakdown) AddAll(o *Breakdown) {
	for i := range b.t {
		b.t[i] += o.t[i]
	}
}

// Reset zeroes all components.
func (b *Breakdown) Reset() { b.t = [NumComponents]sim.Duration{} }

// Names returns the counter names in sorted order.
func (c *Counter) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
