package main

import (
	"flag"
	"strconv"
	"strings"
	"testing"
)

// resetFlags puts the size and window flags back to their defaults.
func resetFlags(t *testing.T) {
	t.Helper()
	for _, name := range []string{"warehouses", "subscribers", "records", "terminals", "measure", "seeds", "sockets", "warmup"} {
		f := flag.Lookup(name)
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", name, err)
		}
	}
}

// TestCheckFlags: each size flag is refused below its floor, naming the flag,
// and accepted at the floor.
func TestCheckFlags(t *testing.T) {
	defer resetFlags(t)
	for _, c := range []struct {
		name string
		p    *int
		min  int
	}{
		{"warehouses", warehouses, 1},
		{"subscribers", subscribers, 1},
		{"records", records, 1},
		{"terminals", terminals, 1},
		{"measure", measureMs, 1},
		{"seeds", seeds, 1},
		{"sockets", sockets, 1},
		{"warmup", warmupMs, 0},
	} {
		for _, v := range []int{c.min - 1, -20} {
			resetFlags(t)
			*c.p = v
			err := checkFlags()
			if err == nil || !strings.Contains(err.Error(), "-"+c.name+" "+strconv.Itoa(v)) {
				t.Errorf("-%s %d: checkFlags() = %v, want an error naming the flag", c.name, v, err)
			}
		}
		resetFlags(t)
		*c.p = c.min
		if err := checkFlags(); err != nil {
			t.Errorf("-%s %d: %v", c.name, c.min, err)
		}
	}
	resetFlags(t)
	if err := checkFlags(); err != nil {
		t.Errorf("defaults: %v", err)
	}
}

// TestQuickKeepsGivenFlags: -quick shrinks the scales nobody set and leaves
// the ones given on the command line.
func TestQuickKeepsGivenFlags(t *testing.T) {
	defer resetFlags(t)
	if err := flag.Set("warehouses", "8"); err != nil {
		t.Fatal(err)
	}
	applyQuick()
	if *warehouses != 8 {
		t.Errorf("-warehouses 8 -quick ran %d warehouses", *warehouses)
	}
	if *subscribers != 10000 || *records != 10000 || *measureMs != 15 || *warmupMs != 5 {
		t.Errorf("-quick left subscribers %d, records %d, measure %d, warmup %d",
			*subscribers, *records, *measureMs, *warmupMs)
	}
}
