package platform

import (
	"testing"

	"bionicdb/internal/sim"
)

// TestCharacterizeMatchesFigure2 is the F2 acceptance test: the measured
// platform must realize the configured (paper) numbers within modelling
// tolerance — bandwidth within 5% (disk excepted: seeks eat into large
// transfers) and latency within 10%.
func TestCharacterizeMatchesFigure2(t *testing.T) {
	rows := Characterize(HC2())
	if len(rows) != 5 {
		t.Fatalf("%d components characterized", len(rows))
	}
	for _, r := range rows {
		bwTol := 0.05
		if r.Name == "sas-disk" {
			bwTol = 0.35
		}
		if r.MeasGBps < r.SpecGBps*(1-bwTol) || r.MeasGBps > r.SpecGBps*(1+bwTol) {
			t.Errorf("%s: measured %.2f GB/s vs spec %.2f", r.Name, r.MeasGBps, r.SpecGBps)
		}
		lo := float64(r.SpecLat) * 0.9
		hi := float64(r.SpecLat) * 1.1
		if float64(r.MeasLat) < lo || float64(r.MeasLat) > hi {
			t.Errorf("%s: measured latency %v vs spec %v", r.Name, r.MeasLat, r.SpecLat)
		}
	}
}

// TestCharacterizeRespectsOverrides ensures custom platforms characterize
// to their own numbers: a caller that edits HC2()'s PCIe fields sees them.
func TestCharacterizeRespectsOverrides(t *testing.T) {
	cfg := HC2()
	cfg.PCIeLat = 4 * sim.Microsecond
	cfg.PCIeBWGBps = 8
	for _, r := range Characterize(cfg) {
		if r.Name != "pcie" {
			continue
		}
		if r.SpecLat != 4*sim.Microsecond || r.MeasLat < 4*sim.Microsecond {
			t.Errorf("override latency not honored: %+v", r)
		}
		if r.MeasGBps < 7.5 {
			t.Errorf("override bandwidth not honored: %+v", r)
		}
	}
}
