package platform

import (
	"fmt"

	"bionicdb/internal/sim"
)

// Snapshot captures the cumulative activity counters of a platform at one
// instant, so energy and utilization can be computed over a measurement
// window (Report subtracts two snapshots).
type Snapshot struct {
	At            sim.Time
	CoreBusy      sim.Duration // summed across cores
	UnitBusy      sim.Duration // summed slot-time across FPGA units
	UnitSlotCount int          // total FPGA pipeline slots configured
	DRAMBytes     int64        // host DRAM + SG-DRAM + cached-path fills
	PCIeBytes     int64
	ICHopBytes    int64 // interconnect bytes x hops (zero on one socket)
	DiskBusy      sim.Duration
	SSDBusy       sim.Duration
	ReplBytes     int64        // bytes shipped over the inter-machine link
	ReplSSDBusy   sim.Duration // replica machines' log-device busy time
}

// Snapshot reads the current cumulative counters.
func (pl *Platform) Snapshot() Snapshot {
	s := Snapshot{At: pl.Env.Now()}
	for _, c := range pl.Cores {
		s.CoreBusy += c.res.BusyTime()
	}
	for _, u := range pl.units {
		s.UnitBusy += u.slots.BusyTime()
		s.UnitSlotCount += u.nSlots
	}
	s.DRAMBytes = pl.HostDRAM.bytes + pl.SGDRAM.bytes + pl.dramLineTotal()
	s.PCIeBytes = pl.PCIe.bytes
	if pl.IC != nil {
		s.ICHopBytes = pl.IC.HopBytes()
	}
	s.DiskBusy = pl.Disk.BusyTime()
	s.SSDBusy = pl.SSD.BusyTime()
	// Sharded-log devices: index 0 aliases SSD/PCIe and is already counted.
	for _, d := range pl.logSSDs[1:] {
		s.SSDBusy += d.BusyTime()
	}
	for _, d := range pl.logLinks[1:] {
		s.PCIeBytes += d.bytes
	}
	if pl.ReplLink != nil {
		s.ReplBytes = pl.ReplLink.bytes
		for _, row := range pl.replSSDs {
			for _, d := range row {
				s.ReplSSDBusy += d.BusyTime()
			}
		}
	}
	return s
}

// EnergyReport is the joules spent in a measurement window, split by
// hardware domain. The paper's metric of merit is joules/operation; divide
// Total by the operation count of the window.
type EnergyReport struct {
	Window       sim.Duration
	CPUDynamic   float64 // (active-idle) watts over busy core time
	CPUIdle      float64 // idle watts over all core-time in the window
	FPGA         float64 // unit idle floor + dynamic over busy slot time
	DRAM         float64 // per-byte access energy, all DRAM kinds
	PCIe         float64 // per-byte link energy
	Interconnect float64 // socket fabric, per byte per hop (multi-socket)
	Storage      float64 // disk + SSD active power over busy time
	Replication  float64 // inter-machine link per byte + replica log devices (replicated only)
}

// Total returns the sum over all domains, in joules.
func (r EnergyReport) Total() float64 {
	return r.CPUDynamic + r.CPUIdle + r.FPGA + r.DRAM + r.PCIe + r.Interconnect + r.Storage + r.Replication
}

// String summarizes the report in millijoules.
func (r EnergyReport) String() string {
	return fmt.Sprintf("total=%.3fmJ cpuDyn=%.3f cpuIdle=%.3f fpga=%.3f dram=%.3f pcie=%.3f ic=%.3f storage=%.3f repl=%.3f",
		r.Total()*1e3, r.CPUDynamic*1e3, r.CPUIdle*1e3, r.FPGA*1e3, r.DRAM*1e3, r.PCIe*1e3, r.Interconnect*1e3, r.Storage*1e3, r.Replication*1e3)
}

// Energy computes the joules spent between two snapshots of this platform.
// The model: cores draw CoreIdleW always and an extra (CoreActiveW -
// CoreIdleW) while busy; FPGA units draw FPGAUnitIdleW per unit always and
// an extra (FPGAUnitActiveW - FPGAUnitIdleW) prorated over busy slot time;
// DRAM and PCIe cost energy per byte moved; storage draws active watts only
// while transferring or seeking.
func (pl *Platform) Energy(from, to Snapshot) EnergyReport {
	cfg := pl.Cfg
	window := to.At.Sub(from.At)
	secs := window.Seconds()

	r := EnergyReport{Window: window}
	coreBusy := (to.CoreBusy - from.CoreBusy).Seconds()
	r.CPUDynamic = (cfg.CoreActiveW - cfg.CoreIdleW) * coreBusy
	r.CPUIdle = cfg.CoreIdleW * float64(len(pl.Cores)) * secs

	nUnits := len(pl.units)
	unitBusy := (to.UnitBusy - from.UnitBusy).Seconds()
	slots := to.UnitSlotCount
	if slots > 0 {
		// Prorate dynamic power by slot occupancy so a unit with a deep
		// pipeline is not charged more than one unit's active power.
		perSlotDyn := (cfg.FPGAUnitActiveW - cfg.FPGAUnitIdleW) / float64(slots) * float64(nUnits)
		r.FPGA = perSlotDyn * unitBusy
	}
	r.FPGA += cfg.FPGAUnitIdleW * float64(nUnits) * secs

	r.DRAM = float64(to.DRAMBytes-from.DRAMBytes) * cfg.DRAMPJPerByte * 1e-12
	r.PCIe = float64(to.PCIeBytes-from.PCIeBytes) * cfg.PCIePJPerByte * 1e-12
	r.Interconnect = float64(to.ICHopBytes-from.ICHopBytes) * cfg.ICPJPerByte * 1e-12
	r.Storage = cfg.DiskActiveW*(to.DiskBusy-from.DiskBusy).Seconds() +
		cfg.SSDActiveW*(to.SSDBusy-from.SSDBusy).Seconds()
	r.Replication = float64(to.ReplBytes-from.ReplBytes)*cfg.ReplPJPerByte*1e-12 +
		cfg.SSDActiveW*(to.ReplSSDBusy-from.ReplSSDBusy).Seconds()
	return r
}
