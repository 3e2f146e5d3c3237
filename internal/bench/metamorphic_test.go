package bench

import (
	"reflect"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// doubledPower wraps spec so that the engine runs on the point's machine
// with every power row of its platform.Config doubled.
func doubledPower(spec EngineSpec) EngineSpec {
	mk := spec.Make
	spec.Make = func(env *sim.Env, cfg *platform.Config, wl core.Workload, partitions int) core.Engine {
		c := *cfg
		for _, w := range []*float64{&c.CoreActiveW, &c.CoreIdleW, &c.FPGAUnitActiveW, &c.FPGAUnitIdleW,
			&c.DRAMPJPerByte, &c.PCIePJPerByte, &c.ICPJPerByte, &c.ReplPJPerByte, &c.DiskActiveW, &c.SSDActiveW} {
			*w *= 2
		}
		return mk(env, &c, wl, partitions)
	}
	return spec
}

// TestEnergyDoesNotMoveTime is metamorphic relation M2: doubling every power
// row leaves every non-energy field of every Result bit-identical and
// exactly doubles each energy domain (Platform.Energy is linear in the
// rows, and doubling is exact in binary floating point). A domain that does
// not double is priced by a power term outside platform.Config.
func TestEnergyDoesNotMoveTime(t *testing.T) {
	grid := func(engines ...EngineSpec) Grid {
		return Grid{
			Group:               "m2",
			Engines:             engines,
			Workloads:           []WorkloadSpec{smallTATP(), smallTPCC()},
			Terminals:           []int{8},
			PartitionsPerSocket: 4,
			Seeds:               []uint64{42},
			Warmup:              sim.Millisecond,
			Measure:             2 * sim.Millisecond,
		}
	}
	bionic := Bionic(core.AllOffloads())
	base := Run(grid(Conventional(), DORA(), bionic).Points(), Options{})
	twice := Run(grid(doubledPower(Conventional()), doubledPower(DORA()), doubledPower(bionic)).Points(), Options{})
	for i := range base {
		p := base[i].Point
		name := p.Workload.Name + "/" + p.Engine.Name
		if base[i].Err != nil || twice[i].Err != nil {
			t.Fatalf("%s: %v, %v", name, base[i].Err, twice[i].Err)
		}
		b, d := *base[i].Res, *twice[i].Res
		be, de := b.Energy, d.Energy
		for _, dom := range []struct {
			name      string
			base, got float64
		}{
			{"cpu dynamic", be.CPUDynamic, de.CPUDynamic}, {"cpu idle", be.CPUIdle, de.CPUIdle},
			{"fpga", be.FPGA, de.FPGA}, {"dram", be.DRAM, de.DRAM}, {"pcie", be.PCIe, de.PCIe},
			{"interconnect", be.Interconnect, de.Interconnect}, {"storage", be.Storage, de.Storage},
			{"replication", be.Replication, de.Replication}, {"joules/txn", b.JoulesPerTxn, d.JoulesPerTxn},
		} {
			if dom.got != 2*dom.base {
				t.Errorf("%s: %s %g J with doubled power, want exactly twice %g", name, dom.name, dom.got, dom.base)
			}
		}
		if be.Total() == 0 {
			t.Errorf("%s: no energy spent", name)
		}
		b.Energy, d.Energy = platform.EnergyReport{Window: be.Window}, platform.EnergyReport{Window: de.Window}
		b.JoulesPerTxn, d.JoulesPerTxn = 0, 0
		if !reflect.DeepEqual(b, d) {
			t.Errorf("%s: doubled power moved a non-energy result:\n base %+v\n got  %+v", name, b, d)
		}
	}
}
