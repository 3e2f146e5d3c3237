package sim

import (
	"fmt"
	"sort"
)

// FaultKind names one injectable failure of the replicated-machine model.
type FaultKind uint8

const (
	// FaultPrimaryKill stops the primary machine dead at Fault.At: the
	// harness runs the simulation to exactly that instant and fails over.
	FaultPrimaryKill FaultKind = iota
	// FaultLinkLag stretches the inter-machine link's latency by
	// Fault.Factor for the window [At, Until).
	FaultLinkLag
	// FaultLinkPartition drops the inter-machine link entirely for the
	// window [At, Until); shipping resumes (and drains its backlog) at
	// Until.
	FaultLinkPartition
	// FaultReplicaStall freezes replica Fault.Replica — it neither writes
	// nor acknowledges — for the window [At, Until).
	FaultReplicaStall
)

// String names the kind for logs and tables.
func (k FaultKind) String() string {
	switch k {
	case FaultPrimaryKill:
		return "primary-kill"
	case FaultLinkLag:
		return "link-lag"
	case FaultLinkPartition:
		return "link-partition"
	case FaultReplicaStall:
		return "replica-stall"
	default:
		return fmt.Sprintf("fault(%d)", k)
	}
}

// Fault is one scheduled failure: a point event (FaultPrimaryKill) or a
// window [At, Until).
type Fault struct {
	Kind    FaultKind
	At      Time
	Until   Time    // window end; unused by FaultPrimaryKill
	Replica int     // FaultReplicaStall target
	Factor  float64 // FaultLinkLag latency multiplier
}

// FaultPlan is a deterministic failure schedule: a pure function of the
// Rand it was derived from, so a sweep's fault times are reproduced
// bit-identically on every run, whichever sweep worker runs it.
type FaultPlan struct {
	Faults []Fault
}

// NewFaultPlan derives a plan from r for the measurement window
// [start, end): always one primary kill in the 60-80% stretch of the
// window, and — with windows set — a link-lag window, a link partition and
// a replica stall, all ending before the kill so their effects are visible
// in the measured run, not just truncated by it. All r draws happen in a
// fixed order: the same seed always yields the same plan.
func NewFaultPlan(r *Rand, start, end Time, replicas int, windows bool) FaultPlan {
	span := end.Sub(start)
	at := func(frac float64) Time { return start.Add(Duration(frac * float64(span))) }
	var p FaultPlan
	kill := 0.60 + 0.20*r.Float64()
	lagFactor := 4 + 4*r.Float64()
	partEnd := 0.38 + 0.04*r.Float64()
	stallTarget := 0
	if replicas > 1 {
		stallTarget = r.Intn(replicas)
	}
	if windows {
		p.Faults = append(p.Faults,
			Fault{Kind: FaultLinkLag, At: at(0.10), Until: at(0.25), Factor: lagFactor},
			Fault{Kind: FaultLinkPartition, At: at(0.30), Until: at(partEnd)},
			Fault{Kind: FaultReplicaStall, At: at(0.45), Until: at(0.55), Replica: stallTarget},
		)
	}
	p.Faults = append(p.Faults, Fault{Kind: FaultPrimaryKill, At: at(kill)})
	sort.SliceStable(p.Faults, func(i, j int) bool { return p.Faults[i].At < p.Faults[j].At })
	return p
}

// KillTime returns the primary-kill instant, if the plan has one.
func (p FaultPlan) KillTime() (Time, bool) {
	for _, f := range p.Faults {
		if f.Kind == FaultPrimaryKill {
			return f.At, true
		}
	}
	return 0, false
}

// Schedule installs the plan's windowed faults on env: begin(f) fires at
// f.At and end(f) at f.Until, in time order. The primary kill is not
// scheduled — it is the harness's stopping point (RunUntil(KillTime())),
// not an in-simulation event.
func (p FaultPlan) Schedule(env *Env, begin, end func(Fault)) {
	for _, f := range p.Faults {
		if f.Kind == FaultPrimaryKill {
			continue
		}
		f := f
		env.At(f.At, func() { begin(f) })
		if f.Until > f.At {
			env.At(f.Until, func() { end(f) })
		}
	}
}
