package simnet

// Fault injection for the simulated cluster. A FaultPlan is a deterministic
// schedule keyed to *virtual* time: because every clock advance in the
// simulation is itself deterministic (compute charges and collective costs
// are pure functions of the workload), the same seed and the same plan
// reproduce bit-identical failure points, which is what makes recovery
// testable. The cluster consults the plan as clocks advance:
//
//   - FaultCrash: the rank is declared dead the first time its clock reaches
//     At. The mpi layer polls CrashDue at collective entry (the only points
//     where a rank's clock is globally meaningful), so a crash always
//     manifests at a rendezvous — matching the paper's bulk-synchronous loop,
//     where a dead rank is only ever *observed* by a stalled collective.
//   - FaultSlow: while the rank's clock is inside [At, At+Duration) its
//     compute throughput is divided by Factor — a thermal-throttle /
//     noisy-neighbour transient, or a straggler when the window spans the
//     whole run.
//   - FaultDelay: while the cluster clock is inside [At, At+Duration) every
//     collective's cost is multiplied by Factor — a network congestion spike.
//     All ranks participate in every collective here, so the spike is charged
//     globally regardless of which rank's NIC is nominally congested.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// FaultKind discriminates the fault types of a FaultPlan.
type FaultKind int

// Supported fault kinds.
const (
	// FaultCrash kills the rank permanently at virtual time At.
	FaultCrash FaultKind = iota
	// FaultSlow divides the rank's compute speed by Factor during
	// [At, At+Duration).
	FaultSlow
	// FaultDelay multiplies every collective's cost by Factor during
	// [At, At+Duration).
	FaultDelay
)

// String returns the plan-syntax keyword for the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSlow:
		return "slow"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// Fault is one scheduled failure event.
type Fault struct {
	// Kind selects crash, slowdown or delay-spike behaviour.
	Kind FaultKind
	// Rank is the target rank (for FaultDelay it records the nominally
	// congested rank; the spike itself is charged to every collective).
	Rank int
	// At is the virtual time in seconds at which the fault arms.
	At float64
	// Duration is the window length in seconds (FaultSlow and FaultDelay).
	Duration float64
	// Factor is the slowdown divisor (FaultSlow) or cost multiplier
	// (FaultDelay); must be >= 1.
	Factor float64
}

// FaultPlan is a schedule of failure events for one run.
type FaultPlan struct {
	Faults []Fault
}

// Validate reports plan errors against a cluster of p ranks.
func (fp *FaultPlan) Validate(p int) error {
	for i, f := range fp.Faults {
		if f.Rank < 0 || f.Rank >= p {
			return fmt.Errorf("simnet: fault %d targets rank %d, world has %d", i, f.Rank, p)
		}
		// NaN compares false against every bound, so the checks below must
		// reject non-finite values explicitly: a NaN trigger time would
		// otherwise validate and then never fire (clock >= NaN is false) — a
		// silent no-op fault, which is the worst failure mode a test plan
		// can have.
		if f.At < 0 || math.IsNaN(f.At) || math.IsInf(f.At, 0) {
			return fmt.Errorf("simnet: fault %d has negative or non-finite trigger time %v", i, f.At)
		}
		switch f.Kind {
		case FaultCrash:
		case FaultSlow, FaultDelay:
			if !(f.Duration > 0) || math.IsInf(f.Duration, 0) {
				return fmt.Errorf("simnet: %s fault %d needs a positive finite duration, got %v", f.Kind, i, f.Duration)
			}
			if !(f.Factor >= 1) || math.IsInf(f.Factor, 0) {
				return fmt.Errorf("simnet: %s fault %d needs a finite factor >= 1, got %v", f.Kind, i, f.Factor)
			}
		default:
			return fmt.Errorf("simnet: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Clone returns a deep copy of the plan.
func (fp *FaultPlan) Clone() *FaultPlan {
	if fp == nil {
		return nil
	}
	return &FaultPlan{Faults: append([]Fault(nil), fp.Faults...)}
}

// String renders the plan in ParseFaultPlan syntax.
func (fp *FaultPlan) String() string {
	parts := make([]string, len(fp.Faults))
	for i, f := range fp.Faults {
		switch f.Kind {
		case FaultCrash:
			parts[i] = fmt.Sprintf("crash:%d@%g", f.Rank, f.At)
		default:
			parts[i] = fmt.Sprintf("%s:%d@%g+%gx%g", f.Kind, f.Rank, f.At, f.Duration, f.Factor)
		}
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses a comma-separated fault schedule:
//
//	crash:RANK@T          rank RANK dies at virtual second T
//	slow:RANK@T+DxF       rank RANK computes F times slower for D seconds from T
//	delay:RANK@T+DxF      collectives cost F times more for D seconds from T
//
// Example: "crash:2@350,slow:0@100+50x4". Rank bounds are checked later by
// Validate, once the cluster size is known.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("simnet: fault %q: want kind:rank@time", entry)
		}
		var kind FaultKind
		switch kindStr {
		case "crash":
			kind = FaultCrash
		case "slow":
			kind = FaultSlow
		case "delay":
			kind = FaultDelay
		default:
			return nil, fmt.Errorf("simnet: unknown fault kind %q (want crash, slow or delay)", kindStr)
		}
		rankStr, timing, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("simnet: fault %q: missing @time", entry)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("simnet: fault %q: bad rank %q", entry, rankStr)
		}
		f := Fault{Kind: kind, Rank: rank}
		if kind == FaultCrash {
			if f.At, err = strconv.ParseFloat(timing, 64); err != nil {
				return nil, fmt.Errorf("simnet: fault %q: bad time %q", entry, timing)
			}
		} else {
			atStr, window, ok := strings.Cut(timing, "+")
			if !ok {
				return nil, fmt.Errorf("simnet: fault %q: want @time+durationxfactor", entry)
			}
			durStr, facStr, ok := strings.Cut(window, "x")
			if !ok {
				return nil, fmt.Errorf("simnet: fault %q: want duration x factor", entry)
			}
			if f.At, err = strconv.ParseFloat(atStr, 64); err != nil {
				return nil, fmt.Errorf("simnet: fault %q: bad time %q", entry, atStr)
			}
			if f.Duration, err = strconv.ParseFloat(durStr, 64); err != nil {
				return nil, fmt.Errorf("simnet: fault %q: bad duration %q", entry, durStr)
			}
			if f.Factor, err = strconv.ParseFloat(facStr, 64); err != nil {
				return nil, fmt.Errorf("simnet: fault %q: bad factor %q", entry, facStr)
			}
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, fmt.Errorf("simnet: empty fault plan %q", spec)
	}
	return plan, nil
}

// SetFaultPlan attaches a (copied) fault schedule to the cluster. Passing nil
// clears it. The plan is validated against the current world size.
func (c *Cluster) SetFaultPlan(fp *FaultPlan) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fp == nil {
		c.plan = nil
		c.faultFired = nil
		return nil
	}
	if err := fp.Validate(len(c.clocks)); err != nil {
		return err
	}
	c.plan = fp.Clone()
	c.faultFired = make([]bool, len(c.plan.Faults))
	return nil
}

// ClearFaultPlan removes any remaining scheduled faults; already-fired
// injections stay counted. Used by the single-node degradation path, where
// the distributed failure model no longer applies.
func (c *Cluster) ClearFaultPlan() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan = nil
	c.faultFired = nil
}

// FaultsInjected returns how many scheduled faults have fired so far
// (a window fault counts once, on first application).
func (c *Cluster) FaultsInjected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faultsInjected
}

// CrashDue reports whether an armed crash fault for rank has come due
// (rank's clock reached its trigger time), consuming it. The mpi layer calls
// this at collective entry; the first true return is the moment the rank
// dies.
func (c *Cluster) CrashDue(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil {
		return false
	}
	due := false
	for i, f := range c.plan.Faults {
		if f.Kind == FaultCrash && f.Rank == rank && !c.faultFired[i] && c.clocks[rank] >= f.At {
			c.faultFired[i] = true
			c.faultsInjected++
			due = true
		}
	}
	return due
}

// effectiveSpeed returns rank's compute speed relative to nominal with any
// active slowdown windows applied. Caller holds c.mu.
func (c *Cluster) effectiveSpeed(rank int) float64 {
	s := 1.0
	if c.plan == nil {
		return s
	}
	t := c.clocks[rank]
	for i, f := range c.plan.Faults {
		if f.Kind == FaultSlow && f.Rank == rank && t >= f.At && t < f.At+f.Duration {
			s /= f.Factor
			if !c.faultFired[i] {
				c.faultFired[i] = true
				c.faultsInjected++
			}
		}
	}
	return s
}

// delayFactor returns the collective-cost multiplier for the given cluster
// time (product of active delay spikes). Caller holds c.mu.
func (c *Cluster) delayFactor(t float64) float64 {
	factor := 1.0
	if c.plan == nil {
		return factor
	}
	for i, f := range c.plan.Faults {
		if f.Kind == FaultDelay && t >= f.At && t < f.At+f.Duration {
			factor *= f.Factor
			if !c.faultFired[i] {
				c.faultFired[i] = true
				c.faultsInjected++
			}
		}
	}
	return factor
}

// Shrink removes the given ranks from the cluster: survivors are renumbered
// densely in rank order, keeping their clocks, and
// fault-plan entries are dropped (dead targets) or remapped (survivors).
// Statistics and fired-fault counters carry over. Panics on out-of-range or
// duplicate ranks, or if no rank would survive — Shrink models ULFM's
// MPI_Comm_shrink, whose preconditions are the caller's contract.
func (c *Cluster) Shrink(dead []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := len(c.clocks)
	deadSet := make(map[int]bool, len(dead))
	for _, r := range dead {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("simnet: Shrink rank %d out of range [0,%d)", r, p))
		}
		if deadSet[r] {
			panic(fmt.Sprintf("simnet: Shrink rank %d listed twice", r))
		}
		deadSet[r] = true
	}
	if len(deadSet) >= p {
		panic("simnet: Shrink would leave no survivors")
	}
	// newRank[old] = dense survivor id, or -1 for dead ranks.
	newRank := make([]int, p)
	clocks := make([]float64, 0, p-len(deadSet))
	for r := 0; r < p; r++ {
		if deadSet[r] {
			newRank[r] = -1
			continue
		}
		newRank[r] = len(clocks)
		clocks = append(clocks, c.clocks[r])
	}
	c.clocks = clocks
	if c.plan != nil {
		var faults []Fault
		var fired []bool
		for i, f := range c.plan.Faults {
			if newRank[f.Rank] < 0 {
				continue // fault targeted a dead rank; nothing left to fail
			}
			f.Rank = newRank[f.Rank]
			faults = append(faults, f)
			fired = append(fired, c.faultFired[i])
		}
		c.plan = &FaultPlan{Faults: faults}
		c.faultFired = fired
	}
}
