package simnet

import (
	"testing"
)

func TestParseFaultPlanRoundTrip(t *testing.T) {
	spec := "crash:2@350,slow:0@100+50x4,delay:1@200+30x8"
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultCrash, Rank: 2, At: 350},
		{Kind: FaultSlow, Rank: 0, At: 100, Duration: 50, Factor: 4},
		{Kind: FaultDelay, Rank: 1, At: 200, Duration: 30, Factor: 8},
	}
	if len(plan.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(plan.Faults), len(want))
	}
	for i, f := range plan.Faults {
		if f != want[i] {
			t.Fatalf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	if got := plan.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
	reparsed, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("reparsing String(): %v", err)
	}
	if len(reparsed.Faults) != len(want) {
		t.Fatal("String() round trip lost faults")
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, spec := range []string{
		"", "  ,  ", "boom:0@1", "crash0@1", "crash:x@1", "crash:0@x",
		"slow:0@1", "slow:0@1+5", "slow:0@1+x5", "delay:0@1+5xq",
	} {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", spec)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Faults: []Fault{{Kind: FaultCrash, Rank: 4, At: 1}}},                           // rank out of range
		{Faults: []Fault{{Kind: FaultCrash, Rank: -1, At: 1}}},                          // negative rank
		{Faults: []Fault{{Kind: FaultCrash, Rank: 0, At: -2}}},                          // negative time
		{Faults: []Fault{{Kind: FaultSlow, Rank: 0, At: 1, Duration: 0, Factor: 2}}},    // no duration
		{Faults: []Fault{{Kind: FaultDelay, Rank: 0, At: 1, Duration: 5, Factor: 0.5}}}, // factor < 1
		{Faults: []Fault{{Kind: FaultKind(9), Rank: 0, At: 1}}},                         // unknown kind
	}
	for i := range bad {
		if err := bad[i].Validate(4); err == nil {
			t.Errorf("plan %d accepted: %+v", i, bad[i].Faults[0])
		}
	}
	good := FaultPlan{Faults: []Fault{{Kind: FaultCrash, Rank: 3, At: 0}}}
	if err := good.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	c := NewCluster(2, XC40Params())
	if err := c.SetFaultPlan(&bad[0]); err == nil {
		t.Error("SetFaultPlan accepted out-of-range rank")
	}
}

func TestSetFaultPlanClones(t *testing.T) {
	c := NewCluster(4, XC40Params())
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultCrash, Rank: 1, At: 5}}}
	if err := c.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's plan must not affect the armed schedule.
	plan.Faults[0].At = 0
	if c.CrashDue(1) {
		t.Fatal("cluster observed caller-side mutation of the plan")
	}
	c.AddSeconds(1, 10)
	if !c.CrashDue(1) {
		t.Fatal("crash fault never fired")
	}
}

func TestCrashDueConsumesFault(t *testing.T) {
	c := NewCluster(3, XC40Params())
	if err := c.SetFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCrash, Rank: 2, At: 1.5},
	}}); err != nil {
		t.Fatal(err)
	}
	if c.CrashDue(2) {
		t.Fatal("crash fired before its trigger time")
	}
	if c.CrashDue(0) {
		t.Fatal("crash fired for the wrong rank")
	}
	c.AddSeconds(2, 2)
	if !c.CrashDue(2) {
		t.Fatal("crash did not fire once due")
	}
	if c.CrashDue(2) {
		t.Fatal("crash fired twice")
	}
	if got := c.FaultsInjected(); got != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", got)
	}
}

func TestSlowdownWindowStretchesCompute(t *testing.T) {
	flops := XC40Params().FlopRate // exactly 1 virtual second of work
	base := NewCluster(1, XC40Params())
	base.AddCompute(0, flops)
	unit := base.Time(0)

	c := NewCluster(1, XC40Params())
	if err := c.SetFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultSlow, Rank: 0, At: unit, Duration: 10 * unit, Factor: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	c.AddCompute(0, flops) // before the window: full speed
	if got := c.Time(0); got != unit {
		t.Fatalf("pre-window compute took %v, want %v", got, unit)
	}
	c.AddCompute(0, flops) // inside the window: 4x slower
	if got, want := c.Time(0), 5*unit; !about(got, want) {
		t.Fatalf("in-window compute ended at %v, want %v", got, want)
	}
	if got := c.FaultsInjected(); got != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", got)
	}
	// Clock now far past the window: full speed again.
	c.AddSeconds(0, 20*unit)
	beforeT := c.Time(0)
	c.AddCompute(0, flops)
	if got, want := c.Time(0)-beforeT, unit; !about(got, want) {
		t.Fatalf("post-window compute took %v, want %v", got, want)
	}
}

func TestDelaySpikeInflatesCollectives(t *testing.T) {
	c := NewCluster(2, XC40Params())
	if err := c.SetFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultDelay, Rank: 0, At: 0, Duration: 10, Factor: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Collective(1, 100, 2, "x") // inside the spike: costs 8
	if got := c.MaxTime(); !about(got, 8) {
		t.Fatalf("spiked collective advanced clock to %v, want 8", got)
	}
	c.Collective(1, 100, 2, "x") // clock now 8; still inside [0,10): costs 8 more
	if got := c.MaxTime(); !about(got, 16) {
		t.Fatalf("second spiked collective ended at %v, want 16", got)
	}
	c.Collective(1, 100, 2, "x") // clock 16, outside the window: costs 1
	if got := c.MaxTime(); !about(got, 17) {
		t.Fatalf("post-spike collective ended at %v, want 17", got)
	}
	if got := c.FaultsInjected(); got != 1 {
		t.Fatalf("FaultsInjected = %d, want 1 (window counts once)", got)
	}
}

func TestShrinkRenumbersAndRemapsFaults(t *testing.T) {
	c := NewCluster(5, XC40Params())
	for r := 0; r < 5; r++ {
		c.AddSeconds(r, float64(10*(r+1)))
	}
	if err := c.SetFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCrash, Rank: 1, At: 999}, // dead target: dropped
		{Kind: FaultCrash, Rank: 4, At: 999}, // survivor: remapped to rank 2
		{Kind: FaultSlow, Rank: 0, At: 999, Duration: 1, Factor: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Shrink([]int{1, 3})
	if c.P() != 3 {
		t.Fatalf("P = %d after shrink, want 3", c.P())
	}
	// Survivors 0, 2, 4 become 0, 1, 2 and keep their clocks.
	for i, want := range []float64{10, 30, 50} {
		if got := c.Time(i); got != want {
			t.Fatalf("survivor %d clock = %v, want %v", i, got, want)
		}
	}
	// Old rank 4 is now rank 2; its crash fault moved along.
	c.AddSeconds(2, 1000)
	if !c.CrashDue(2) {
		t.Fatal("remapped crash fault did not fire for renumbered rank")
	}
	// The fault aimed at dead rank 1 is gone: new rank 1 (old 2) never dies.
	c.AddSeconds(1, 1000)
	if c.CrashDue(1) {
		t.Fatal("fault targeting a dead rank survived the shrink")
	}
}

func TestShrinkPanicsOnBadInput(t *testing.T) {
	for _, dead := range [][]int{{5}, {-1}, {0, 0}, {0, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shrink(%v) did not panic", dead)
				}
			}()
			c := NewCluster(3, XC40Params())
			c.Shrink(dead)
		}()
	}
}

func TestClearFaultPlanKeepsInjectionCount(t *testing.T) {
	c := NewCluster(2, XC40Params())
	if err := c.SetFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCrash, Rank: 0, At: 0},
		{Kind: FaultCrash, Rank: 1, At: 999},
	}}); err != nil {
		t.Fatal(err)
	}
	if !c.CrashDue(0) {
		t.Fatal("due crash did not fire")
	}
	c.ClearFaultPlan()
	c.AddSeconds(1, 1e6)
	if c.CrashDue(1) {
		t.Fatal("cleared plan still fires")
	}
	if got := c.FaultsInjected(); got != 1 {
		t.Fatalf("FaultsInjected = %d after clear, want 1", got)
	}
}

func about(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+want)
}
