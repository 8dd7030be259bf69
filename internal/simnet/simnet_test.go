package simnet

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewClusterPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0, XC40Params())
}

func TestComputeCharges(t *testing.T) {
	c := NewCluster(2, Params{Alpha: 0, Beta: 0, FlopRate: 1e9})
	c.AddCompute(0, 2e9)
	if got := c.Time(0); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Time(0) = %v, want 2", got)
	}
	if got := c.Time(1); got != 0 {
		t.Fatalf("Time(1) = %v, want 0", got)
	}
	if got := c.MaxTime(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("MaxTime = %v", got)
	}
}

func TestCollectiveSynchronizesClocks(t *testing.T) {
	c := NewCluster(4, XC40Params())
	c.AddSeconds(0, 1.0)
	c.AddSeconds(3, 5.0)
	c.Collective(0.5, 100, 4, "grad")
	for r := 0; r < 4; r++ {
		if got := c.Time(r); math.Abs(got-5.5) > 1e-12 {
			t.Fatalf("rank %d clock %v, want 5.5", r, got)
		}
	}
	st := c.Stats()
	if st.BytesMoved != 100 || st.Messages != 4 || st.Collectives != 1 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.CommSeconds-0.5) > 1e-12 {
		t.Fatalf("CommSeconds %v", st.CommSeconds)
	}
	if c.BytesByTag()["grad"] != 100 {
		t.Fatalf("tag bytes %v", c.BytesByTag())
	}
}

func TestNegativeChargesPanic(t *testing.T) {
	c := NewCluster(1, XC40Params())
	for _, f := range []func(){
		func() { c.AddSeconds(0, -1) },
		func() { c.Collective(-1, 0, 0, "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestResetStatsAndClocks(t *testing.T) {
	c := NewCluster(2, XC40Params())
	c.AddSeconds(1, 3)
	c.Collective(1, 10, 2, "x")
	c.ResetStats()
	if st := c.Stats(); st.BytesMoved != 0 || st.Collectives != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	if len(c.BytesByTag()) != 0 {
		t.Fatal("tags not reset")
	}
	if c.MaxTime() == 0 {
		t.Fatal("ResetStats must not touch clocks")
	}
	c.ResetClocks()
	if c.MaxTime() != 0 {
		t.Fatal("clocks not reset")
	}
}

func TestRingAllReduceCostSingleRankFree(t *testing.T) {
	c := NewCluster(1, XC40Params())
	cost, moved, msgs := c.RingAllReduceCost(1 << 20)
	if cost != 0 || moved != 0 || msgs != 0 {
		t.Fatalf("P=1 allreduce should be free, got %v %v %v", cost, moved, msgs)
	}
}

func TestRingAllReduceCostFormula(t *testing.T) {
	p := Params{Alpha: 1e-3, Beta: 1e-6, FlopRate: 1}
	c := NewCluster(4, p)
	bytes := int64(4000)
	cost, moved, msgs := c.RingAllReduceCost(bytes)
	wantCost := 6 * (1e-3 + 1000*1e-6) // 2(P-1)=6 steps of bytes/P=1000
	if math.Abs(cost-wantCost) > 1e-12 {
		t.Fatalf("cost %v, want %v", cost, wantCost)
	}
	if moved != 6*4*1000 {
		t.Fatalf("moved %d", moved)
	}
	if msgs != 24 {
		t.Fatalf("msgs %d", msgs)
	}
}

func TestAllReduceCostIndependentOfPAsymptotically(t *testing.T) {
	// The bandwidth term of ring all-reduce approaches 2*bytes*beta as P
	// grows; it must NOT grow linearly with P (that is all-gather's curse).
	p := Params{Alpha: 0, Beta: 1e-9, FlopRate: 1}
	bytes := int64(1 << 20)
	c4 := NewCluster(4, p)
	c16 := NewCluster(16, p)
	cost4, _, _ := c4.RingAllReduceCost(bytes)
	cost16, _, _ := c16.RingAllReduceCost(bytes)
	if cost16 > cost4*1.5 {
		t.Fatalf("allreduce cost grew with P: %v -> %v", cost4, cost16)
	}
}

func TestAllGatherVCostGrowsWithP(t *testing.T) {
	// With per-rank payload held fixed, all-gather volume grows with P —
	// the effect behind Figure 1d of the paper.
	p := Params{Alpha: 0, Beta: 1e-9, FlopRate: 1}
	per := int64(1 << 18)
	mk := func(n int) float64 {
		c := NewCluster(n, p)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = per
		}
		cost, _, _ := c.AllGatherVCost(sizes)
		return cost
	}
	if !(mk(16) > mk(8) && mk(8) > mk(4) && mk(4) > mk(2)) {
		t.Fatalf("allgather cost not increasing: %v %v %v %v", mk(2), mk(4), mk(8), mk(16))
	}
}

func TestAllGatherVCostZeroPayload(t *testing.T) {
	c := NewCluster(4, Params{Alpha: 1e-3, Beta: 1e-6, FlopRate: 1})
	cost, moved, msgs := c.AllGatherVCost([]int64{0, 0, 0, 0})
	if moved != 0 {
		t.Fatalf("moved %d", moved)
	}
	if cost <= 0 {
		t.Fatal("zero-payload allgather should still pay latency")
	}
	if msgs == 0 {
		t.Fatal("zero-payload allgather should still count header messages")
	}
}

func TestAllGatherVCostPanicsOnSizeMismatch(t *testing.T) {
	c := NewCluster(4, XC40Params())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AllGatherVCost([]int64{1, 2})
}

func TestBroadcastAndBarrierCosts(t *testing.T) {
	par := Params{Alpha: 1e-3, Beta: 0, FlopRate: 1}
	c := NewCluster(8, par)
	cost, moved, msgs := c.BroadcastCost(100)
	if math.Abs(cost-3e-3) > 1e-12 { // log2(8)=3 rounds
		t.Fatalf("broadcast cost %v", cost)
	}
	if moved != 700 || msgs != 7 {
		t.Fatalf("broadcast moved %d msgs %d", moved, msgs)
	}
	bcost, bmoved, bmsgs := c.BarrierCost()
	if math.Abs(bcost-3e-3) > 1e-12 || bmoved != 0 || bmsgs != 24 {
		t.Fatalf("barrier %v %d %d", bcost, bmoved, bmsgs)
	}
	one := NewCluster(1, par)
	if cost, _, _ := one.BroadcastCost(100); cost != 0 {
		t.Fatal("P=1 broadcast should be free")
	}
	if cost, _, _ := one.BarrierCost(); cost != 0 {
		t.Fatal("P=1 barrier should be free")
	}
}

func TestPointToPointCost(t *testing.T) {
	c := NewCluster(2, Params{Alpha: 1e-3, Beta: 1e-6, FlopRate: 1})
	cost, moved, msgs := c.PointToPointCost(500)
	if math.Abs(cost-(1e-3+500e-6)) > 1e-12 || moved != 500 || msgs != 1 {
		t.Fatalf("p2p %v %d %d", cost, moved, msgs)
	}
}

func TestConcurrentCharging(t *testing.T) {
	c := NewCluster(8, XC40Params())
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddSeconds(rank, 0.001)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 8; r++ {
		if got := c.Time(r); math.Abs(got-1.0) > 1e-9 {
			t.Fatalf("rank %d clock %v, want 1.0", r, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	c := NewCluster(4, XC40Params())
	c.AddSeconds(0, 1)
	c.AddSeconds(1, 2)
	c.AddSeconds(2, 3)
	c.AddSeconds(3, 4)
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
}

// Property: collective cost formulas are non-negative and monotone in bytes.
func TestQuickCostMonotone(t *testing.T) {
	c := NewCluster(8, XC40Params())
	f := func(a, b uint32) bool {
		x, y := int64(a%1e7), int64(b%1e7)
		if x > y {
			x, y = y, x
		}
		cx, _, _ := c.RingAllReduceCost(x)
		cy, _, _ := c.RingAllReduceCost(y)
		if cx < 0 || cy < 0 || cx > cy {
			return false
		}
		bx, _, _ := c.BroadcastCost(x)
		by, _, _ := c.BroadcastCost(y)
		return bx >= 0 && bx <= by
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any Collective, all clocks are equal.
func TestQuickCollectiveSync(t *testing.T) {
	f := func(charges [8]uint16, cost uint16) bool {
		c := NewCluster(8, XC40Params())
		for r, ch := range charges {
			c.AddSeconds(r, float64(ch)/1000)
		}
		c.Collective(float64(cost)/1000, 1, 1, "")
		first := c.Time(0)
		for r := 1; r < 8; r++ {
			if c.Time(r) != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXferSeconds(t *testing.T) {
	p := Params{Alpha: 1e-3, Beta: 2e-6, FlopRate: 1}
	if got := p.XferSeconds(1000); math.Abs(got-(1e-3+2e-3)) > 1e-12 {
		t.Fatalf("XferSeconds = %v", got)
	}
	if got := p.XferSeconds(0); got != 1e-3 {
		t.Fatalf("zero-byte transfer %v, want latency only", got)
	}
}

func TestXC40ParamsPlausible(t *testing.T) {
	p := XC40Params()
	if p.Alpha <= 0 || p.Beta <= 0 || p.FlopRate <= 0 {
		t.Fatalf("non-positive params %+v", p)
	}
	// Sanity: a 1 MB transfer takes on the order of a millisecond.
	ms := p.XferSeconds(1<<20) * 1000
	if ms < 0.1 || ms > 100 {
		t.Fatalf("1MB transfer = %v ms, implausible", ms)
	}
}
