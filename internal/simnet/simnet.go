// Package simnet models the timing behaviour of a distributed-memory
// cluster: per-rank virtual clocks, an alpha-beta (latency + bandwidth)
// communication cost model, and a flop-rate compute model.
//
// The paper ran on a Cray XC40; we run every rank as a goroutine on one
// machine. Real bytes still move between ranks (see internal/mpi), but
// *time* is accounted virtually: each rank accumulates compute time from the
// work it performs, and each collective advances all participating clocks by
// an analytically derived cost that depends on the message pattern and the
// exact byte volume moved. Total-training-time tables and epoch-time figures
// are read off these clocks, so the paper's crossover shapes (all-gather vs
// all-reduce, quantized vs full precision) are functions of the same
// quantities that produced them on the Cray.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Params hold the cluster cost model.
type Params struct {
	// Alpha is the per-message latency in seconds (wire latency plus the
	// per-call software overhead of the Horovod/MPI stack).
	Alpha float64
	// Beta is the transfer time per byte in seconds (1/bandwidth).
	Beta float64
	// FlopRate is the effective flops per second a node sustains on the
	// embedding workload (24 cores driving a Python/TF stack, hence far
	// below peak).
	FlopRate float64
}

// XC40Params returns a cost model calibrated to an XC40-class system running
// the paper's software stack: ~20 us effective per-collective-call latency,
// ~1 GB/s effective per-node bandwidth, ~5 GFLOP/s effective compute.
func XC40Params() Params {
	return Params{Alpha: 20e-6, Beta: 1.0 / 1e9, FlopRate: 5e9}
}

// XferSeconds returns the time to move n bytes point-to-point.
func (p Params) XferSeconds(n int64) float64 {
	return p.Alpha + float64(n)*p.Beta
}

// Cluster tracks virtual time and communication statistics for P ranks.
// All methods are safe for concurrent use by rank goroutines.
type Cluster struct {
	mu     sync.Mutex
	params Params
	clocks []float64
	stats  Stats
	byTag  map[string]int64

	// Fault injection (see fault.go). plan is a private copy; faultFired
	// marks consumed crash triggers and first-application of window faults.
	plan           *FaultPlan
	faultFired     []bool
	faultsInjected int
}

// Stats summarize communication activity since construction (or Reset).
type Stats struct {
	// BytesMoved is the total payload volume crossing the network, summed
	// over all ranks' sends.
	BytesMoved int64
	// Messages is the number of point-to-point messages implied by the
	// executed collectives.
	Messages int64
	// Collectives is the number of collective operations executed.
	Collectives int64
	// CommSeconds is the total virtual time spent inside collectives
	// (per-operation cost, not summed over ranks).
	CommSeconds float64
}

// NewCluster creates a cluster of p ranks with the given cost model.
func NewCluster(p int, params Params) *Cluster {
	if p <= 0 {
		panic("simnet: cluster needs at least one rank")
	}
	return &Cluster{
		params: params,
		clocks: make([]float64, p),
		byTag:  make(map[string]int64),
	}
}

// P returns the number of ranks.
func (c *Cluster) P() int { return len(c.clocks) }

// Params returns the cost model.
func (c *Cluster) Params() Params { return c.params }

// AddCompute charges flops of computation to rank's clock, scaled by any
// active transient-slowdown fault window.
func (c *Cluster) AddCompute(rank int, flops float64) {
	c.mu.Lock()
	s := c.effectiveSpeed(rank)
	c.mu.Unlock()
	c.AddSeconds(rank, flops/(c.params.FlopRate*s))
}

// AddSeconds charges raw virtual seconds to rank's clock.
func (c *Cluster) AddSeconds(rank int, s float64) {
	if s < 0 {
		panic("simnet: negative time charge")
	}
	c.mu.Lock()
	c.clocks[rank] += s
	c.mu.Unlock()
}

// LiftClock raises rank's clock to at least t (no-op when already past).
// Process worlds use it to inject the globally agreed clock maximum before
// charging a collective: each process only accumulates its own rank's
// compute on its private cluster, so the true cluster-wide makespan has to
// arrive over the wire.
func (c *Cluster) LiftClock(rank int, t float64) {
	c.mu.Lock()
	if t > c.clocks[rank] {
		c.clocks[rank] = t
	}
	c.mu.Unlock()
}

// Time returns rank's current virtual clock.
func (c *Cluster) Time(rank int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clocks[rank]
}

// MaxTime returns the furthest-ahead clock — the cluster's makespan.
func (c *Cluster) MaxTime() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0.0
	for _, t := range c.clocks {
		if t > m {
			m = t
		}
	}
	return m
}

// Collective synchronizes all ranks and charges a collective operation:
// every clock advances to max(clocks) + cost. The byte volume and message
// count are recorded under tag for reporting. Called once per collective by
// the mpi layer (not once per rank).
func (c *Cluster) Collective(cost float64, bytes, messages int64, tag string) {
	if cost < 0 {
		panic("simnet: negative collective cost")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0.0
	for _, t := range c.clocks {
		if t > m {
			m = t
		}
	}
	// Message-delay fault spikes inflate the operation's cost while the
	// cluster clock sits inside their window.
	cost *= c.delayFactor(m)
	m += cost
	for i := range c.clocks {
		c.clocks[i] = m
	}
	c.stats.BytesMoved += bytes
	c.stats.Messages += messages
	c.stats.Collectives++
	c.stats.CommSeconds += cost
	if tag != "" {
		c.byTag[tag] += bytes
	}
}

// Stats returns a snapshot of communication statistics.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BytesByTag returns a copy of the per-tag byte counters.
func (c *Cluster) BytesByTag() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byTag))
	for k, v := range c.byTag {
		out[k] = v
	}
	return out
}

// ResetStats clears statistics but leaves clocks running.
func (c *Cluster) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	c.byTag = map[string]int64{}
}

// ResetClocks rewinds all clocks to zero.
func (c *Cluster) ResetClocks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.clocks {
		c.clocks[i] = 0
	}
}

// ---- Collective cost formulas -------------------------------------------
//
// These are the standard LogP-style costs of the algorithms implemented in
// internal/mpi. P=1 collectives are free: no network is crossed.

// RingAllReduceCost models reduce-scatter + all-gather over a ring:
// 2(P-1) steps, each moving bytes/P.
func (c *Cluster) RingAllReduceCost(bytes int64) (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if p == 1 || bytes == 0 {
		return 0, 0, 0
	}
	steps := 2 * (p - 1)
	chunk := float64(bytes) / float64(p)
	cost = float64(steps) * (c.params.Alpha + chunk*c.params.Beta)
	moved = steps * p * int64(math.Ceil(chunk)) // every rank sends each step
	msgs = steps * p
	return cost, moved, msgs
}

// RecursiveDoublingAllReduceCost models log-round all-reduce: ceil(log2 P)
// exchange rounds each moving the full buffer, plus two folding rounds when
// P is not a power of two. Latency-optimal, bandwidth-suboptimal — the
// counterpart to RingAllReduceCost for the DESIGN.md §5 ablation.
func (c *Cluster) RecursiveDoublingAllReduceCost(bytes int64) (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if p == 1 || bytes == 0 {
		return 0, 0, 0
	}
	rounds := int64(math.Ceil(math.Log2(float64(p))))
	extra := int64(0)
	if p&(p-1) != 0 {
		extra = 2 // pre- and post-fold rounds
	}
	cost = float64(rounds+extra) * (c.params.Alpha + float64(bytes)*c.params.Beta)
	moved = (rounds + extra) * p * bytes
	msgs = (rounds + extra) * p
	return cost, moved, msgs
}

// BruckAllGatherCost models Bruck's concatenating all-gather: ceil(log2 P)
// rounds; every rank still transmits everyone's payloads once (same total
// volume as the ring) but pays only log-many latencies.
func (c *Cluster) BruckAllGatherCost(perRank []int64) (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if int(p) != len(perRank) {
		panic(fmt.Sprintf("simnet: BruckAllGatherCost got %d sizes for %d ranks", len(perRank), p))
	}
	if p == 1 {
		return 0, 0, 0
	}
	var total int64
	for _, b := range perRank {
		total += b
	}
	rounds := int64(math.Ceil(math.Log2(float64(p))))
	if total == 0 {
		return float64(rounds) * c.params.Alpha, 0, rounds * p
	}
	cost = float64(rounds)*c.params.Alpha + float64(total-minInt64(perRank))*c.params.Beta
	moved = (p - 1) * total
	msgs = rounds * p
	return cost, moved, msgs
}

// AllGatherVCost models a ring all-gather of variable per-rank payloads:
// P-1 steps; in the worst step a rank forwards the largest single
// contribution, and in total each rank receives everyone else's bytes.
func (c *Cluster) AllGatherVCost(perRank []int64) (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if int(p) != len(perRank) {
		panic(fmt.Sprintf("simnet: AllGatherVCost got %d sizes for %d ranks", len(perRank), p))
	}
	if p == 1 {
		return 0, 0, 0
	}
	var total int64
	var maxPart int64
	for _, b := range perRank {
		total += b
		if b > maxPart {
			maxPart = b
		}
	}
	if total == 0 {
		// Ranks still exchange "nothing to send" headers.
		cost = float64(p-1) * c.params.Alpha
		return cost, 0, (p - 1) * p
	}
	// Ring allgatherv: step k forwards the block received in step k-1.
	// The critical path is bounded by the largest block each step; a tight,
	// standard approximation charges (P-1)*alpha plus the time for one rank
	// to receive all other ranks' data at bandwidth, with the max block
	// setting per-step latency overlap.
	cost = float64(p-1)*c.params.Alpha + float64(total-minInt64(perRank))*c.params.Beta
	_ = maxPart
	moved = (p - 1) * total // every block traverses P-1 hops
	msgs = (p - 1) * p
	return cost, moved, msgs
}

func minInt64(xs []int64) int64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// BroadcastCost models a binomial-tree broadcast.
func (c *Cluster) BroadcastCost(bytes int64) (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if p == 1 || bytes == 0 {
		return 0, 0, 0
	}
	rounds := int64(math.Ceil(math.Log2(float64(p))))
	cost = float64(rounds) * (c.params.Alpha + float64(bytes)*c.params.Beta)
	moved = (p - 1) * bytes
	msgs = p - 1
	return cost, moved, msgs
}

// BarrierCost models a dissemination barrier.
func (c *Cluster) BarrierCost() (cost float64, moved, msgs int64) {
	p := int64(c.P())
	if p == 1 {
		return 0, 0, 0
	}
	rounds := int64(math.Ceil(math.Log2(float64(p))))
	return float64(rounds) * c.params.Alpha, 0, rounds * p
}

// PointToPointCost models one message of the given size.
func (c *Cluster) PointToPointCost(bytes int64) (cost float64, moved, msgs int64) {
	return c.params.XferSeconds(bytes), bytes, 1
}

// Quantile returns the q-quantile (0..1) of the per-rank clocks; useful in
// tests for checking clock synchronization.
func (c *Cluster) Quantile(q float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := append([]float64(nil), c.clocks...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
