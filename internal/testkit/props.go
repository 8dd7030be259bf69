package testkit

import (
	"fmt"
	"math"

	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/partition"
	"kgedist/internal/xrand"
)

// The property checks verify the mathematical contracts each strategy's
// correctness rests on (see ISSUE/TESTING.md):
//
//   - TwoBitTernary quantization is unbiased where its clamp permits:
//     E[q_i] = v_i for |v_i| < mean(|v|), E[q_i] = sign(v_i)*mean(|v|) for
//     clamped coordinates (TernGrad, Wen et al. 2017, with the paper's
//     mean-scale modification).
//   - The 1-bit family is sign-exact: decode yields sign(v_i) * scale with
//     the scheme's documented per-row scale.
//   - Random selection keeps row i with probability min(1, ||g_i||/C),
//     C = mean row norm (§4.2), and the Wangni-style unbiased variant
//     rescales kept rows so the expectation is preserved.
//   - Relation partition never shares a relation across ranks, loses no
//     triples, and stays balanced within the provable bound (§4.4).
//   - The dynamic strategy's all-gather switch is permanent (§4.1).
//   - Negative sample selection trains on the argmax-scoring candidate
//     (§4.5).

// quantTrials and selectTrials size the Monte-Carlo sweeps. At 20k trials
// the detectable bias floor is ~5% of a coordinate's standard deviation —
// far below anything that would matter for training, far above float noise.
const (
	quantTrials  = 20000
	selectTrials = 20000
)

// CheckTernaryUnbiased verifies the TwoBitTernary estimator's expectation
// coordinate-by-coordinate over quantTrials seeded encode/decode rounds.
func CheckTernaryUnbiased(seed uint64) PropResult {
	const name = "quant-ternary-unbiased"
	width := 16
	row := make([]float32, width)
	rowRng := xrand.New(seed)
	for i := range row {
		// Mixed magnitudes either side of the mean, both signs, one zero.
		row[i] = float32((rowRng.Float64()*2 - 1) * math.Pow(2, float64(i%5)-2))
	}
	row[3] = 0
	var absSum float64
	for _, v := range row {
		absSum += math.Abs(float64(v))
	}
	mean := absSum / float64(width)

	g := grad.NewSparseGrad(width)
	copy(g.Row(1), row)
	rng := xrand.New(seed).Split(1)
	acc := make([]RunningMean, width)
	dst := grad.NewSparseGrad(width)
	for t := 0; t < quantTrials; t++ {
		e := grad.Quantize(g, grad.TwoBitTernary, rng)
		dst.Clear()
		grad.Dequantize(e, dst)
		dec, _ := dst.Get(1)
		for i, v := range dec {
			acc[i].Add(float64(v))
		}
	}
	for i, v := range row {
		a := math.Abs(float64(v))
		if a >= mean {
			// Clamped coordinate: P(keep)=1, so q is deterministic.
			want := math.Copysign(mean, float64(v))
			if math.Abs(acc[i].Mean()-want) > 1e-4 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"clamped coord %d: mean decode %.6g, want exactly %.6g", i, acc[i].Mean(), want)}
			}
			continue
		}
		ok, margin := MeanWithin(acc[i].Mean(), float64(v), acc[i].SD(), acc[i].N())
		if !ok {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"coord %d biased: mean decode %.6g, want %.6g ± %.2g over %d trials",
				i, acc[i].Mean(), v, margin, quantTrials)}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d coords within %.3g SE over %d trials (clamped coords exact)", width, CheckZ, quantTrials)}
}

// CheckOneBitSignExact verifies the deterministic 1-bit contract for every
// scheme in the family: decode returns sign(v_i) * scale, where scale is the
// scheme's documented row statistic (max for OneBitMax, mean for OneBitAvg;
// the sign-restricted variants are checked against the full-precision row).
func CheckOneBitSignExact(seed uint64) PropResult {
	const name = "quant-1bit-sign-exact"
	width := 24
	rng := xrand.New(seed)
	row := make([]float32, width)
	var absMax float32
	var absSum float64
	for i := range row {
		row[i] = float32(rng.NormFloat64())
		if a := float32(math.Abs(float64(row[i]))); a > absMax {
			absMax = a
		}
		absSum += math.Abs(float64(row[i]))
	}
	schemes := []grad.Scheme{
		grad.OneBitMax, grad.OneBitAvg,
		grad.OneBitPosMax, grad.OneBitNegMax, grad.OneBitPosAvg, grad.OneBitNegAvg,
	}
	g := grad.NewSparseGrad(width)
	copy(g.Row(0), row)
	dst := grad.NewSparseGrad(width)
	for _, s := range schemes {
		e := grad.Quantize(g, s, nil)
		dst.Clear()
		grad.Dequantize(e, dst)
		dec, _ := dst.Get(0)
		scale := float64(e.Scales[0])
		if scale <= 0 {
			return PropResult{Name: name, Detail: fmt.Sprintf("%s: non-positive scale %g", s, scale)}
		}
		switch s {
		case grad.OneBitMax:
			if math.Abs(scale-float64(absMax)) > 1e-6 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s scale %.6g, want max|v| = %.6g", s, scale, absMax)}
			}
		case grad.OneBitAvg:
			if math.Abs(scale-absSum/float64(width)) > 1e-5 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s scale %.6g, want mean|v| = %.6g", s, scale, absSum/float64(width))}
			}
		}
		for i, v := range row {
			want := scale
			if v < 0 {
				want = -scale
			}
			if math.Abs(float64(dec[i])-want) > 1e-6 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s coord %d: decoded %.6g, want sign(%.6g)*%.6g", s, i, dec[i], v, scale)}
			}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d schemes sign-exact with documented scales over %d coords", len(schemes), width)}
}

// selectTestGrad builds a gradient with rows of controlled norms: row i is
// constant-valued, so its 2-norm is |v_i|*sqrt(width).
func selectTestGrad(width int, vals []float32) *grad.SparseGrad {
	g := grad.NewSparseGrad(width)
	for i, v := range vals {
		row := g.Row(int32(i))
		for j := range row {
			row[j] = v
		}
	}
	return g
}

// CheckRSKeepProbability verifies the §4.2 contract: SelectBernoulli keeps
// row i with probability min(1, ||g_i||/C), C = mean 2-norm, measured as an
// empirical frequency over selectTrials seeded passes.
func CheckRSKeepProbability(seed uint64) PropResult {
	const name = "rs-keep-probability"
	width := 8
	vals := []float32{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0}
	var meanNorm float64
	for _, v := range vals {
		meanNorm += float64(v) * math.Sqrt(float64(width))
	}
	meanNorm /= float64(len(vals))

	rng := xrand.New(seed).Split(7)
	kept := make([]int, len(vals))
	for t := 0; t < selectTrials; t++ {
		g := selectTestGrad(width, vals)
		grad.Select(g, grad.SelectBernoulli, rng)
		for i := range vals {
			if _, ok := g.Get(int32(i)); ok {
				kept[i]++
			}
		}
	}
	for i, v := range vals {
		p := math.Min(1, float64(v)*math.Sqrt(float64(width))/meanNorm)
		if p >= 1 {
			if kept[i] != selectTrials {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"row %d has p=1 but was dropped %d times", i, selectTrials-kept[i])}
			}
			continue
		}
		ok, margin := BernoulliWithin(kept[i], selectTrials, p)
		if !ok {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"row %d kept %.4f of trials, want min(1,||g||/C) = %.4f ± %.4f",
				i, float64(kept[i])/selectTrials, p, margin)}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d rows match min(1,||g||/C) within %.3g SE over %d trials", len(vals), CheckZ, selectTrials)}
}

// CheckUnbiasedSelection verifies the Wangni-style variant: after
// SelectUnbiased (keep w.p. p, rescale kept rows by 1/p) the expected
// gradient equals the original.
func CheckUnbiasedSelection(seed uint64) PropResult {
	const name = "rs-unbiased-expectation"
	width := 8
	vals := []float32{0.2, 0.5, 1.0, 2.0}
	rng := xrand.New(seed).Split(11)
	acc := make([]RunningMean, len(vals))
	for t := 0; t < selectTrials; t++ {
		g := selectTestGrad(width, vals)
		grad.Select(g, grad.SelectUnbiased, rng)
		for i := range vals {
			if row, ok := g.Get(int32(i)); ok {
				acc[i].Add(float64(row[0]))
			} else {
				acc[i].Add(0)
			}
		}
	}
	for i, v := range vals {
		ok, margin := MeanWithin(acc[i].Mean(), float64(v), acc[i].SD(), acc[i].N())
		if !ok {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"row %d expectation %.5g, want %.5g ± %.2g — selection is biased",
				i, acc[i].Mean(), v, margin)}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d rows unbiased within %.3g SE over %d trials", len(vals), CheckZ, selectTrials)}
}

// CheckRPInvariants exhaustively verifies the relation partitioner over a
// grid of generated KGs and node counts: (1) no relation spans two ranks,
// (2) no triple is lost or duplicated, (3) the load balance stays within the
// provable bound total/p + maxRelationGroup + 1.
func CheckRPInvariants() PropResult {
	const name = "rp-invariants"
	grids := []kg.GenConfig{
		{Name: "rp-a", Entities: 60, Relations: 3, Triples: 500, Communities: 4, Seed: 1},
		{Name: "rp-b", Entities: 120, Relations: 17, Triples: 2000, Communities: 8, Seed: 2},
		{Name: "rp-c", Entities: 200, Relations: 40, Triples: 4000, Communities: 10, Seed: 3},
		// Pathological skew: relations ~ entities, nearly one triple each.
		{Name: "rp-d", Entities: 80, Relations: 64, Triples: 300, Communities: 5, Seed: 4},
	}
	cases := 0
	for _, gc := range grids {
		d := kg.Generate(gc)
		hist := d.RelationHistogram()
		maxGroup := 0
		for _, h := range hist {
			if h > maxGroup {
				maxGroup = h
			}
		}
		want := map[kg.Triple]int{}
		for _, t := range d.Train {
			want[t]++
		}
		for nodes := 1; nodes <= 8; nodes++ {
			cases++
			parts := kg.RelationPartition(d.Train, d.NumRelations, nodes)
			if len(parts) != nodes {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s p=%d: got %d parts", gc.Name, nodes, len(parts))}
			}
			if rel := kg.PartitionRelationsDisjoint(parts); rel >= 0 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s p=%d: relation %d spans two ranks", gc.Name, nodes, rel)}
			}
			got := map[kg.Triple]int{}
			total, maxShard := 0, 0
			for _, part := range parts {
				total += len(part)
				if len(part) > maxShard {
					maxShard = len(part)
				}
				for _, t := range part {
					got[t]++
				}
			}
			if total != len(d.Train) || len(got) != len(want) {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s p=%d: partition holds %d triples (%d distinct), input had %d (%d distinct) — triples lost or duplicated",
					gc.Name, nodes, total, len(got), len(d.Train), len(want))}
			}
			for t, n := range want {
				if got[t] != n {
					return PropResult{Name: name, Detail: fmt.Sprintf(
						"%s p=%d: triple %+v count %d, want %d", gc.Name, nodes, t, got[t], n)}
				}
			}
			bound := len(d.Train)/nodes + maxGroup + 1
			if maxShard > bound {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s p=%d: max shard %d exceeds balance bound total/p + maxGroup + 1 = %d",
					gc.Name, nodes, maxShard, bound)}
			}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d (dataset × nodes) cases: disjoint relations, no lost triples, balance within bound", cases)}
}

// CheckDRSSwitchPermanence trains a short dynamic-strategy run and asserts
// the §4.1 contract: once the probe switches the exchange to all-gather it
// never reverts, and SwitchedAtEpoch agrees with the recorded per-epoch
// modes.
func CheckDRSSwitchPermanence() PropResult {
	const name = "drs-switch-permanence"
	d := GoldenDataset()
	cfg := GoldenBaseConfig()
	cfg.Comm = core.CommDynamic
	cfg.ProbeEvery = 1 // probe every epoch so the switch happens in-budget
	cfg.Select = grad.SelectBernoulli
	cfg.MaxEpochs = 6
	res, err := core.Train(cfg, d, 2)
	if err != nil {
		return PropResult{Name: name, Detail: "training failed: " + err.Error()}
	}
	switched := 0
	for _, e := range res.PerEpoch {
		switch e.Mode {
		case "allreduce":
			if switched > 0 {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"mode reverted to allreduce at epoch %d after switching at epoch %d — the switch must be permanent",
					e.Epoch, switched)}
			}
		case "allgather":
			if switched == 0 {
				switched = e.Epoch
			}
		default:
			return PropResult{Name: name, Detail: fmt.Sprintf("epoch %d has unknown mode %q", e.Epoch, e.Mode)}
		}
	}
	if switched == 0 {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"dynamic run never switched to all-gather in %d epochs — probe inert (sparse gradients should win here)", res.Epochs)}
	}
	if res.SwitchedAtEpoch == 0 || res.SwitchedAtEpoch > switched {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"SwitchedAtEpoch=%d disagrees with first all-gather epoch %d", res.SwitchedAtEpoch, switched)}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"switched at epoch %d and stayed in all-gather through epoch %d", switched, res.Epochs)}
}

// CheckSSHardestOrdering verifies §4.5: SelectHardest returns the candidate
// with the maximum model score among the n drawn negatives, reproduced here
// with a twin sampler consuming an identical RNG stream.
func CheckSSHardestOrdering(seed uint64) PropResult {
	const name = "ss-hardest-ordering"
	const entities, relations, n, trials = 200, 10, 6, 300
	m := model.New("complex", 8)
	p := model.NewParams(m, entities, relations)
	p.Init(m, xrand.New(seed))

	sampler := model.NewNegSampler(entities, xrand.New(seed).Split(1))
	twin := model.NewNegSampler(entities, xrand.New(seed).Split(1))
	posRng := xrand.New(seed).Split(2)
	scratchA := make([]kg.Triple, 0, n)
	scratchB := make([]kg.Triple, 0, n)
	for t := 0; t < trials; t++ {
		pos := kg.Triple{
			H: int32(posRng.Intn(entities)),
			R: int32(posRng.Intn(relations)),
			T: int32(posRng.Intn(entities)),
		}
		// The twin replays the exact candidate set SelectHardest will draw.
		cands := twin.CorruptN(pos, n, scratchB)
		best := cands[0]
		bestScore := m.Score(p, best)
		for _, c := range cands[1:] {
			if sc := m.Score(p, c); sc > bestScore {
				bestScore = sc
				best = c
			}
		}
		got, extra := model.SelectHardest(m, p, sampler, pos, n, scratchA)
		if got != best {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"trial %d: SelectHardest returned %+v (score %.5g), argmax candidate is %+v (score %.5g)",
				t, got, m.Score(p, got), best, bestScore)}
		}
		if extra != n {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"trial %d: accounted %d extra scores, want n=%d", t, extra, n)}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"argmax candidate returned in %d/%d seeded trials", trials, trials)}
}

// CheckJointPartitionInvariants verifies the sharded-table row partitioner
// over a grid of generated KGs, rank counts and algorithms: (1) every
// entity and relation row has exactly one in-range owner, (2) the triple
// shards cover the training split exactly once, (3) per-rank row counts
// stay within the balance bound, (4) plans are a pure function of
// (dataset, options), and (5) min-cut never plans more remote row traffic
// than the hash baseline on a community-structured graph.
func CheckJointPartitionInvariants() PropResult {
	const name = "partition-joint-invariants"
	grids := []kg.GenConfig{
		{Name: "jp-a", Entities: 90, Relations: 6, Triples: 900, Communities: 6, Seed: 11},
		{Name: "jp-b", Entities: 240, Relations: 24, Triples: 4000, Communities: 8, Seed: 12},
		// Pathological: more relations than some shards have entities.
		{Name: "jp-c", Entities: 50, Relations: 45, Triples: 400, Communities: 5, Seed: 13},
	}
	cases := 0
	for _, gc := range grids {
		d := kg.Generate(gc)
		want := map[kg.Triple]int{}
		for _, t := range d.Train {
			want[t]++
		}
		for ranks := 1; ranks <= 6; ranks++ {
			remote := map[string]float64{}
			for _, algo := range []string{"mincut", "hash"} {
				cases++
				opt := partition.Options{Ranks: ranks, Algo: algo, Seed: 9}
				plan, err := partition.Build(d, opt)
				if err != nil {
					return PropResult{Name: name, Detail: fmt.Sprintf(
						"%s/%s p=%d: Build: %v", gc.Name, algo, ranks, err)}
				}
				if err := plan.Validate(); err != nil {
					return PropResult{Name: name, Detail: fmt.Sprintf(
						"%s/%s p=%d: %v", gc.Name, algo, ranks, err)}
				}
				entCount := make([]int, ranks)
				for e, o := range plan.EntityOwner {
					if o < 0 || int(o) >= ranks {
						return PropResult{Name: name, Detail: fmt.Sprintf(
							"%s/%s p=%d: entity %d owned by rank %d", gc.Name, algo, ranks, e, o)}
					}
					entCount[o]++
				}
				relCount := make([]int, ranks)
				for r, o := range plan.RelationOwner {
					if o < 0 || int(o) >= ranks {
						return PropResult{Name: name, Detail: fmt.Sprintf(
							"%s/%s p=%d: relation %d owned by rank %d", gc.Name, algo, ranks, r, o)}
					}
					relCount[o]++
				}
				if algo == "mincut" {
					// Only the greedy min-cut enforces the balance cap;
					// hash is the unbalanced baseline.
					entBound := partition.BalanceBound(d.NumEntities, ranks, opt.Slack)
					relBound := partition.BalanceBound(d.NumRelations, ranks, opt.Slack)
					for rank := 0; rank < ranks; rank++ {
						if entCount[rank] > entBound {
							return PropResult{Name: name, Detail: fmt.Sprintf(
								"%s/%s p=%d: rank %d owns %d entities, bound %d", gc.Name, algo, ranks, rank, entCount[rank], entBound)}
						}
						if relCount[rank] > relBound {
							return PropResult{Name: name, Detail: fmt.Sprintf(
								"%s/%s p=%d: rank %d owns %d relations, bound %d", gc.Name, algo, ranks, rank, relCount[rank], relBound)}
						}
					}
				}
				got := map[kg.Triple]int{}
				total := 0
				for _, shard := range plan.Shards {
					total += len(shard)
					for _, t := range shard {
						got[t]++
					}
				}
				if total != len(d.Train) || len(got) != len(want) {
					return PropResult{Name: name, Detail: fmt.Sprintf(
						"%s/%s p=%d: shards hold %d triples (%d distinct), train has %d (%d distinct)",
						gc.Name, algo, ranks, total, len(got), len(d.Train), len(want))}
				}
				for t, n := range want {
					if got[t] != n {
						return PropResult{Name: name, Detail: fmt.Sprintf(
							"%s/%s p=%d: triple %+v placed %d times, want %d", gc.Name, algo, ranks, t, got[t], n)}
					}
				}
				again, err := partition.Build(d, opt)
				if err != nil {
					return PropResult{Name: name, Detail: fmt.Sprintf(
						"%s/%s p=%d: rebuild: %v", gc.Name, algo, ranks, err)}
				}
				for e := range plan.EntityOwner {
					if plan.EntityOwner[e] != again.EntityOwner[e] {
						return PropResult{Name: name, Detail: fmt.Sprintf(
							"%s/%s p=%d: nondeterministic entity owner at row %d", gc.Name, algo, ranks, e)}
					}
				}
				for r := range plan.RelationOwner {
					if plan.RelationOwner[r] != again.RelationOwner[r] {
						return PropResult{Name: name, Detail: fmt.Sprintf(
							"%s/%s p=%d: nondeterministic relation owner at row %d", gc.Name, algo, ranks, r)}
					}
				}
				remote[algo] = plan.Quality().RemoteRowFraction
			}
			if ranks > 1 && remote["mincut"] > remote["hash"] {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"%s p=%d: mincut plans %.3f remote rows, hash baseline %.3f",
					gc.Name, ranks, remote["mincut"], remote["hash"])}
			}
		}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d (dataset × ranks × algo) cases: single owners, lossless shards, balance within bound, deterministic, mincut ≤ hash on remote rows", cases)}
}

// entropyTrials sizes the estimator sweep; with ~6400 strided samples per
// trial the CLT margin on the mean strided-vs-exact gap lands near 1e-3 in
// normalized entropy — far below any gap that could move a ladder decision.
const entropyTrials = 100

// CheckEntropyEstimator verifies the compression controller's cheap entropy
// signal (DESIGN.md §13): the strided bucket histogram (every
// ObserveStride-th value) must estimate the exact stride-1 bucket entropy
// without bias. Each trial draws a fresh gradient, runs the controller's own
// Observe/AdvanceFrom path for the strided figure, and compares against
// grad.ExactEntropy; the mean gap over all trials is held within CheckZ
// standard errors of zero.
func CheckEntropyEstimator(seed uint64) PropResult {
	const name = "dyncomp-entropy-estimator"
	const rows, width = 400, 64
	rng := xrand.New(seed).Split(3)
	c := grad.NewController(0, 0)
	var buf [grad.CtrlStatsLen]float32
	var gap RunningMean
	maxAbs := 0.0
	for t := 0; t < entropyTrials; t++ {
		g := grad.NewSparseGrad(width)
		// Mixed magnitude scales so the histogram spans several buckets.
		for i := 0; i < rows; i++ {
			row := g.Row(int32(i))
			scale := math.Pow(2, float64(rng.Intn(9)-4))
			for j := range row {
				row[j] = float32(rng.NormFloat64() * scale)
			}
		}
		c.Observe(g)
		c.StatsInto(buf[:])
		strided := c.AdvanceFrom(buf[:]).Entropy
		exact := grad.ExactEntropy(g)
		d := strided - exact
		gap.Add(d)
		if a := math.Abs(d); a > maxAbs {
			maxAbs = a
		}
	}
	ok, margin := MeanWithin(gap.Mean(), 0, gap.SD(), gap.N())
	if !ok {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"strided estimate biased: mean gap %.3g vs exact, allowed ± %.2g over %d trials",
			gap.Mean(), margin, entropyTrials)}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"mean strided-vs-exact gap %.2g (± %.2g allowed, max |gap| %.2g) over %d trials",
		gap.Mean(), margin, maxAbs, entropyTrials)}
}

// dynCompMRRBand is the convergence band the adaptive controller must hold
// against the uncompressed baseline on the golden horizon. It is wider than
// the golden Tolerance.MRR band because the short 8-epoch run amortizes none
// of the quantization noise — the EXPERIMENTS.md sweep shows the gap closing
// (and 1-bit overtaking fp32) on longer horizons.
const dynCompMRRBand = 0.06

// CheckDynCompConvergence trains the adaptive-compression scenario and the
// static fp32 exchanges on the golden dataset and asserts the DESIGN.md §13
// contract end to end: the ladder engages at least one rung and only ever
// ascends, the recorded steps agree with the per-epoch rung column, the
// entropy signal is populated, total communicated bytes land strictly below
// BOTH static fp32 exchanges, and the final MRR stays within dynCompMRRBand
// of the fp32 baseline.
func CheckDynCompConvergence() PropResult {
	const name = "dyncomp-convergence"
	d := GoldenDataset()
	const nodes = 3
	run := func(mut func(*core.Config)) (*core.Result, error) {
		cfg := GoldenBaseConfig()
		mut(&cfg)
		return core.Train(cfg, d, nodes)
	}
	dyn, err := run(func(c *core.Config) { c.Comm = core.CommDynamicCompress })
	if err != nil {
		return PropResult{Name: name, Detail: "dyncomp run failed: " + err.Error()}
	}
	fp32, err := run(func(c *core.Config) { c.Comm = core.CommAllReduce })
	if err != nil {
		return PropResult{Name: name, Detail: "allreduce baseline failed: " + err.Error()}
	}
	gather, err := run(func(c *core.Config) { c.Comm = core.CommAllGather })
	if err != nil {
		return PropResult{Name: name, Detail: "allgather baseline failed: " + err.Error()}
	}

	if len(dyn.CompressionSteps) == 0 {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"ladder never engaged in %d epochs — controller inert on the golden dataset", dyn.Epochs)}
	}
	// The per-epoch rung column must be populated, monotone, and agree with
	// the recorded steps.
	level := grad.LevelFP32
	steps := dyn.CompressionSteps
	for _, e := range dyn.PerEpoch {
		if e.Mode != "dyncomp" {
			return PropResult{Name: name, Detail: fmt.Sprintf("epoch %d ran mode %q, want dyncomp", e.Epoch, e.Mode)}
		}
		if len(steps) > 0 && steps[0].Epoch == e.Epoch {
			level++
			if steps[0].Level != level.String() {
				return PropResult{Name: name, Detail: fmt.Sprintf(
					"step at epoch %d recorded rung %q, ladder order says %q", e.Epoch, steps[0].Level, level)}
			}
			steps = steps[1:]
		}
		if e.Level != level.String() {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"epoch %d ran rung %q, the recorded steps imply %q — trajectory and ledger disagree",
				e.Epoch, e.Level, level)}
		}
		if e.GradEntropy <= 0 || e.GradEntropy >= 1 {
			return PropResult{Name: name, Detail: fmt.Sprintf(
				"epoch %d entropy signal %.4g outside (0,1)", e.Epoch, e.GradEntropy)}
		}
	}
	// A step recorded for the epoch after the horizon is legal (the decision
	// fires at the final boundary); anything else left over is a ledger bug.
	if len(steps) > 1 || (len(steps) == 1 && steps[0].Epoch != dyn.Epochs+1) {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"%d recorded steps never trained: %+v", len(steps), steps)}
	}
	if dyn.CommBytes >= fp32.CommBytes || dyn.CommBytes >= gather.CommBytes {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"dyncomp moved %d bytes, not strictly below allreduce %d and allgather %d",
			dyn.CommBytes, fp32.CommBytes, gather.CommBytes)}
	}
	if math.Abs(dyn.MRR-fp32.MRR) > dynCompMRRBand {
		return PropResult{Name: name, Detail: fmt.Sprintf(
			"dyncomp MRR %.4f vs fp32 %.4f: outside the %.2g convergence band",
			dyn.MRR, fp32.MRR, dynCompMRRBand)}
	}
	return PropResult{Name: name, OK: true, Detail: fmt.Sprintf(
		"%d rung(s) engaged, %d bytes vs fp32 %d (%.1f%%), MRR %.4f within %.2g of fp32 %.4f",
		len(dyn.CompressionSteps), dyn.CommBytes, fp32.CommBytes,
		100*float64(dyn.CommBytes)/float64(fp32.CommBytes), dyn.MRR, dynCompMRRBand, fp32.MRR)}
}

// AllPropertyChecks runs the full statistical sweep. Deterministic for a
// fixed seed.
func AllPropertyChecks(seed uint64) []PropResult {
	return []PropResult{
		CheckTernaryUnbiased(seed),
		CheckOneBitSignExact(seed),
		CheckRSKeepProbability(seed),
		CheckUnbiasedSelection(seed),
		CheckRPInvariants(),
		CheckJointPartitionInvariants(),
		CheckDRSSwitchPermanence(),
		CheckSSHardestOrdering(seed),
		CheckEntropyEstimator(seed),
		CheckDynCompConvergence(),
		CheckBinarizedRecall(seed),
	}
}
