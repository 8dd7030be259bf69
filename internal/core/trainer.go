package core

import (
	"errors"
	"fmt"
	"math"

	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	part "kgedist/internal/partition"
	"kgedist/internal/simnet"
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// zeroRowEps: gradient rows whose 2-norm falls below this are treated as
// zero and dropped before communication — the sparse-update behaviour whose
// growth over training motivates the dynamic all-reduce/all-gather strategy
// (Figure 2 of the paper; see also Gupta & Vadhiyar's zero-row elimination).
const zeroRowEps = 1e-8

// Train runs a full distributed training job over the dataset with the
// given number of simulated nodes and returns the paper-style result
// (training time, epochs, TCA, MRR, communication volumes). With a fault
// plan configured, ranks may die mid-training; Recover turns those deaths
// into shrink-and-continue recoveries, otherwise Train returns the
// *mpi.RankFailedError.
func Train(cfg Config, d *kg.Dataset, nodes int) (*Result, error) {
	res, _, _, err := trainInternal(cfg, d, nodes)
	return res, err
}

// partition bundles the data distribution for one node count. It is a pure
// function of (cfg, dataset, nodes), so re-partitioning after a shrink is
// deterministic: the same survivors always receive the same shards.
type partition struct {
	shards          [][]kg.Triple
	valShards       [][]kg.Triple
	relOwner        []int
	batchesPerEpoch int
	perRankValCap   int
	// plan is the joint row-ownership plan of Partitioned mode (nil for the
	// replicated modes); shards then come from the plan's triple placement.
	plan *part.Plan
}

// buildPartition distributes the training and validation triples over nodes
// ranks (uniform baseline, relation partition, or the joint row partition,
// per cfg).
func buildPartition(cfg *Config, d *kg.Dataset, nodes int) (partition, error) {
	var pt partition
	if cfg.Partitioned {
		plan, err := part.Build(d, part.Options{
			Ranks: nodes,
			Algo:  cfg.PartitionBy,
			Seed:  cfg.Seed,
			Slack: cfg.PartitionSlack,
		})
		if err != nil {
			return pt, err
		}
		pt.plan = plan
		pt.shards = plan.Shards
		// Validation triples score wherever most of their rows live, so the
		// per-epoch pull stays small.
		pt.valShards = make([][]kg.Triple, nodes)
		for _, t := range d.Valid {
			owner := plan.PreferredRank(t)
			pt.valShards[owner] = append(pt.valShards[owner], t)
		}
		maxShard := 0
		for _, s := range pt.shards {
			if len(s) > maxShard {
				maxShard = len(s)
			}
		}
		pt.batchesPerEpoch = (maxShard + cfg.BatchSize - 1) / cfg.BatchSize
		if cfg.ValSample > 0 {
			pt.perRankValCap = cfg.ValSample/nodes + 1
		}
		return pt, nil
	}
	baseRng := xrand.New(cfg.Seed)
	shuffled := append([]kg.Triple(nil), d.Train...)
	baseRng.Split(77).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if cfg.RelationPartition {
		pt.shards = kg.RelationPartition(shuffled, d.NumRelations, nodes)
		pt.relOwner = make([]int, d.NumRelations)
		for r := range pt.relOwner {
			pt.relOwner[r] = -1
		}
		for rank, shard := range pt.shards {
			for _, t := range shard {
				pt.relOwner[t.R] = rank
			}
		}
	} else {
		pt.shards = kg.UniformPartition(shuffled, nodes)
	}
	maxShard := 0
	for _, s := range pt.shards {
		if len(s) > maxShard {
			maxShard = len(s)
		}
	}
	pt.batchesPerEpoch = (maxShard + cfg.BatchSize - 1) / cfg.BatchSize

	// Validation shards: under RP a rank can only score relations it owns
	// (other replicas' rows are stale by design), so split by owner.
	pt.valShards = make([][]kg.Triple, nodes)
	if pt.relOwner != nil {
		for _, t := range d.Valid {
			owner := pt.relOwner[t.R]
			if owner < 0 {
				owner = 0
			}
			pt.valShards[owner] = append(pt.valShards[owner], t)
		}
	} else {
		pt.valShards = kg.UniformPartition(d.Valid, nodes)
	}
	if cfg.ValSample > 0 {
		pt.perRankValCap = cfg.ValSample/nodes + 1
	}
	return pt, nil
}

// snapshot is the recovery point: the merged model as of some completed
// epoch. Epoch 0 holds the shared initialization, so shrink-and-continue
// works even before the first periodic checkpoint.
type snapshot struct {
	epoch  int
	params *model.Params
}

// rollback rewinds the run's record to the snapshot epoch after a failure
// of failed ranks, counting the failure and the epochs it threw away. Both
// attempt loops (Train and TrainProcess) call it before resuming.
func rollback(res *Result, rec *RecoveryStats, snapEpoch, failed int) {
	rec.Recoveries++
	rec.RankFailures += failed
	rec.EpochsLost += res.Epochs - snapEpoch
	for len(res.PerEpoch) > 0 && res.PerEpoch[len(res.PerEpoch)-1].Epoch > snapEpoch {
		res.PerEpoch = res.PerEpoch[:len(res.PerEpoch)-1]
	}
	res.Epochs = snapEpoch
	// The adaptive controller and its residuals are rank-local state lost
	// with the dead world; the new attempt re-ascends the ladder from fp32
	// (DESIGN.md §13), so its step record starts over too.
	res.CompressionSteps = nil
}

// trainInternal is Train plus white-box access to the per-rank replicas and
// the relation-owner table, used by the replica-consistency tests.
//
// The attempt loop implements shrink-and-continue (ULFM-style): a rank
// failure surfaces as *mpi.RankFailedError from RunErr; the world is shrunk
// over the survivors, the dead ranks' shards are re-partitioned, replicas
// warm-start from the last snapshot, and training resumes at the snapshot
// epoch. After MaxRecoveries the run degrades to a single fault-free node
// rather than giving up. Every step — fault firing, shrink, re-partition,
// replay — is a deterministic function of (Config, dataset, nodes).
func trainInternal(cfg Config, d *kg.Dataset, nodes int) (*Result, []*model.Params, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if nodes < 1 {
		return nil, nil, nil, fmt.Errorf("core: nodes must be >= 1, got %d", nodes)
	}
	if err := d.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(d.Train) == 0 {
		return nil, nil, nil, fmt.Errorf("core: empty training split")
	}

	m := model.New(cfg.ModelName, cfg.Dim)
	width := m.Width()

	// ---- Cluster, world, replicated parameters ----
	cluster := simnet.NewCluster(nodes, simnet.XC40Params())
	if cfg.FaultPlan != nil {
		if err := cluster.SetFaultPlan(cfg.FaultPlan); err != nil {
			return nil, nil, nil, err
		}
	}
	world := mpi.NewWorld(cluster)

	var proto *model.Params
	if cfg.WarmStart != nil {
		if cfg.WarmStart.Entity.Rows != d.NumEntities ||
			cfg.WarmStart.Relation.Rows != d.NumRelations ||
			cfg.WarmStart.Entity.Cols != width {
			return nil, nil, nil, fmt.Errorf("core: WarmStart shape (%dx%d entities, %d relations) does not match dataset/model (%dx%d, %d)",
				cfg.WarmStart.Entity.Rows, cfg.WarmStart.Entity.Cols, cfg.WarmStart.Relation.Rows,
				d.NumEntities, width, d.NumRelations)
		}
		proto = cfg.WarmStart.Clone()
	} else {
		proto = model.NewParams(m, d.NumEntities, d.NumRelations)
		proto.Init(m, xrand.New(cfg.Seed).Split(0))
	}

	res := &Result{Strategy: cfg.StrategyLabel(), Nodes: nodes}
	snap := &snapshot{epoch: 0, params: proto}
	var rec RecoveryStats

	var perRank []*model.Params
	var relOwner []int
	var run *trainRun
	for {
		pt, perr := buildPartition(&cfg, d, world.Size())
		if perr != nil {
			return nil, nil, nil, perr
		}
		relOwner = pt.relOwner
		perRank = make([]*model.Params, world.Size())
		if !cfg.Partitioned {
			// Partitioned ranks never hold replicas — that is the memory
			// claim; they build shard stores from the snapshot instead.
			for r := range perRank {
				perRank[r] = snap.params.Clone()
			}
		}
		run = &trainRun{
			cfg:             &cfg,
			d:               d,
			m:               m,
			width:           width,
			shards:          pt.shards,
			valShards:       pt.valShards,
			perRankValCap:   pt.perRankValCap,
			relOwner:        pt.relOwner,
			batchesPerEpoch: pt.batchesPerEpoch,
			plan:            pt.plan,
			cluster:         cluster,
			perRank:         perRank,
			res:             res,
			snap:            snap,
			rec:             &rec,
			startEpoch:      snap.epoch,
		}
		err := world.RunErr(run.worker)
		if err == nil {
			break
		}
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) || !cfg.Recover {
			return nil, nil, nil, err
		}

		// ---- Shrink-and-continue ----
		rollback(res, &rec, snap.epoch, len(rf.Ranks))

		degrade := rec.Recoveries > cfg.MaxRecoveries || world.Size()-len(rf.Ranks) == 1
		shrunk, serr := world.Shrink(rf.Ranks)
		if serr != nil {
			return nil, nil, nil, errors.Join(err, serr)
		}
		world = shrunk
		if degrade && world.Size() > 1 {
			// Graceful degradation: collapse to a single node, which cannot
			// suffer a collective failure.
			extra := make([]int, 0, world.Size()-1)
			for r := 1; r < world.Size(); r++ {
				extra = append(extra, r)
			}
			if shrunk, serr = world.Shrink(extra); serr != nil {
				return nil, nil, nil, errors.Join(err, serr)
			}
			world = shrunk
		}
		if degrade {
			cluster.ClearFaultPlan()
			rec.Degraded = true
		}

		// Charge the recovery to the virtual clock: exponential backoff
		// (failure detection and re-coordination) plus every survivor
		// reloading the snapshot from stable storage.
		bytes := int64(4 * (len(snap.params.Entity.Data) + len(snap.params.Relation.Data)))
		reload, _, _ := cluster.PointToPointCost(bytes)
		cost := cfg.RecoveryBackoff*math.Pow(2, float64(rec.Recoveries-1)) + reload*float64(world.Size())
		cluster.Collective(cost, bytes*int64(world.Size()), int64(world.Size()), tagRecovery)
		rec.RecoverySeconds += cost
	}

	rec.FaultsInjected = cluster.FaultsInjected()
	rec.FinalNodes = world.Size()
	res.Recovery = rec

	// ---- Final evaluation on the merged model ----
	var merged *model.Params
	if cfg.Partitioned {
		// The trained rows were gathered collectively at the end of the
		// worker epoch loop; rank 0 published them through the run.
		merged = run.partFinal
		if merged == nil {
			return nil, nil, nil, fmt.Errorf("core: partitioned run finished without publishing the merged model")
		}
		q := run.plan.Quality()
		res.Partition = &PartitionStats{
			Algo:              run.plan.Algo,
			Ranks:             run.plan.Ranks,
			CutRatio:          q.CutRatio,
			RemoteRowFraction: q.RemoteRowFraction,
			EntityBalance:     q.EntityBalance,
			RelationBalance:   q.RelationBalance,
			TripleBalance:     q.TripleBalance,
			MaxEntityShard:    q.MaxEntityShard,
		}
	} else {
		merged = mergeParams(m, perRank, relOwner)
	}
	filter := kg.NewFilterIndex(d)
	evalRng := xrand.New(cfg.Seed + 999)
	lp := eval.LinkPrediction(m, merged, d, filter, cfg.TestSample, evalRng)
	tc := eval.TripleClassification(m, merged, d, filter, evalRng)
	res.MRR = lp.FilteredMRR
	res.Hits1 = lp.Hits1
	res.Hits3 = lp.Hits3
	res.Hits10 = lp.Hits10
	res.MR = lp.MR
	res.TCA = tc.Accuracy
	res.FinalParams = merged
	st := cluster.Stats()
	res.CommBytes = st.BytesMoved
	res.CommHours = st.CommSeconds / 3600
	res.RelationCommBytes = cluster.BytesByTag()[tagRelation]
	res.TotalHours = cluster.MaxTime() / 3600
	return res, perRank, relOwner, nil
}

// trainRun carries the state shared (read-only, or rank-0-written between
// barriers) across rank goroutines.
type trainRun struct {
	cfg             *Config
	d               *kg.Dataset
	m               model.Model
	width           int
	shards          [][]kg.Triple
	valShards       [][]kg.Triple
	perRankValCap   int
	relOwner        []int
	batchesPerEpoch int
	cluster         *simnet.Cluster
	perRank         []*model.Params
	res             *Result
	snap            *snapshot
	rec             *RecoveryStats
	startEpoch      int   // resume point: epochs before this are already done
	ckptErr         error // rank-0 checkpoint write error, read between barriers

	// plan is the row-ownership plan of Partitioned mode (nil otherwise);
	// partFinal is the merged model the stats rank publishes from the
	// end-of-training collective gather.
	plan      *part.Plan
	partFinal *model.Params

	// proc marks a process world (one rank in this address space): the
	// checkpoint merge runs as a collective instead of a shared-memory walk.
	proc bool
	// statsRank is the rank whose goroutine records per-epoch stats into
	// res: rank 0 in a channel world, the process's own (sole) rank in a
	// process world — every process then records its own identical copy of
	// the global curves (and its own local loss).
	statsRank int
}

// worker is the per-rank training loop. Collective errors (a peer died) are
// returned, not handled: the recovery loop in trainInternal owns shrinking
// the world and re-running.
func (t *trainRun) worker(c *mpi.Comm) error {
	if t.cfg.Partitioned {
		return t.workerPartitioned(c)
	}
	cfg := t.cfg
	rank := c.Rank()
	nodes := c.Size()
	params := t.perRank[rank]
	shard := t.shards[rank]

	entOpt := opt.NewByName(cfg.OptimizerName, t.d.NumEntities, t.width)
	relOpt := opt.NewByName(cfg.OptimizerName, t.d.NumRelations, t.width)
	plateau := opt.NewPlateau(
		opt.ScaledLR(cfg.BaseLR, nodes, cfg.LRScaleCap),
		cfg.LRFactor, cfg.MinLR, cfg.Tolerance)

	rng := xrand.New(cfg.Seed).Split(uint64(rank + 1))
	sampler := model.NewNegSampler(t.d.NumEntities, rng.Split(2))
	selRng := rng.Split(3)
	x := newExchanger(cfg, c, t.width, t.d.NumEntities, t.d.NumRelations, rng.Split(4))

	entG := grad.NewSparseGrad(t.width)
	relG := grad.NewSparseGrad(t.width)
	negBuf := make([]kg.Triple, 0, cfg.NegSamples)
	var dropBuf []int32 // dropZeroRows scratch, reused across batches
	order := make([]int, len(shard))
	for i := range order {
		order[i] = i
	}

	mode := "allreduce"
	if cfg.Comm == CommAllGather {
		mode = "allgather"
	}
	if cfg.Comm == CommDynamicCompress {
		mode = "dyncomp" // adaptive ladder pipeline at every rung (DESIGN.md §13)
	}
	switched := 0
	best := -1.0
	sinceBest := 0
	var prevStats simnet.Stats
	var prevTime float64

	for epoch := t.startEpoch + 1; epoch <= cfg.MaxEpochs; epoch++ {
		// Epoch-start timestamp (rank 0 reads between barriers so no rank
		// is mid-charge).
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == t.statsRank {
			prevTime = t.cluster.MaxTime()
			prevStats = t.cluster.Stats()
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		epochRng := rng.Split(uint64(100 + epoch))
		epochRng.ShuffleInts(order)

		var nnzSum float64
		var lossSum float64
		var lossN int
		var selBefore, selDropped int
		probed := false
		lr := float32(plateau.LR())

		for b := 0; b < t.batchesPerEpoch; b++ {
			entG.Clear()
			relG.Clear()
			var flops float64
			if len(shard) > 0 {
				// Small shards (relation partition can be uneven) are not
				// oversampled: a batch never exceeds the shard size.
				nIter := cfg.BatchSize
				if len(shard) < nIter {
					nIter = len(shard)
				}
				for i := 0; i < nIter; i++ {
					pos := shard[order[(b*cfg.BatchSize+i)%len(shard)]]
					f, loss, n := t.trainExample(params, pos, sampler, entG, relG, negBuf)
					flops += f
					lossSum += loss
					lossN += n
				}
			}
			// Drop numerically-zero rows (saturated triples contribute
			// vanishing gradients as training converges — Figure 2).
			flops += dropZeroRows(entG, &dropBuf)
			flops += dropZeroRows(relG, &dropBuf)
			nnzSum += float64(entG.Len())

			// Random selection of gradient vectors (§4.2) applies to the
			// communicated matrices; relation gradients under RP stay
			// local and full precision (§4.4).
			if cfg.Select != grad.SelectAll {
				st := grad.Select(entG, cfg.Select, selRng)
				selBefore += st.Before
				selDropped += st.Dropped
				flops += float64(st.Before*t.width) * 2
				if !cfg.RelationPartition {
					st = grad.Select(relG, cfg.Select, selRng)
					selBefore += st.Before
					selDropped += st.Dropped
					flops += float64(st.Before*t.width) * 2
				}
			}
			// Adaptive compression statistics (DESIGN.md §13): the raw
			// post-drop entity gradient feeds the controller before the
			// pipeline's residual/selection touch it.
			flops += x.observe(entG)
			t.cluster.AddCompute(rank, flops)

			entAgg, relAgg, cost, err := x.exchange(entG, relG, mode)
			if err != nil {
				return err
			}

			// Dynamic strategy probe (§4.1): on every ProbeEvery-th epoch,
			// while still in all-reduce, time one all-gather of the same
			// payload and switch permanently if it is cheaper.
			if cfg.Comm == CommDynamic && mode == "allreduce" && !probed && epoch%cfg.ProbeEvery == 0 {
				probed = true
				gCost, err := x.probeAllGather(entG, relG)
				if err != nil {
					return err
				}
				if gCost < cost {
					mode = "allgather"
					if switched == 0 {
						switched = epoch
					}
				}
			}

			// Apply the aggregated gradients with decoupled L2 decay.
			applyFlops := t.applyGrads(entOpt, params.Entity, entAgg, lr)
			applyFlops += t.applyGrads(relOpt, params.Relation, relAgg, lr)
			t.cluster.AddCompute(rank, applyFlops)
		}

		// Adaptive-compression epoch boundary: sum the controller statistics
		// across ranks and evaluate the ladder's decision rule everywhere
		// (identical inputs, identical verdict — DESIGN.md §13). The rung
		// recorded below is the one this epoch's exchanges ran at; a step
		// takes effect from the next epoch.
		ladderLevel := ""
		var gradEntropy float64
		if cfg.Comm == CommDynamicCompress {
			probe, sb, sd, err := x.advanceCompression()
			if err != nil {
				return err
			}
			ladderLevel = probe.Level.String()
			gradEntropy = probe.Entropy
			selBefore += sb
			selDropped += sd
			if probe.Stepped && rank == t.statsRank {
				t.res.CompressionSteps = append(t.res.CompressionSteps, CompressionStep{
					Epoch: epoch + 1, Level: probe.Next.String(),
				})
			}
		}

		// Validation: pairwise ranking accuracy over the rank's validation
		// shard, reduced globally so all ranks share the decision.
		valRng := xrand.New(cfg.Seed).Split(uint64(5000 + epoch)).Split(uint64(rank))
		correct, total := t.localValAccuracy(params, rank, valRng)
		gc, err := c.AllReduceScalar(float64(correct), mpi.OpSum)
		if err != nil {
			return err
		}
		gt, err := c.AllReduceScalar(float64(total), mpi.OpSum)
		if err != nil {
			return err
		}
		valAcc := 50.0
		if gt > 0 {
			valAcc = 100 * gc / gt
		}

		// Epoch-end timestamp and per-epoch record.
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == t.statsRank {
			now := t.cluster.MaxTime()
			st := t.cluster.Stats()
			es := EpochStats{
				Epoch:       epoch,
				Seconds:     now - prevTime,
				CommSeconds: st.CommSeconds - prevStats.CommSeconds,
				CommBytes:   st.BytesMoved - prevStats.BytesMoved,
				ValAccuracy: valAcc,
				Mode:        mode,
				Level:       ladderLevel,
				GradEntropy: gradEntropy,
				LR:          plateau.LR(),
			}
			if t.batchesPerEpoch > 0 {
				es.NonZeroGradRows = nnzSum / float64(t.batchesPerEpoch)
			}
			if lossN > 0 {
				es.TrainLoss = lossSum / float64(lossN)
			}
			if selBefore > 0 {
				es.Sparsity = float64(selDropped) / float64(selBefore)
			}
			t.res.PerEpoch = append(t.res.PerEpoch, es)
			t.res.Epochs = epoch
			t.res.SwitchedAtEpoch = switched
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		if cfg.TrackEpochStats {
			// Rank 0 computes the real validation TCA on the merged model
			// while the others hold at the barrier (evaluation cost is
			// excluded from the virtual clock; see EXPERIMENTS.md).
			if rank == 0 {
				merged := mergeParams(t.m, t.perRank, t.relOwner)
				t.res.PerEpoch[len(t.res.PerEpoch)-1].ValTCA =
					validationTCA(t.m, merged, t.d, cfg.ValSample, cfg.Seed+uint64(epoch))
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}

		if cfg.CheckpointEvery > 0 && epoch%cfg.CheckpointEvery == 0 {
			if err := t.checkpointEpoch(c, epoch); err != nil {
				return err
			}
		}

		plateau.Observe(valAcc)
		if valAcc > best+1e-12 {
			best = valAcc
			sinceBest = 0
		} else {
			sinceBest++
		}
		if sinceBest >= cfg.StopPatience {
			break
		}
	}
	return nil
}

// checkpointEpoch takes the coordinated snapshot: rank 0 merges the replicas
// into the recovery point (and persists it crash-safely when CheckpointPath
// is set) while the other ranks hold at barriers; the snapshot's virtual
// cost is charged to the shared clock under the "checkpoint" tag. A disk
// write error is shared through t.ckptErr so every rank stops after the
// closing barrier — a lone returning rank would leave its peers blocked at
// the next collective.
func (t *trainRun) checkpointEpoch(c *mpi.Comm, epoch int) error {
	if t.proc {
		return t.checkpointEpochProc(c, epoch)
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		merged := mergeParams(t.m, t.perRank, t.relOwner)
		t.snap.epoch = epoch
		t.snap.params = merged
		t.rec.Checkpoints++
		t.ckptErr = nil
		if t.cfg.CheckpointPath != "" {
			t.ckptErr = model.SaveCheckpoint(t.cfg.CheckpointPath, t.m, merged)
		}
		// Charge the snapshot: the merged model ships to stable storage.
		bytes := int64(4 * (len(merged.Entity.Data) + len(merged.Relation.Data)))
		cost, _, _ := t.cluster.PointToPointCost(bytes)
		t.cluster.Collective(cost, bytes, int64(c.Size()), tagCheckpoint)
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if t.ckptErr == nil {
		return nil
	}
	if c.Rank() == 0 {
		return fmt.Errorf("core: checkpoint at epoch %d: %w", epoch, t.ckptErr)
	}
	return fmt.Errorf("core: checkpoint at epoch %d failed on rank 0", epoch)
}

// trainExample processes one positive triple and its negatives under the
// configured objective and sampling scheme. It returns the flops spent, the
// summed per-example loss, and the number of loss terms contributing (so the
// caller can track a mean training loss per epoch).
func (t *trainRun) trainExample(p *model.Params, pos kg.Triple, sampler *model.NegSampler, entG, relG *grad.SparseGrad, negBuf []kg.Triple) (flops, lossSum float64, lossN int) {
	cfg := t.cfg
	var negs []kg.Triple
	if cfg.NegSelect {
		neg, extra := model.SelectHardest(t.m, p, sampler, pos, cfg.NegSamples, negBuf)
		flops += float64(extra) * t.m.ScoreFlops()
		negs = append(negBuf[:0], neg)
	} else {
		negs = sampler.CorruptN(pos, cfg.NegSamples, negBuf)
	}
	if cfg.LossName == "margin" {
		// Pairwise margin ranking: L = max(0, gamma - s(pos) + s(neg)).
		sPos := t.m.Score(p, pos)
		flops += t.m.ScoreFlops()
		for _, neg := range negs {
			sNeg := t.m.Score(p, neg)
			flops += t.m.ScoreFlops()
			if hinge := float32(cfg.Margin) - sPos + sNeg; hinge > 0 {
				lossSum += float64(hinge)
				t.m.AccumulateScoreGrad(p, pos, -1, entG.Row(pos.H), relG.Row(pos.R), entG.Row(pos.T))
				t.m.AccumulateScoreGrad(p, neg, 1, entG.Row(neg.H), relG.Row(neg.R), entG.Row(neg.T))
				flops += 2 * t.m.GradFlops()
			}
			lossN++
		}
		return flops, lossSum, lossN
	}
	f, l := t.accumulateTriple(p, pos, 1, entG, relG)
	flops += f
	lossSum += l
	lossN++
	for _, neg := range negs {
		f, l = t.accumulateTriple(p, neg, -1, entG, relG)
		flops += f
		lossSum += l
		lossN++
	}
	return flops, lossSum, lossN
}

// accumulateTriple adds the loss gradient of one labeled triple into the
// sparse gradients and returns the flops spent plus the triple's loss value.
func (t *trainRun) accumulateTriple(p *model.Params, tr kg.Triple, y float32, entG, relG *grad.SparseGrad) (float64, float64) {
	score := t.m.Score(p, tr)
	coef := model.LogisticLossGrad(score, y)
	t.m.AccumulateScoreGrad(p, tr, coef, entG.Row(tr.H), relG.Row(tr.R), entG.Row(tr.T))
	return t.m.ScoreFlops() + t.m.GradFlops(), float64(model.LogisticLoss(score, y))
}

// dropZeroRows removes rows with negligible norm, returning the flops spent
// scanning. scratch is the calling worker's reusable id buffer (rows cannot
// be dropped while iterating, so candidates are collected first); its grown
// capacity is handed back through the pointer.
func dropZeroRows(g *grad.SparseGrad, scratch *[]int32) float64 {
	drop := (*scratch)[:0]
	g.ForEach(func(id int32, row []float32) {
		if tensor.Nrm2(row) <= zeroRowEps {
			drop = append(drop, id)
		}
	})
	for _, id := range drop {
		g.Drop(id)
	}
	*scratch = drop
	return float64(g.Len()+len(drop)) * float64(g.Width()) * 2
}

// applyGrads feeds aggregated rows to the optimizer with decoupled L2 decay
// and returns the flops spent.
func (t *trainRun) applyGrads(o opt.Optimizer, mat *tensor.Matrix, agg *grad.SparseGrad, lr float32) float64 {
	if agg.Len() == 0 {
		return 0
	}
	o.BeginStep()
	decay := 1 - 2*float32(t.cfg.L2)*lr
	agg.ForEach(func(id int32, row []float32) {
		pr := mat.Row(int(id))
		o.ApplyRow(id, pr, row, lr)
		if t.cfg.L2 > 0 {
			tensor.Scale(decay, pr)
		}
	})
	return float64(agg.Len()*t.width) * 12
}

// localValAccuracy scores the rank's validation shard: a positive counts as
// correct when it outscores a fresh corruption.
func (t *trainRun) localValAccuracy(p *model.Params, rank int, rng *xrand.RNG) (correct, total int) {
	shard := t.valShards[rank]
	n := len(shard)
	if t.perRankValCap > 0 && n > t.perRankValCap {
		n = t.perRankValCap
	}
	sampler := model.NewNegSampler(t.d.NumEntities, rng)
	for i := 0; i < n; i++ {
		tr := shard[i]
		neg := sampler.Corrupt(tr)
		if t.m.Score(p, tr) > t.m.Score(p, neg) {
			correct++
		}
		total++
	}
	return correct, total
}

// mergeParams builds a single evaluation model from the replicas: entities
// are identical everywhere; relation rows under RP are taken from their
// owning rank (unowned relations keep their shared initialization).
func mergeParams(m model.Model, perRank []*model.Params, relOwner []int) *model.Params {
	merged := perRank[0].Clone()
	if relOwner == nil {
		return merged
	}
	for rel, owner := range relOwner {
		if owner > 0 {
			copy(merged.Relation.Row(rel), perRank[owner].Relation.Row(rel))
		}
	}
	return merged
}

// validationTCA computes triple-classification accuracy on the validation
// split (thresholds fit on one half, accuracy measured on the other),
// subsampled to at most sample triples.
func validationTCA(m model.Model, p *model.Params, d *kg.Dataset, sample int, seed uint64) float64 {
	rng := xrand.New(seed)
	valid := d.Valid
	if sample > 0 && len(valid) > sample {
		perm := rng.Perm(len(valid))
		sub := make([]kg.Triple, sample)
		for i := range sub {
			sub[i] = valid[perm[i]]
		}
		valid = sub
	}
	if len(valid) < 4 {
		return 0
	}
	half := len(valid) / 2
	tmp := &kg.Dataset{
		Name:         d.Name,
		NumEntities:  d.NumEntities,
		NumRelations: d.NumRelations,
		Train:        d.Train,
		Valid:        valid[:half],
		Test:         valid[half:],
	}
	f := kg.NewFilterIndex(d)
	return eval.TripleClassification(m, p, tmp, f, rng).Accuracy
}
