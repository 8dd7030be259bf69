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
	// prev is the recovery point this one replaced, kept by process worlds
	// only (agreeSnapshot).
	prev *snapshot
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

// prepare is the prologue Train and TrainProcess share: it validates the
// job, builds the model, opens the result, and takes the epoch-0 snapshot
// every attempt starts from — the WarmStart parameters or the seeded
// initialization.
func prepare(cfg *Config, d *kg.Dataset, nodes int) (model.Model, *snapshot, *Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(d.Train) == 0 {
		return nil, nil, nil, fmt.Errorf("core: empty training split")
	}
	m := model.New(cfg.ModelName, cfg.Dim)
	res := &Result{Strategy: cfg.StrategyLabel(), Nodes: nodes}
	if ws := cfg.WarmStart; ws != nil {
		if ws.Entity.Rows != d.NumEntities || ws.Relation.Rows != d.NumRelations || ws.Entity.Cols != m.Width() {
			return nil, nil, nil, fmt.Errorf("core: WarmStart shape (%dx%d entities, %d relations) does not match dataset/model (%dx%d, %d)",
				ws.Entity.Rows, ws.Entity.Cols, ws.Relation.Rows, d.NumEntities, m.Width(), d.NumRelations)
		}
		return m, &snapshot{params: ws.Clone()}, res, nil
	}
	proto := model.NewParams(m, d.NumEntities, d.NumRelations)
	proto.Init(m, xrand.New(cfg.Seed).Split(0))
	return m, &snapshot{params: proto}, res, nil
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
	if nodes < 1 {
		return nil, nil, nil, fmt.Errorf("core: nodes must be >= 1, got %d", nodes)
	}
	m, snap, res, err := prepare(&cfg, d, nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	cluster := simnet.NewCluster(nodes, simnet.XC40Params())
	if cfg.FaultPlan != nil {
		if err := cluster.SetFaultPlan(cfg.FaultPlan); err != nil {
			return nil, nil, nil, err
		}
	}
	world := mpi.NewWorld(cluster)
	var rec RecoveryStats
	for {
		run, err := newTrainRun(&cfg, d, m, world, res, snap, &rec)
		if err != nil {
			return nil, nil, nil, err
		}
		if err = world.RunErr(run.worker); err == nil {
			rec.FaultsInjected = cluster.FaultsInjected()
			res, err := run.finish(world.Size())
			return res, run.perRank, run.relOwner, err
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
		chargeRecovery(&cfg, cluster, &rec, snap, world.Size())
	}
}

// chargeRecovery charges one shrink-and-continue restart to the virtual
// clock: exponential backoff (failure detection and re-coordination) plus
// every survivor reloading the snapshot from stable storage. A process
// world charges it identically on every survivor's private cluster, so the
// clocks stay in lockstep through the failure.
func chargeRecovery(cfg *Config, cluster *simnet.Cluster, rec *RecoveryStats, snap *snapshot, survivors int) {
	bytes := int64(4 * (len(snap.params.Entity.Data) + len(snap.params.Relation.Data)))
	reload, _, _ := cluster.PointToPointCost(bytes)
	cost := cfg.RecoveryBackoff*math.Pow(2, float64(rec.Recoveries-1)) + reload*float64(survivors)
	cluster.Collective(cost, bytes*int64(survivors), int64(survivors), tagRecovery)
	rec.RecoverySeconds += cost
}

// trainRun carries the state shared (read-only, or stats-rank-written
// between collectives) across one attempt's rank goroutines.
type trainRun struct {
	partition
	cfg        *Config
	d          *kg.Dataset
	m          model.Model
	width      int
	cluster    *simnet.Cluster
	perRank    []*model.Params // replicas of this address space's ranks; nil when Partitioned
	res        *Result
	snap       *snapshot
	rec        *RecoveryStats
	startEpoch int // resume point: epochs before this are already done
	// proc marks a process world (one rank in this address space): replicas
	// merge through a collective instead of a shared-memory walk.
	proc bool
	// statsRank is the rank whose goroutine records per-epoch stats into
	// res and publishes final: rank 0 in a channel world, the process's own
	// (sole) rank in a process world — every process then records its own
	// identical copy of the global curves (and its own local loss).
	statsRank int
	final     *model.Params // the trained model, gathered after the last epoch
}

// newTrainRun partitions the data over the world and sets up one attempt.
// The ranks in this address space clone their replicas from the snapshot
// here; Partitioned ranks never hold replicas — that is the memory claim —
// and build their shards from the snapshot in the worker instead.
func newTrainRun(cfg *Config, d *kg.Dataset, m model.Model, world *mpi.World, res *Result, snap *snapshot, rec *RecoveryStats) (*trainRun, error) {
	pt, err := buildPartition(cfg, d, world.Size())
	if err != nil {
		return nil, err
	}
	perRank := make([]*model.Params, world.Size())
	if !cfg.Partitioned {
		for _, r := range world.LocalRanks() {
			perRank[r] = snap.params.Clone()
		}
	}
	return &trainRun{
		partition:  pt,
		cfg:        cfg,
		d:          d,
		m:          m,
		width:      m.Width(),
		cluster:    world.Cluster(),
		perRank:    perRank,
		res:        res,
		snap:       snap,
		rec:        rec,
		startEpoch: snap.epoch,
		proc:       world.Process(),
		statsRank:  world.LocalRanks()[0],
	}, nil
}

// finish is the epilogue Train and TrainProcess share: it evaluates the
// model the run published, and records the partition quality, the recovery
// activity and the cluster's communication totals.
func (t *trainRun) finish(finalNodes int) (*Result, error) {
	res, merged := t.res, t.final
	if merged == nil {
		return nil, fmt.Errorf("core: run finished without publishing the merged model")
	}
	t.rec.FinalNodes = finalNodes
	res.Recovery = *t.rec
	if t.plan != nil {
		q := t.plan.Quality()
		res.Partition = &PartitionStats{
			Algo:              t.plan.Algo,
			Ranks:             t.plan.Ranks,
			CutRatio:          q.CutRatio,
			RemoteRowFraction: q.RemoteRowFraction,
			EntityBalance:     q.EntityBalance,
			RelationBalance:   q.RelationBalance,
			TripleBalance:     q.TripleBalance,
			MaxEntityShard:    q.MaxEntityShard,
		}
	}
	filter := kg.NewFilterIndex(t.d)
	evalRng := xrand.New(t.cfg.Seed + 999)
	lp := eval.LinkPrediction(t.m, merged, t.d, filter, t.cfg.TestSample, evalRng)
	tc := eval.TripleClassification(t.m, merged, t.d, filter, evalRng)
	res.MRR = lp.FilteredMRR
	res.Hits1 = lp.Hits1
	res.Hits3 = lp.Hits3
	res.Hits10 = lp.Hits10
	res.MR = lp.MR
	res.TCA = tc.Accuracy
	res.FinalParams = merged
	st := t.cluster.Stats()
	res.CommBytes = st.BytesMoved
	res.CommHours = st.CommSeconds / 3600
	res.RelationCommBytes = t.cluster.BytesByTag()[tagRelation]
	res.TotalHours = t.cluster.MaxTime() / 3600
	return res, nil
}

// worker is the per-rank training loop of every mode. Each batch draws its
// positives and all their negative candidates first, lets the table pull
// the rows they touch (a no-op for a replica), trains over the table's
// rows, drops numerically-zero gradient rows, selects, exchanges and
// applies. Collective errors (a peer died) are returned, not handled: the
// recovery loop owns shrinking the world and re-running.
func (t *trainRun) worker(c *mpi.Comm) error {
	cfg := t.cfg
	rank := c.Rank()
	shard := t.shards[rank]
	tb := t.newTable(c)
	plateau := opt.NewPlateau(
		opt.ScaledLR(cfg.BaseLR, c.Size(), cfg.LRScaleCap),
		cfg.LRFactor, cfg.MinLR, cfg.Tolerance)

	rng := xrand.New(cfg.Seed).Split(uint64(rank + 1))
	sampler := model.NewNegSampler(t.d.NumEntities, rng.Split(2))
	selRng := rng.Split(3)
	x := newExchanger(cfg, c, t.width, t.d.NumEntities, t.d.NumRelations, rng.Split(4))
	x.rows = tb.sh

	var dropBuf []int32 // dropZeroRows scratch, reused across batches
	batch := make([]kg.Triple, 0, cfg.BatchSize)
	negs := make([]kg.Triple, 0, cfg.BatchSize*cfg.NegSamples)
	order := make([]int, len(shard))
	for i := range order {
		order[i] = i
	}

	mode := "allreduce"
	switch {
	case cfg.Partitioned:
		mode = "rowexchange"
	case cfg.Comm == CommAllGather:
		mode = "allgather"
	case cfg.Comm == CommDynamicCompress:
		mode = "dyncomp" // adaptive ladder pipeline at every rung (DESIGN.md §13)
	}
	switched := 0
	best := -1.0
	sinceBest := 0
	var prevStats simnet.Stats
	var prevTime float64

	for epoch := t.startEpoch + 1; epoch <= cfg.MaxEpochs; epoch++ {
		// Epoch-start timestamp (the stats rank reads between barriers so
		// no rank is mid-charge).
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

		var nnzSum, lossSum float64
		var lossN, selBefore, selDropped, localRefs, remoteRefs int
		probed := false
		lr := float32(plateau.LR())

		for b := 0; b < t.batchesPerEpoch; b++ {
			// Stage the batch. The sampler stream never depends on scores,
			// so drawing every candidate up front yields exactly the
			// triples interleaved sampling would.
			tb.begin()
			batch, negs = batch[:0], negs[:0]
			// Small shards (relation partition can be uneven) are not
			// oversampled: a batch never exceeds the shard size.
			for i := 0; i < min(cfg.BatchSize, len(shard)); i++ {
				pos := shard[order[(b*cfg.BatchSize+i)%len(shard)]]
				batch = append(batch, pos)
				tb.need(pos)
				for k := 0; k < cfg.NegSamples; k++ {
					neg := sampler.Corrupt(pos)
					negs = append(negs, neg)
					tb.need(neg)
				}
			}
			if s := tb.sh; s != nil {
				localRefs += s.nLocal
				remoteRefs += s.nRemote
			}
			if err := tb.pull(); err != nil {
				return err
			}

			var flops float64
			for i, pos := range batch {
				f, loss, n := t.trainExample(tb, pos, negs[i*cfg.NegSamples:(i+1)*cfg.NegSamples])
				flops += f
				lossSum += loss
				lossN += n
			}
			// Drop numerically-zero rows (saturated triples contribute
			// vanishing gradients as training converges — Figure 2).
			flops += dropZeroRows(tb.entG, &dropBuf)
			if tb.relG != nil {
				flops += dropZeroRows(tb.relG, &dropBuf)
			}
			nnzSum += float64(tb.entG.Len())

			// Random selection of gradient vectors (§4.2) applies to the
			// rows that go on the wire.
			wire := tb.wire(cfg.RelationPartition)
			if cfg.Select != grad.SelectAll {
				for _, g := range wire {
					st := grad.Select(g, cfg.Select, selRng)
					selBefore += st.Before
					selDropped += st.Dropped
					flops += float64(st.Before*t.width) * 2
				}
			}
			// Adaptive compression statistics (DESIGN.md §13): the raw
			// post-drop entity gradient feeds the controller before the
			// pipeline's residual/selection touch it.
			flops += x.observe(tb.entG)
			t.cluster.AddCompute(rank, flops)

			entAgg, relAgg, cost, err := x.exchange(tb.entG, tb.relG, mode)
			if err != nil {
				return err
			}

			// Dynamic strategy probe (§4.1): on every ProbeEvery-th epoch,
			// while still in all-reduce, time one all-gather of the same
			// payload and switch permanently if it is cheaper.
			if cfg.Comm == CommDynamic && mode == "allreduce" && !probed && epoch%cfg.ProbeEvery == 0 {
				probed = true
				gCost, err := x.probeAllGather(tb.entG, tb.relG)
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

			t.cluster.AddCompute(rank, tb.apply(cfg, entAgg, relAgg, lr))
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
		correct, total, err := t.valAccuracy(tb, rank, valRng)
		if err != nil {
			return err
		}
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
			if refs := localRefs + remoteRefs; refs > 0 {
				es.RemoteRowFraction = float64(remoteRefs) / float64(refs)
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
				merged := mergeParams(t.perRank, t.relOwner)
				t.res.PerEpoch[len(t.res.PerEpoch)-1].ValTCA =
					validationTCA(t.m, merged, t.d, cfg.ValSample, cfg.Seed+uint64(epoch))
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}

		if cfg.CheckpointEvery > 0 && epoch%cfg.CheckpointEvery == 0 {
			if err := t.checkpoint(c, tb, epoch); err != nil {
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

	// Publish the trained model: the stop decisions above are identical on
	// every rank, so all ranks reach this gather together.
	merged, err := tb.gather(t, c)
	if err != nil {
		return err
	}
	if rank == t.statsRank {
		t.final = merged
	}
	return nil
}

// checkpoint takes the coordinated snapshot. The table gathers the merged
// model, the stats rank records it as the recovery point and charges its
// trip to stable storage under the "checkpoint" tag (once per cluster: the
// shared channel cluster, or each process's private one), rank 0 persists
// it crash-safely when CheckpointPath is set, and a max-reduced verdict
// makes every rank stop together on a write failure — a lone returning rank
// would leave its peers blocked at the next collective.
func (t *trainRun) checkpoint(c *mpi.Comm, tb *table, epoch int) error {
	merged, err := tb.gather(t, c)
	if err != nil {
		return err
	}
	if c.Rank() == t.statsRank {
		if t.proc {
			t.snap.prev = &snapshot{epoch: t.snap.epoch, params: t.snap.params}
		}
		t.snap.epoch = epoch
		t.snap.params = merged
		t.rec.Checkpoints++
		bytes := int64(4 * (len(merged.Entity.Data) + len(merged.Relation.Data)))
		cost, _, _ := t.cluster.PointToPointCost(bytes)
		t.cluster.Collective(cost, bytes, int64(c.Size()), tagCheckpoint)
	}
	var werr error
	var flag float64
	if c.Rank() == 0 && t.cfg.CheckpointPath != "" {
		if werr = model.SaveCheckpoint(t.cfg.CheckpointPath, t.m, merged); werr != nil {
			flag = 1
		}
	}
	verdict, err := c.AllReduceScalar(flag, mpi.OpMax)
	if err != nil {
		return err
	}
	if verdict == 0 {
		return nil
	}
	if werr != nil {
		return fmt.Errorf("core: checkpoint at epoch %d: %w", epoch, werr)
	}
	return fmt.Errorf("core: checkpoint at epoch %d failed on rank 0", epoch)
}

// trainExample processes one positive triple and its pre-drawn negative
// candidates under the configured objective and sampling scheme, scoring
// over the table's rows. It returns the flops spent, the summed
// per-example loss, and the number of loss terms contributing (so the
// caller can track a mean training loss per epoch).
func (t *trainRun) trainExample(tb *table, pos kg.Triple, cands []kg.Triple) (flops, lossSum float64, lossN int) {
	cfg, m := t.cfg, t.m
	negs := cands
	if cfg.NegSelect && len(cands) > 1 {
		// §4.5: train on the hardest candidate, the highest-scoring one
		// (the first wins ties, as in model.SelectHardest).
		bestI, bestS := 0, tb.score(cands[0])
		for i := 1; i < len(cands); i++ {
			if s := tb.score(cands[i]); s > bestS {
				bestI, bestS = i, s
			}
		}
		flops += float64(len(cands)) * m.ScoreFlops()
		negs = cands[bestI : bestI+1]
	}
	if cfg.LossName == "margin" {
		// Pairwise margin ranking: L = max(0, gamma - s(pos) + s(neg)).
		sPos := tb.score(pos)
		flops += m.ScoreFlops()
		for _, neg := range negs {
			sNeg := tb.score(neg)
			flops += m.ScoreFlops()
			if hinge := float32(cfg.Margin) - sPos + sNeg; hinge > 0 {
				lossSum += float64(hinge)
				tb.accumulate(pos, -1)
				tb.accumulate(neg, 1)
				flops += 2 * m.GradFlops()
			}
			lossN++
		}
		return flops, lossSum, lossN
	}
	lossSum = tb.logistic(pos, 1)
	for _, neg := range negs {
		lossSum += tb.logistic(neg, -1)
	}
	lossN = 1 + len(negs)
	return flops + float64(lossN)*(m.ScoreFlops()+m.GradFlops()), lossSum, lossN
}

// valAccuracy scores the rank's validation shard: a positive counts as
// correct when it outscores a fresh corruption. The corruptions are drawn
// first so one pull covers every row a shard scores; every rank pulls, even
// with an empty validation shard — it is a collective.
func (t *trainRun) valAccuracy(tb *table, rank int, rng *xrand.RNG) (correct, total int, err error) {
	val := t.valShards[rank]
	if t.perRankValCap > 0 && len(val) > t.perRankValCap {
		val = val[:t.perRankValCap]
	}
	sampler := model.NewNegSampler(t.d.NumEntities, rng)
	tb.begin()
	negs := tb.valNegs[:0]
	for _, tr := range val {
		neg := sampler.Corrupt(tr)
		negs = append(negs, neg)
		tb.need(tr)
		tb.need(neg)
	}
	tb.valNegs = negs
	if err := tb.pull(); err != nil {
		return 0, 0, err
	}
	for i, tr := range val {
		if tb.score(tr) > tb.score(negs[i]) {
			correct++
		}
	}
	return correct, len(val), nil
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

// mergeParams builds a single evaluation model from the replicas: entities
// are identical everywhere; relation rows under RP are taken from their
// owning rank (unowned relations keep their shared initialization).
func mergeParams(perRank []*model.Params, relOwner []int) *model.Params {
	merged := perRank[0].Clone()
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
