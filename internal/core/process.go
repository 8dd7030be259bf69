package core

// Multi-process training: TrainProcess is Train for a job where every rank
// is a real OS process reaching its peers through a transport endpoint
// (in practice tcptransport over a cluster of kgetrain invocations).
//
// The determinism contract carries over from the channel world: every
// process derives the partition, the initialization and all randomness from
// (Config, dataset, world size) alone, and charges identical virtual costs
// to its own private simnet cluster, so epoch-level loss/accuracy
// trajectories — and the coordinator's recorded curves — are identical to
// the same seeded in-process run. The one divergence is bookkeeping: the
// checkpoint merge must physically gather relation rows from their owners
// (the replicas live in different address spaces), which moves real bytes
// and virtual time the channel world's shared-memory merge does not.
//
// Failure handling is the same shrink-and-continue loop as Train, driven by
// the same *mpi.RankFailedError — except the errors now come from real
// sockets (EOF, resets, heartbeat silence) instead of a fault plan. Two
// differences are forced by process reality: a process the survivors
// declared dead cannot rejoin (it exits with an error instead), and there
// is no graceful degradation to a single fresh node once MaxRecoveries is
// exhausted — surviving processes cannot absorb each other, so the job
// fails loudly and is restarted from the last checkpoint.

import (
	"errors"
	"fmt"
	"math"

	"kgedist/internal/eval"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
	"kgedist/internal/transport"
	"kgedist/internal/xrand"
)

// TrainProcess runs this process's rank of a multi-process training job over
// the endpoint's fabric. It consumes the endpoint: the world (and with it
// the endpoint, or its post-shrink successor) is closed before returning.
func TrainProcess(cfg Config, d *kg.Dataset, ep transport.Endpoint) (res *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.FaultPlan != nil {
		return nil, fmt.Errorf("core: simulated fault plans drive the in-process world; over a real transport faults come from the sockets themselves")
	}
	if cfg.TrackEpochStats {
		return nil, fmt.Errorf("core: TrackEpochStats needs every replica in one address space; it is not available in process mode")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Train) == 0 {
		return nil, fmt.Errorf("core: empty training split")
	}

	m := model.New(cfg.ModelName, cfg.Dim)
	width := m.Width()
	nodes := ep.Size()

	cluster := simnet.NewCluster(nodes, simnet.XC40Params())
	world, err := mpi.NewProcessWorld(cluster, ep)
	if err != nil {
		return nil, err
	}
	// A failed close is a failed departure: the bye frame never reached the
	// peers, so they will diagnose this rank as crashed. Surface that rather
	// than report a clean finish.
	defer func() {
		if cerr := world.Close(); cerr != nil && err == nil {
			res, err = nil, fmt.Errorf("core: closing transport world: %w", cerr)
		}
	}()

	var proto *model.Params
	if cfg.WarmStart != nil {
		if cfg.WarmStart.Entity.Rows != d.NumEntities ||
			cfg.WarmStart.Relation.Rows != d.NumRelations ||
			cfg.WarmStart.Entity.Cols != width {
			return nil, fmt.Errorf("core: WarmStart shape (%dx%d entities, %d relations) does not match dataset/model (%dx%d, %d)",
				cfg.WarmStart.Entity.Rows, cfg.WarmStart.Entity.Cols, cfg.WarmStart.Relation.Rows,
				d.NumEntities, width, d.NumRelations)
		}
		proto = cfg.WarmStart.Clone()
	} else {
		proto = model.NewParams(m, d.NumEntities, d.NumRelations)
		proto.Init(m, xrand.New(cfg.Seed).Split(0))
	}

	res = &Result{Strategy: cfg.StrategyLabel(), Nodes: nodes}
	snap := &snapshot{epoch: 0, params: proto}
	var rec RecoveryStats

	var run *trainRun
	for {
		myRank := world.LocalRanks()[0]
		pt, perr := buildPartition(&cfg, d, world.Size())
		if perr != nil {
			return nil, perr
		}
		perRank := make([]*model.Params, world.Size())
		if !cfg.Partitioned {
			perRank[myRank] = snap.params.Clone()
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
			proc:            true,
			statsRank:       myRank,
		}
		err := world.RunErr(run.worker)
		if err == nil {
			break
		}
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) || !cfg.Recover {
			return nil, err
		}
		for _, r := range rf.Ranks {
			if r == myRank {
				return nil, fmt.Errorf("core: this process (rank %d) was declared dead by its peers; it cannot rejoin the job: %w", myRank, err)
			}
		}

		// ---- Shrink-and-continue over the real fabric ----
		rollback(res, &rec, snap.epoch, len(rf.Ranks))

		if rec.Recoveries > cfg.MaxRecoveries && world.Size()-len(rf.Ranks) > 1 {
			// The channel world degrades to one fresh fault-free node here;
			// real processes cannot be collapsed into each other.
			return nil, fmt.Errorf("core: %d recoveries exhausted MaxRecoveries=%d; restart the job from the checkpoint: %w",
				rec.Recoveries, cfg.MaxRecoveries, err)
		}
		shrunk, serr := world.Shrink(rf.Ranks)
		if serr != nil {
			return nil, errors.Join(err, serr)
		}
		world = shrunk

		// Charge the recovery to the virtual clock — every surviving process
		// executes this identically against its private cluster, so clocks
		// stay in lockstep through the failure.
		bytes := int64(4 * (len(snap.params.Entity.Data) + len(snap.params.Relation.Data)))
		reload, _, _ := cluster.PointToPointCost(bytes)
		cost := cfg.RecoveryBackoff*math.Pow(2, float64(rec.Recoveries-1)) + reload*float64(world.Size())
		cluster.Collective(cost, bytes*int64(world.Size()), int64(world.Size()), tagRecovery)
		rec.RecoverySeconds += cost
	}

	rec.FinalNodes = world.Size()
	res.Recovery = rec

	// ---- Final evaluation ----
	// Each process gathers the owned relation rows and evaluates the merged
	// model locally; the inputs are identical everywhere, so every process
	// reports the same numbers.
	var merged *model.Params
	if cfg.Partitioned {
		// Partitioned workers end with the collective shard gather; every
		// process is its own stats rank, so each already holds the model.
		merged = run.partFinal
		if merged == nil {
			return nil, fmt.Errorf("core: partitioned run finished without publishing the merged model")
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
	} else if err := world.RunErr(func(c *mpi.Comm) error {
		var merr error
		merged, merr = run.procMergedParams(c)
		return merr
	}); err != nil {
		return nil, fmt.Errorf("core: merging final model across processes: %w", err)
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
	return res, nil
}

// procMergedParams builds the merged evaluation/checkpoint model in a
// process world: entities are replicated (identical everywhere), and under
// relation partitioning each process contributes the relation rows it owns
// through an all-gather. Unowned relations keep the shared initialization,
// exactly as mergeParams does in shared memory.
func (t *trainRun) procMergedParams(c *mpi.Comm) (*model.Params, error) {
	params := t.perRank[c.Rank()]
	merged := params.Clone()
	if t.relOwner == nil {
		return merged, nil
	}
	var idx []int32
	for rel, owner := range t.relOwner {
		if owner == c.Rank() {
			idx = append(idx, int32(rel))
		}
	}
	vals := make([]float32, len(idx)*t.width)
	for k, rel := range idx {
		copy(vals[k*t.width:(k+1)*t.width], params.Relation.Row(int(rel)))
	}
	allIdx, allVals, _, err := c.AllGatherRows(idx, vals, tagCheckpoint)
	if err != nil {
		return nil, err
	}
	for r := range allIdx {
		for k, rel := range allIdx[r] {
			copy(merged.Relation.Row(int(rel)), allVals[r][k*t.width:(k+1)*t.width])
		}
	}
	return merged, nil
}

// checkpointEpochProc is checkpointEpoch for process worlds: the merge is a
// collective (relation owners gather their rows), every process keeps the
// identical snapshot locally as its warm-start point, rank 0 persists to
// disk, and the disk verdict is shared through a max-reduction so every
// process stops together on a write failure.
func (t *trainRun) checkpointEpochProc(c *mpi.Comm, epoch int) error {
	merged, err := t.procMergedParams(c)
	if err != nil {
		return err
	}
	t.snap.epoch = epoch
	t.snap.params = merged
	t.rec.Checkpoints++
	var flag float64
	if c.Rank() == 0 {
		t.ckptErr = nil
		if t.cfg.CheckpointPath != "" {
			t.ckptErr = model.SaveCheckpoint(t.cfg.CheckpointPath, t.m, merged)
		}
		if t.ckptErr != nil {
			flag = 1
		}
	}
	// Charge the snapshot identically on every process's private cluster.
	bytes := int64(4 * (len(merged.Entity.Data) + len(merged.Relation.Data)))
	cost, _, _ := t.cluster.PointToPointCost(bytes)
	t.cluster.Collective(cost, bytes, int64(c.Size()), tagCheckpoint)
	verdict, err := c.AllReduceScalar(flag, mpi.OpMax)
	if err != nil {
		return err
	}
	if verdict == 0 {
		return nil
	}
	if c.Rank() == 0 {
		return fmt.Errorf("core: checkpoint at epoch %d: %w", epoch, t.ckptErr)
	}
	return fmt.Errorf("core: checkpoint at epoch %d failed on rank 0", epoch)
}
