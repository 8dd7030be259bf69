package core

// Multi-process training: TrainProcess is Train for a job where every rank
// is a real OS process reaching its peers through a transport endpoint
// (in practice tcptransport over a cluster of kgetrain invocations). It
// shares Train's prologue, epoch loop and epilogue; only the attempt loop
// around them differs.
//
// The determinism contract carries over from the channel world: every
// process derives the partition, the initialization and all randomness from
// (Config, dataset, world size) alone, and charges identical virtual costs
// to its own private simnet cluster, so epoch-level loss/accuracy
// trajectories — and the coordinator's recorded curves — are identical to
// the same seeded in-process run. The one divergence is bookkeeping: a
// replicated run's checkpoint and final merge must physically gather
// relation rows from their owners (the replicas live in different address
// spaces), which moves real bytes and virtual time the channel world's
// shared-memory merge does not.
//
// Failure handling is the same shrink-and-continue loop as Train, driven by
// the same *mpi.RankFailedError — except the errors now come from real
// sockets (EOF, resets, heartbeat silence) instead of a fault plan. Three
// differences are forced by process reality: a process the survivors
// declared dead cannot rejoin (it exits with an error instead), each
// process holds its own snapshot, so the survivors agree on one before
// resuming (agreeSnapshot), and there is no graceful degradation to a
// single fresh node once MaxRecoveries is exhausted — surviving processes
// cannot absorb each other, so the job fails loudly and is restarted from
// the last checkpoint.

import (
	"errors"
	"fmt"

	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
	"kgedist/internal/transport"
)

// TrainProcess runs this process's rank of a multi-process training job over
// the endpoint's fabric. It consumes the endpoint: the world (and with it
// the endpoint, or its post-shrink successor) is closed before returning.
func TrainProcess(cfg Config, d *kg.Dataset, ep transport.Endpoint) (res *Result, err error) {
	if cfg.FaultPlan != nil {
		return nil, fmt.Errorf("core: simulated fault plans drive the in-process world; over a real transport faults come from the sockets themselves")
	}
	if cfg.TrackEpochStats {
		return nil, fmt.Errorf("core: TrackEpochStats needs every replica in one address space; it is not available in process mode")
	}
	cluster := simnet.NewCluster(ep.Size(), simnet.XC40Params())
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
	m, snap, res, err := prepare(&cfg, d, ep.Size())
	if err != nil {
		return nil, err
	}

	var rec RecoveryStats
	for {
		run, err := newTrainRun(&cfg, d, m, world, res, snap, &rec)
		if err != nil {
			return nil, err
		}
		if err = world.RunErr(run.worker); err == nil {
			// Every process evaluates the same gathered model, so every
			// process reports the same numbers.
			return run.finish(world.Size())
		}
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) || !cfg.Recover {
			return nil, err
		}
		myRank := world.LocalRanks()[0]
		for _, r := range rf.Ranks {
			if r == myRank {
				return nil, fmt.Errorf("core: this process (rank %d) was declared dead by its peers; it cannot rejoin the job: %w", myRank, err)
			}
		}

		// ---- Shrink-and-continue over the real fabric ----
		if rec.Recoveries+1 > cfg.MaxRecoveries && world.Size()-len(rf.Ranks) > 1 {
			// The channel world degrades to one fresh fault-free node here;
			// real processes cannot be collapsed into each other.
			return nil, fmt.Errorf("core: %d recoveries exhausted MaxRecoveries=%d; restart the job from the checkpoint: %w",
				rec.Recoveries+1, cfg.MaxRecoveries, err)
		}
		shrunk, serr := world.Shrink(rf.Ranks)
		if serr != nil {
			return nil, errors.Join(err, serr)
		}
		world = shrunk
		if aerr := agreeSnapshot(world, snap); aerr != nil {
			return nil, errors.Join(err, aerr)
		}
		rollback(res, &rec, snap.epoch, len(rf.Ranks))
		chargeRecovery(&cfg, cluster, &rec, snap, world.Size())
	}
}

// agreeSnapshot makes the survivors resume from one snapshot. A rank that
// dies inside a checkpoint's gather can leave it complete on some
// survivors and not on others, so they hold adjacent checkpoints (a gather
// needs every rank, so never further apart). Each process kept the
// checkpoint before its latest; all fall back to the oldest one held.
func agreeSnapshot(world *mpi.World, snap *snapshot) error {
	return world.RunErr(func(c *mpi.Comm) error {
		oldest, err := c.AllReduceScalar(float64(snap.epoch), mpi.OpMin)
		if err != nil {
			return err
		}
		if int(oldest) == snap.epoch {
			return nil
		}
		if snap.prev == nil || snap.prev.epoch != int(oldest) {
			return fmt.Errorf("core: survivors resume from epoch %d, but this process holds no snapshot of it", int(oldest))
		}
		*snap = *snap.prev
		return nil
	})
}

// procMergedParams builds the merged evaluation/checkpoint model in a
// process world from this process's replica: entities are replicated
// (identical everywhere), and under relation partitioning each process
// contributes the relation rows it owns through an all-gather. Unowned
// relations keep the shared initialization, exactly as mergeParams does in
// shared memory.
func procMergedParams(c *mpi.Comm, params *model.Params, relOwner []int) (*model.Params, error) {
	merged := params.Clone()
	if relOwner == nil {
		return merged, nil
	}
	width := params.Relation.Cols
	var idx []int32
	for rel, owner := range relOwner {
		if owner == c.Rank() {
			idx = append(idx, int32(rel))
		}
	}
	vals := make([]float32, len(idx)*width)
	for k, rel := range idx {
		copy(vals[k*width:(k+1)*width], params.Relation.Row(int(rel)))
	}
	allIdx, allVals, _, err := c.AllGatherRows(idx, vals, tagCheckpoint)
	if err != nil {
		return nil, err
	}
	for r := range allIdx {
		for k, rel := range allIdx[r] {
			copy(merged.Relation.Row(int(rel)), allVals[r][k*width:(k+1)*width])
		}
	}
	return merged, nil
}
