package core

// Partitioned-table training: instead of replicating the full embedding
// tables on every rank, a partition.Plan assigns each entity row and
// relation row exactly one owner, and each rank's table is a shard: only
// its owned rows, plus a batch cache of the remote rows it pulls. The one
// epoch loop (trainRun.worker) drives a shard exactly as it drives a
// replica; the shard's side of each batch is a two-phase row exchange:
//
//	pull — broadcast the batch's wanted remote row ids (all-gather of an id
//	       payload), owners reply with the row values (all-gather of sparse
//	       rows); the rank caches them for the batch.
//	push — gradient rows for remote-owned rows are all-gathered back; each
//	       owner folds in the contributions addressed to it, averages by
//	       1/P, and applies them with its own optimizer state.
//
// Both phases are plain mpi collectives, so the mode runs unchanged on the
// channel world and the process/TCP world. Its checkpoint and final model
// come from one collective gather of every shard in both worlds, so the two
// worlds' virtual clocks and trajectories stay bit-identical even through
// snapshots. Recovery reuses the generic shrink-and-continue loop: the plan
// is a pure function of (Config, dataset, world size), so survivors
// re-partition deterministically and warm-start their new shards from the
// snapshot.

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	part "kgedist/internal/partition"
	"kgedist/internal/tensor"
)

// shard is one rank's slice of the embedding tables: the rows it owns under
// the plan, stored densely in ascending-uid order with their optimizer
// state, plus the row exchange's scratch. len(uids) rows instead of the full
// NumEntities+NumRelations is the whole memory claim of partitioned mode.
// All scratch (request decode buffer, the remote-row cache, the
// response/push/aggregate SparseGrads, the touch stamps) is reused across
// batches; the only fresh allocations are the wire payloads, whose
// ownership the all-gather contract transfers to the world.
type shard struct {
	plan  *part.Plan
	comm  *mpi.Comm
	width int
	uids  []int32        // local index -> unified row id, ascending
	local []int32        // unified row id -> local index, -1 if unowned
	rows  *tensor.Matrix // owned rows, indexed by local index
	// opt is one optimizer over the owned rows, indexed by local row id;
	// Adam moments per owned row exactly match the replicated per-table
	// split.
	opt opt.Optimizer

	cache *grad.SparseGrad // pulled remote rows, keyed by uid; valid for one batch
	resp  *grad.SparseGrad // owned rows staged for peers' requests
	pushG *grad.SparseGrad // gradient rows leaving for their owners
	agg   *grad.SparseGrad // aggregated gradients for rows this rank owns

	stamp   []int32 // batch stamp per unified row id, for unique-touch counting
	gen     int32
	nLocal  int // unique owned rows touched this batch
	nRemote int // unique remote rows touched (= pulled) this batch

	reqBuf  []int32 // DecodeIDs scratch
	moveBuf []int32 // owned/remote split scratch in stage
}

// newShard materializes the comm rank's shard, warm-starting every owned
// row from the full snapshot params (the scatter half of the shard-aware
// checkpoint protocol; the gather half is shard.gather).
func newShard(plan *part.Plan, c *mpi.Comm, width int, optimizer string, src *model.Params) *shard {
	uids := plan.OwnedUIDs(c.Rank())
	s := &shard{
		plan:  plan,
		comm:  c,
		width: width,
		uids:  uids,
		local: make([]int32, plan.Rows()),
		rows:  tensor.NewMatrix(len(uids), width),
		opt:   opt.NewByName(optimizer, len(uids), width),
		cache: grad.NewSparseGrad(width),
		resp:  grad.NewSparseGrad(width),
		pushG: grad.NewSparseGrad(width),
		agg:   grad.NewSparseGrad(width),
		stamp: make([]int32, plan.Rows()),
	}
	for i := range s.local {
		s.local[i] = -1
	}
	for li, uid := range uids {
		s.local[uid] = int32(li)
		copy(s.rows.Row(li), snapshotRow(src, plan, uid))
	}
	return s
}

// snapshotRow resolves a unified row id inside full params.
func snapshotRow(p *model.Params, plan *part.Plan, uid int32) []float32 {
	if plan.IsRelationUID(uid) {
		return p.Relation.Row(int(uid) - plan.NumEntities)
	}
	return p.Entity.Row(int(uid))
}

// owns reports whether this rank holds the row.
func (s *shard) owns(uid int32) bool { return s.local[uid] >= 0 }

// need marks the three rows a triple touches, materializing want-list
// entries for the remote ones.
//
//kgelint:hotpath
func (s *shard) need(t kg.Triple) {
	s.needRow(t.H)
	s.needRow(s.plan.RelationUID(t.R))
	s.needRow(t.T)
}

func (s *shard) needRow(uid int32) {
	if s.stamp[uid] == s.gen {
		return
	}
	s.stamp[uid] = s.gen
	if s.owns(uid) {
		s.nLocal++
		return
	}
	s.nRemote++
	s.cache.Row(uid) // zero row = want-list entry, overwritten by pull
}

// row resolves a unified row id against the owned rows or the batch cache.
// Every uid reaching here was announced via need before the pull.
func (s *shard) row(uid int32) []float32 {
	if s.owns(uid) {
		return s.rows.Row(int(s.local[uid]))
	}
	r, ok := s.cache.Get(uid)
	if !ok {
		panic(fmt.Sprintf("core: row %d used without need() before the pull", uid))
	}
	return r
}

// pull executes the batch's remote-row fetch: all ranks broadcast their
// want lists, owners stage the requested rows, and one sparse-row
// all-gather delivers them.
//
//kgelint:hotpath
func (s *shard) pull() error {
	payload := part.EncodeIDs(s.cache.Indices())
	reqs, _, err := s.comm.AllGatherBytes(payload, tagPull)
	if err != nil {
		return err
	}
	me := s.comm.Rank()
	s.resp.Clear()
	for src := range reqs {
		if src == me {
			continue // own wants are by construction not owned here
		}
		ids, derr := part.DecodeIDs(s.reqBuf, reqs[src])
		if derr != nil {
			panic(fmt.Sprintf("core: corrupt row-request payload: %v", derr))
		}
		s.reqBuf = ids
		for _, uid := range ids {
			if s.owns(uid) {
				copy(s.resp.Row(uid), s.row(uid))
			}
		}
	}
	idx, flat := s.resp.Flatten()
	allIdx, allVals, _, err := s.comm.AllGatherRows(idx, flat, tagPull)
	if err != nil {
		return err
	}
	w := s.width
	for src := range allIdx {
		if src == me {
			continue
		}
		vals := allVals[src]
		for k, uid := range allIdx[src] {
			if row, ok := s.cache.Get(uid); ok {
				copy(row, vals[k*w:(k+1)*w])
			}
		}
	}
	return nil
}

// stage moves the rows of g that another rank owns into the push buffer
// and returns it: those rows, and only those, go on the wire.
func (s *shard) stage(g *grad.SparseGrad) *grad.SparseGrad {
	s.moveBuf = s.moveBuf[:0]
	g.ForEach(func(uid int32, _ []float32) {
		if !s.owns(uid) {
			s.moveBuf = append(s.moveBuf, uid)
		}
	})
	s.pushG.Clear()
	for _, uid := range s.moveBuf {
		row, _ := g.Get(uid)
		copy(s.pushG.Row(uid), row)
		g.Drop(uid)
	}
	return s.pushG
}

// push returns the staged gradient rows to their owners: one all-gather
// delivers them, and every rank folds the contributions addressed to it
// into s.agg in ascending source order (its own rows, left in g by stage,
// at its own position), then averages by 1/P. The returned aggregate is
// valid until the next push.
//
//kgelint:hotpath
func (s *shard) push(g *grad.SparseGrad) (*grad.SparseGrad, float64, error) {
	idx, flat := s.pushG.Flatten()
	allIdx, allVals, cost, err := s.comm.AllGatherRows(idx, flat, tagPush)
	if err != nil {
		return nil, 0, err
	}
	me := s.comm.Rank()
	w := s.width
	s.agg.Clear()
	for src := range allIdx {
		if src == me {
			// Own batch's contribution to own rows; own wire payload holds
			// only remote-owned rows, so nothing is double counted.
			g.ForEach(func(uid int32, row []float32) {
				tensor.Add(row, s.agg.Row(uid))
			})
			continue
		}
		vals := allVals[src]
		for k, uid := range allIdx[src] {
			if s.owns(uid) {
				tensor.Add(vals[k*w:(k+1)*w], s.agg.Row(uid))
			}
		}
	}
	scaleRows(s.agg, s.comm.Size())
	return s.agg, cost, nil
}

// gather is the gather half of the shard-aware checkpoint: every rank
// contributes its owned rows through one sparse-row all-gather (each row has
// exactly one owner, so coverage is exact, not averaged), and the stats
// rank assembles the full model. Other ranks return nil — in a channel
// world only rank 0 needs the assembly; in a process world every process is
// its own stats rank and keeps its own copy.
func (s *shard) gather(t *trainRun, c *mpi.Comm) (*model.Params, error) {
	// Fresh copies: the all-gather contract takes ownership of the payload,
	// and s.uids / s.rows.Data stay live in the shard.
	idx := append([]int32(nil), s.uids...)
	vals := append([]float32(nil), s.rows.Data...)
	allIdx, allVals, _, err := c.AllGatherRows(idx, vals, tagCheckpoint)
	if err != nil {
		return nil, err
	}
	if c.Rank() != t.statsRank {
		return nil, nil
	}
	merged := model.NewParams(t.m, t.d.NumEntities, t.d.NumRelations)
	w := s.width
	for src := range allIdx {
		for k, uid := range allIdx[src] {
			copy(snapshotRow(merged, s.plan, uid), allVals[src][k*w:(k+1)*w])
		}
	}
	return merged, nil
}
