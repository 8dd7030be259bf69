package core

import (
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	"kgedist/internal/tensor"
)

// table is one rank's embedding rows and the gradients over them, in one of
// two layouts. A replica holds both full tables, keys its gradients by
// table id (entG entities, relG relations) and keeps one optimizer per
// table. A shard (Partitioned) holds only the rows the plan assigns the
// rank plus a batch cache of pulled remote rows, keys every gradient row by
// unified row id in entG (relG is nil), and keeps one optimizer over its
// owned rows. need and pull are no-ops for a replica.
type table struct {
	m              model.Model
	params         *model.Params // replica rows; nil for a shard
	sh             *shard        // shard rows; nil for a replica
	entG, relG     *grad.SparseGrad
	entOpt, relOpt opt.Optimizer
	wireBuf        [2]*grad.SparseGrad
	valNegs        []kg.Triple // valAccuracy scratch
}

// newTable builds the rank's table from the attempt's replica, or from the
// snapshot for a shard.
func (t *trainRun) newTable(c *mpi.Comm) *table {
	tb := &table{m: t.m, entG: grad.NewSparseGrad(t.width)}
	if t.plan != nil {
		tb.sh = newShard(t.plan, c, t.width, t.cfg.OptimizerName, t.snap.params)
		return tb
	}
	tb.params = t.perRank[c.Rank()]
	tb.relG = grad.NewSparseGrad(t.width)
	tb.entOpt = opt.NewByName(t.cfg.OptimizerName, t.d.NumEntities, t.width)
	tb.relOpt = opt.NewByName(t.cfg.OptimizerName, t.d.NumRelations, t.width)
	return tb
}

// begin opens a batch: it clears the gradients and forgets the previous
// batch's pulled rows and touch counts.
func (tb *table) begin() {
	tb.entG.Clear()
	if tb.relG != nil {
		tb.relG.Clear()
	}
	if s := tb.sh; s != nil {
		s.gen++
		s.cache.Clear()
		s.nLocal, s.nRemote = 0, 0
	}
}

// need announces a triple the batch will score, so a shard's pull fetches
// its remote rows.
//
//kgelint:hotpath
func (tb *table) need(tr kg.Triple) {
	if tb.sh != nil {
		tb.sh.need(tr)
	}
}

// pull fetches the batch's announced remote rows (a collective for a shard).
func (tb *table) pull() error {
	if tb.sh == nil {
		return nil
	}
	return tb.sh.pull()
}

// rows resolves a triple's embedding rows: from the replica, or from the
// shard's owned rows and the batch's pulled cache.
//
//kgelint:hotpath
func (tb *table) rows(tr kg.Triple) (h, r, t []float32) {
	if s := tb.sh; s != nil {
		return s.row(tr.H), s.row(s.plan.RelationUID(tr.R)), s.row(tr.T)
	}
	p := tb.params
	return p.Entity.Row(int(tr.H)), p.Relation.Row(int(tr.R)), p.Entity.Row(int(tr.T))
}

// gradRows returns a triple's gradient rows, created in H, R, T order.
func (tb *table) gradRows(tr kg.Triple) (gh, gr, gt []float32) {
	if s := tb.sh; s != nil {
		return tb.entG.Row(tr.H), tb.entG.Row(s.plan.RelationUID(tr.R)), tb.entG.Row(tr.T)
	}
	return tb.entG.Row(tr.H), tb.relG.Row(tr.R), tb.entG.Row(tr.T)
}

// score is the model's score of a triple over the table's rows.
func (tb *table) score(tr kg.Triple) float32 {
	h, r, t := tb.rows(tr)
	return tb.m.ScoreRows(h, r, t)
}

// accumulate adds coef * dScore/dRows into the triple's gradient rows.
func (tb *table) accumulate(tr kg.Triple, coef float32) {
	h, r, t := tb.rows(tr)
	gh, gr, gt := tb.gradRows(tr)
	tb.m.AccumulateScoreGradRows(h, r, t, coef, gh, gr, gt)
}

// logistic accumulates the logistic-loss gradient of one labeled triple and
// returns its loss.
func (tb *table) logistic(tr kg.Triple, y float32) float64 {
	s := tb.score(tr)
	tb.accumulate(tr, model.LogisticLossGrad(s, y))
	return float64(model.LogisticLoss(s, y))
}

// wire returns the batch's gradients that go on the wire, the ones random
// selection (§4.2) thins: both replica gradients, or the entity one alone
// under RP, whose relation rows stay rank-private and full precision
// (§4.4); for a shard, the rows owned elsewhere, moved out of entG.
//
//kgelint:hotpath
func (tb *table) wire(relationPartition bool) []*grad.SparseGrad {
	if tb.sh != nil {
		tb.wireBuf[0] = tb.sh.stage(tb.entG)
		return tb.wireBuf[:1]
	}
	tb.wireBuf[0], tb.wireBuf[1] = tb.entG, tb.relG
	if relationPartition {
		return tb.wireBuf[:1]
	}
	return tb.wireBuf[:2]
}

// apply feeds the exchanged aggregates to the table's optimizers with
// decoupled L2 decay and returns the flops spent. A shard's aggregate
// arrives in entAgg keyed by unified id, and its local index addresses both
// the owned row and the optimizer state.
func (tb *table) apply(cfg *Config, entAgg, relAgg *grad.SparseGrad, lr float32) float64 {
	if s := tb.sh; s != nil {
		return applyGrads(cfg, s.opt, s.rows, s.local, entAgg, lr)
	}
	return applyGrads(cfg, tb.entOpt, tb.params.Entity, nil, entAgg, lr) +
		applyGrads(cfg, tb.relOpt, tb.params.Relation, nil, relAgg, lr)
}

// applyGrads feeds aggregated rows to the optimizer with decoupled L2 decay
// and returns the flops spent. local maps a row id to its row of mat (and
// optimizer slot); nil means the identity.
func applyGrads(cfg *Config, o opt.Optimizer, mat *tensor.Matrix, local []int32, agg *grad.SparseGrad, lr float32) float64 {
	if agg.Len() == 0 {
		return 0
	}
	o.BeginStep()
	decay := 1 - 2*float32(cfg.L2)*lr
	agg.ForEach(func(id int32, row []float32) {
		if local != nil {
			id = local[id]
		}
		pr := mat.Row(int(id))
		o.ApplyRow(id, pr, row, lr)
		if cfg.L2 > 0 {
			tensor.Scale(decay, pr)
		}
	})
	return float64(agg.Len()*mat.Cols) * 12
}

// gather assembles the full model for a checkpoint or the final evaluation
// on the stats rank; other ranks may get nil. A shard gathers every rank's
// owned rows, and a replica in a process world gathers the relation rows
// other processes own under RP — both collectives. Channel-world replicas
// merge in shared memory on rank 0: every caller sits just past a
// collective that follows the epoch's last update, so no replica is moving.
func (tb *table) gather(t *trainRun, c *mpi.Comm) (*model.Params, error) {
	switch {
	case tb.sh != nil:
		return tb.sh.gather(t, c)
	case t.proc:
		return procMergedParams(c, tb.params, t.relOwner)
	case c.Rank() == 0:
		return mergeParams(t.perRank, t.relOwner), nil
	}
	return nil, nil
}
