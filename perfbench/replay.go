package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"kgedist/internal/core"
	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/opt"
	part "kgedist/internal/partition"
	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

// replayBlocks is how many timed blocks a replay runs; it reports the
// median block.
const replayBlocks = 5

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink float32

// perOp times f, which does n operations per call, over replayBlocks calls
// and returns the median nanoseconds per operation.
func perOp(n int, f func()) float64 {
	f() // warm caches and lazily grown scratch
	per := make([]float64, replayBlocks)
	for i := range per {
		start := time.Now()
		f()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// randomGrad returns a sparse gradient of rows rows spread over the table,
// with values drawn from rng.
func randomGrad(rows, tableRows, width int, rng *xrand.RNG) (*grad.SparseGrad, []int32) {
	g := grad.NewSparseGrad(width)
	ids := make([]int32, rows)
	for i := range ids {
		ids[i] = int32(i * tableRows / rows)
		row := g.Row(ids[i])
		for j := range row {
			row[j] = float32(rng.NormFloat64() * 1e-2)
		}
	}
	return g, ids
}

// runWorld runs body on every rank of a ranks-sized world and returns the
// wall time. tcp worlds are fresh loopback tcptransport meshes, one
// process world per rank; otherwise a channel world.
func runWorld(tcp bool, body func(c *mpi.Comm) error) (time.Duration, error) {
	if !tcp {
		w := mpi.NewWorld(simnet.NewCluster(ranks, simnet.XC40Params()))
		start := time.Now()
		err := w.RunErr(body)
		return time.Since(start), err
	}
	eps, err := dialWorld()
	if err != nil {
		return 0, err
	}
	worlds := make([]*mpi.World, ranks)
	for r, ep := range eps {
		if worlds[r], err = mpi.NewProcessWorld(simnet.NewCluster(ranks, simnet.XC40Params()), ep); err != nil {
			closeWorld(eps)
			return 0, err
		}
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	start := time.Now()
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *mpi.World) {
			defer wg.Done()
			errs[r] = w.RunErr(body)
		}(r, w)
	}
	wg.Wait()
	wall := time.Since(start)
	closeWorld(eps)
	return wall, errors.Join(errs...)
}

// collectiveSeconds times iters calls of one collective per rank and
// returns seconds per call.
func collectiveSeconds(tcp bool, iters int, call func(c *mpi.Comm) error) (float64, error) {
	wall, err := runWorld(tcp, func(c *mpi.Comm) error {
		if err := call(c); err != nil { // warm-up: staging pools and connections
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := call(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("collective replay: %w", err)
	}
	return wall.Seconds() / float64(iters+1), nil
}

// callCounts is how often a training call invokes each replayed function,
// derived from the configuration, the dataset and the call's Result.
type callCounts struct {
	batches          float64 // per rank, whole call
	allReduceBatch   float64 // batches exchanged by all-reduce
	allGatherBatch   float64 // batches exchanged by all-gather
	positives        float64 // per rank, whole call
	valScores        float64 // per rank, whole call
	rowsPerBatch     float64 // non-zero entity gradient rows per rank and batch
	sentRowsPerBatch float64 // rows left after random selection
}

func countCalls(cfg core.Config, d *kg.Dataset, r *core.Result) callCounts {
	shard := (len(d.Train) + ranks - 1) / ranks
	perEpoch := float64((shard + cfg.BatchSize - 1) / cfg.BatchSize)
	var c callCounts
	var nnz, drop float64
	for _, e := range r.PerEpoch {
		if e.Mode == "allgather" {
			c.allGatherBatch += perEpoch
		} else {
			c.allReduceBatch += perEpoch
		}
		nnz += e.NonZeroGradRows
		drop += e.Sparsity
	}
	epochs := float64(len(r.PerEpoch))
	c.batches = perEpoch * epochs
	c.positives = c.batches * float64(cfg.BatchSize)
	c.valScores = 2 * epochs * float64(cfg.ValSample/ranks+1)
	if epochs > 0 {
		c.rowsPerBatch = nnz / epochs
		c.sentRowsPerBatch = c.rowsPerBatch * (1 - drop/epochs)
	}
	return c
}

// traceTrain fills a training workload's per-layer metrics from the traced
// call, the endpoint ledgers and replays of each layer's public functions.
func traceTrain(rc *runCtx, rep *report, spec trainSpec, cfg core.Config, d *kg.Dataset, c trainCall, stats []*epStats) error {
	res := c.res[0]
	L := rep.layer
	callS := c.wall.Seconds()
	L["core.train_call_s"] = callS
	L["core.train_loss_final"] = res.PerEpoch[len(res.PerEpoch)-1].TrainLoss
	L["core.mrr"] = res.MRR
	L["core.virtual_train_s"] = res.TotalHours * 3600
	L["core.drs_switch_epoch"] = float64(res.SwitchedAtEpoch)
	L["mpi.comm_bytes"] = float64(res.CommBytes)
	L["mpi.virtual_comm_s"] = res.CommHours * 3600
	L["mpi.relation_comm_bytes"] = float64(res.RelationCommBytes)
	for r, st := range stats {
		p := fmt.Sprintf("transport.rank%d.", r)
		L[p+"send_calls"] = float64(st.sendCalls.Load())
		L[p+"sent_bytes"] = float64(st.sentBytes.Load())
		L[p+"send_s"] = float64(st.sendNS.Load()) / 1e9
		L[p+"recv_wait_s"] = float64(st.recvWaitNS.Load()) / 1e9
		L[p+"rendezvous_wait_s"] = float64(st.rendezvousNS.Load()) / 1e9
	}
	if res.Partition != nil {
		L["partition.remote_row_frac"] = res.Partition.RemoteRowFraction
		L["partition.cut_ratio"] = res.Partition.CutRatio
		L["partition.max_entity_shard"] = float64(res.Partition.MaxEntityShard)
	}
	n := countCalls(cfg, d, res)
	if !cfg.Partitioned {
		L["grad.nonzero_rows_per_batch"] = n.rowsPerBatch
		if n.rowsPerBatch > 0 {
			L["grad.rs_drop_frac"] = 1 - n.sentRowsPerBatch/n.rowsPerBatch
		}
	}

	parent, end := rc.tr.begin("replay", 0)
	defer end()
	m := model.New(cfg.ModelName, cfg.Dim)
	p := res.FinalParams
	width := m.Width()
	rng := xrand.New(rc.seed).Split(9001)

	// model: the scoring and gradient kernels on the workload's triples.
	_, endSpan := rc.tr.begin("model.replay", parent)
	sample := d.Train
	if len(sample) > 20000 {
		sample = sample[:20000]
	}
	L["model.score_ns"] = perOp(len(sample), func() {
		for _, t := range sample {
			sink += m.Score(p, t)
		}
	})
	gh, gr, gt := make([]float32, width), make([]float32, width), make([]float32, width)
	L["model.grad_ns"] = perOp(len(sample), func() {
		for _, t := range sample {
			m.AccumulateScoreGrad(p, t, 0.5, gh, gr, gt)
		}
	})
	triples := float64(cfg.NegSamples + 1) // a positive and its negatives, each scored and differentiated
	if cfg.NegSelect {
		sampler := model.NewNegSampler(d.NumEntities, rng.Split(1))
		scratch := make([]kg.Triple, 0, cfg.NegSamples)
		hard := sample[:len(sample)/4]
		L["model.select_hardest_ns"] = perOp(len(hard), func() {
			for _, t := range hard {
				neg, _ := model.SelectHardest(m, p, sampler, t, cfg.NegSamples, scratch)
				sink += float32(neg.T)
			}
		})
		triples = 2 // the positive and the hardest negative
	}
	perTriple := L["model.score_ns"] + L["model.grad_ns"]
	modelNS := n.positives*(triples*perTriple+L["model.select_hardest_ns"]) + n.valScores*L["model.score_ns"]
	L["model.est_busy_s"] = modelNS / 1e9
	endSpan()

	// grad: the sparse row cycle every batch, quantization where configured.
	_, endSpan = rc.tr.begin("grad.replay", parent)
	rows := int(math.Round(n.rowsPerBatch))
	if cfg.Partitioned {
		rows = int(math.Min(float64(d.NumEntities), float64(cfg.BatchSize*4)))
	}
	if rows < 1 {
		rows = 1
	}
	g, ids := randomGrad(rows, d.NumEntities, width, rng.Split(2))
	cycle := grad.NewSparseGrad(width)
	L["grad.sparse_cycle_ns_per_row"] = perOp(rows, func() {
		for _, id := range ids {
			cycle.Row(id)[0]++
		}
		cycle.Clear()
	})
	gradNS := n.batches * float64(rows) * L["grad.sparse_cycle_ns_per_row"]
	var payload []byte
	if cfg.Quant != grad.NoQuant {
		sent := int(math.Max(1, math.Round(n.sentRowsPerBatch)))
		sg, _ := randomGrad(sent, d.NumEntities, width, rng.Split(3))
		var enc grad.Encoded
		qrng := rng.Split(4)
		L["grad.quantize_ns_per_row"] = perOp(sent, func() {
			grad.QuantizeInto(&enc, sg, cfg.Quant, qrng)
			payload = enc.Marshal()
		})
		var dec grad.Encoded
		dst := grad.NewSparseGrad(width)
		var decErr error
		L["grad.decode_ns_per_row"] = perOp(sent, func() {
			if err := grad.UnmarshalInto(&dec, payload); err != nil {
				decErr = err
			}
			dst.Clear()
			grad.Dequantize(&dec, dst)
		})
		if decErr != nil {
			return fmt.Errorf("decode replay: %w", decErr)
		}
		// Every rank encodes its rows and decodes every rank's payload.
		gradNS += n.allGatherBatch * float64(sent) * (L["grad.quantize_ns_per_row"] + ranks*L["grad.decode_ns_per_row"])
	}
	L["grad.est_busy_s"] = gradNS / 1e9
	endSpan()

	// mpi: the batch exchange at the workload's payload size and P.
	_, endSpan = rc.tr.begin("mpi.replay", parent)
	if !cfg.Partitioned {
		ent := make([]float32, d.NumEntities*width)
		var rel []float32
		if !cfg.RelationPartition {
			rel = make([]float32, d.NumRelations*width)
		}
		s, err := collectiveSeconds(spec.tcp, 10, func(c *mpi.Comm) error {
			buf := ent
			if c.Rank() != 0 {
				buf = make([]float32, len(ent))
			}
			if _, err := c.AllReduceSum(buf, "bench"); err != nil {
				return err
			}
			if rel == nil {
				return nil
			}
			_, err := c.AllReduceSum(make([]float32, len(rel)), "bench")
			return err
		})
		if err != nil {
			return err
		}
		L["mpi.allreduce_s"] = s
		if n.allGatherBatch > 0 && payload != nil {
			s, err := collectiveSeconds(spec.tcp, 50, func(c *mpi.Comm) error {
				// All-gather payloads transfer to the world: always fresh.
				_, _, err := c.AllGatherBytes(append([]byte(nil), payload...), "bench")
				return err
			})
			if err != nil {
				return err
			}
			L["mpi.allgather_s"] = s
		}
		L["mpi.est_busy_s"] = n.allReduceBatch*L["mpi.allreduce_s"] + n.allGatherBatch*L["mpi.allgather_s"]
	}
	endSpan()

	// opt: Adam over the rows a batch applies.
	_, endSpan = rc.tr.begin("opt.replay", parent)
	o := opt.NewByName(cfg.OptimizerName, d.NumEntities, width)
	target := make([]float32, rows*width)
	L["opt.apply_ns_per_row"] = perOp(rows, func() {
		o.BeginStep()
		for i, id := range ids {
			row, _ := g.Get(id)
			o.ApplyRow(id, target[i*width:(i+1)*width], row, 1e-3)
		}
	})
	// After an exchange every rank applies the union of all ranks' rows.
	applied := math.Min(float64(d.NumEntities), ranks*n.sentRowsPerBatch)
	if cfg.Partitioned {
		applied = float64(rows) / ranks
	}
	L["opt.est_busy_s"] = n.batches * applied * L["opt.apply_ns_per_row"] / 1e9
	endSpan()

	// partition: the plan core builds once per call.
	if cfg.Partitioned {
		_, endSpan = rc.tr.begin("partition.replay", parent)
		var builds []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := part.Build(d, part.Options{Ranks: ranks, Algo: cfg.PartitionBy, Seed: cfg.Seed, Slack: cfg.PartitionSlack}); err != nil {
				return fmt.Errorf("partition replay: %w", err)
			}
			builds = append(builds, time.Since(start).Seconds())
		}
		L["partition.build_s"] = median(builds)
		L["partition.est_busy_s"] = L["partition.build_s"]
		endSpan()
	}

	// eval: the final evaluation every call ends with (every process runs
	// it at once over tcp, so it costs the call one evaluation's time).
	_, endSpan = rc.tr.begin("eval.replay", parent)
	filter := kg.NewFilterIndex(d)
	erng := xrand.New(cfg.Seed + 999)
	start := time.Now()
	eval.LinkPrediction(m, p, d, filter, cfg.TestSample, erng)
	eval.TripleClassification(m, p, d, filter, erng)
	L["eval.final_s"] = time.Since(start).Seconds()
	L["eval.est_busy_s"] = L["eval.final_s"]
	endSpan()

	// Counts are per rank and the ranks run at once, so each estimate is
	// already in wall-clock terms.
	L["core.unattributed_s"] = callS - (L["model.est_busy_s"] + L["grad.est_busy_s"] + L["mpi.est_busy_s"] +
		L["opt.est_busy_s"] + L["partition.est_busy_s"] + L["eval.est_busy_s"])

	// The single-rank baseline of the paper's task: what distribution buys.
	if cfg.RelationPartition && cfg.NegSelect {
		_, endSpan = rc.tr.begin("core.p1_call", 0)
		r1, err := core.Train(cfg, d, 1)
		wall := endSpan()
		if err != nil {
			return fmt.Errorf("single-rank run: %w", err)
		}
		L["core.p1_triples_per_s"] = float64(len(d.Train)*r1.Epochs) / wall
	}
	return nil
}
