package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"kgedist/internal/core"
	"kgedist/internal/eval"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/transport"
	"kgedist/internal/transport/tcptransport"
	"kgedist/internal/xrand"
)

// ranks is the training world size of every training workload: the
// container this benchmark targets has two cores, and more ranks than cores
// measures goroutine oversubscription rather than the program.
const ranks = 2

// trainSpec is one training workload: a dataset generator, a configuration
// and the entry point that runs it.
type trainSpec struct {
	gen func(seed uint64) kg.GenConfig
	cfg func(seed uint64) core.Config
	tcp bool // core.TrainProcess over loopback tcptransport instead of core.Train
}

// withBudget fixes the epoch budget and turns early stopping off, so every
// call does the same amount of work.
func withBudget(c core.Config, epochs int) core.Config {
	c.MaxEpochs = epochs
	c.StopPatience = epochs + 1
	return c
}

var trainSpecs = map[string]trainSpec{
	// The paper's headline configuration, DRS+1-bit+RP+SS. Seed 1 switches
	// to all-gather at epoch 10, inside the budget.
	"train-paper": {
		gen: kg.FB15KMini,
		cfg: func(seed uint64) core.Config {
			c := core.DefaultConfig()
			c.Seed = seed
			c.Comm = core.CommDynamic
			c.ProbeEvery = 10
			c.Select = grad.SelectBernoulli
			c.Quant = grad.OneBitMax
			c.RelationPartition = true
			c.NegSelect = true
			c.NegSamples = 10
			return withBudget(c, 12)
		},
	},
	// The dense all-reduce baseline over real sockets, as multi-process
	// kgetrain runs it, with both ranks in this process.
	"train-dense-tcp": {
		gen: kg.FB250KMini,
		cfg: func(seed uint64) core.Config {
			c := core.DefaultConfig()
			c.Seed = seed
			c.Comm = core.CommAllReduce
			c.NegSamples = 1
			return withBudget(c, 3)
		},
		tcp: true,
	},
	// Sharded tables: the only path through internal/partition and the row
	// pull/push exchange.
	"train-partitioned": {
		gen: kg.FB15KMini,
		cfg: func(seed uint64) core.Config {
			c := core.DefaultConfig()
			c.Seed = seed
			c.Partitioned = true
			c.PartitionBy = "mincut"
			return withBudget(c, 12)
		},
	},
}

// trainSetup is what a training workload builds before its first timed call.
type trainSetup struct {
	d   *kg.Dataset
	eps []transport.Endpoint // tcp workloads: a connected world for the first call
}

// dialWorld connects a ranks-sized loopback tcptransport world inside this
// process, one goroutine per rank, and returns its endpoints.
func dialWorld() ([]transport.Endpoint, error) {
	lns := make([]net.Listener, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close() // already failing; the listen error is reported
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
	}
	eps := make([]*tcptransport.Endpoint, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = tcptransport.Dial(tcptransport.Options{
				Rank:            r,
				WorldSize:       ranks,
				CoordinatorAddr: lns[0].Addr().String(),
				Listener:        lns[r],
				ConnectDeadline: 30 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	out := make([]transport.Endpoint, ranks)
	for r, ep := range eps {
		out[r] = ep
	}
	if err := errors.Join(errs...); err != nil {
		closeWorld(out)
		return nil, fmt.Errorf("dial: %w", err)
	}
	return out, nil
}

// closeWorld closes every endpoint concurrently (a departing rank waits for
// its peers' goodbyes).
func closeWorld(eps []transport.Endpoint) {
	var wg sync.WaitGroup
	for _, ep := range eps {
		if ep == nil {
			continue
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			_ = ep.Close() // teardown of a finished or failed world
		}(ep)
	}
	wg.Wait()
}

// trainCall is one timed training call and what it returned.
type trainCall struct {
	wall time.Duration
	res  []*core.Result // one per rank for tcp workloads, else one
}

// runTraining makes one training call. For tcp workloads eps is consumed:
// core.TrainProcess closes each rank's world before returning.
func runTraining(spec trainSpec, cfg core.Config, d *kg.Dataset, eps []transport.Endpoint) (trainCall, error) {
	if !spec.tcp {
		start := time.Now()
		res, err := core.Train(cfg, d, ranks)
		wall := time.Since(start)
		if err != nil {
			return trainCall{}, fmt.Errorf("core.Train: %w", err)
		}
		return trainCall{wall: wall, res: []*core.Result{res}}, nil
	}
	out := make([]*core.Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	start := time.Now()
	for r, ep := range eps {
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			out[r], errs[r] = core.TrainProcess(cfg, d, ep)
		}(r, ep)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return trainCall{}, fmt.Errorf("core.TrainProcess: %w", err)
	}
	return trainCall{wall: wall, res: out}, nil
}

// untrainedMRR evaluates the model every rank starts from (core initializes
// replicas from xrand.New(seed).Split(0)) with the final evaluation's
// sample and stream, the floor a trained model has to beat.
func untrainedMRR(cfg core.Config, d *kg.Dataset) float64 {
	m := model.New(cfg.ModelName, cfg.Dim)
	p := model.NewParams(m, d.NumEntities, d.NumRelations)
	p.Init(m, xrand.New(cfg.Seed).Split(0))
	return eval.LinkPrediction(m, p, d, kg.NewFilterIndex(d), cfg.TestSample, xrand.New(cfg.Seed+999)).FilteredMRR
}

// checkCall verifies one call's results: the full epoch budget ran, loss and
// MRR are finite, every rank agrees, and the call reproduces the run's first
// call exactly.
func checkCall(cfg core.Config, c trainCall, first *core.Result) error {
	r := c.res[0]
	if r.Epochs != cfg.MaxEpochs || len(r.PerEpoch) != cfg.MaxEpochs {
		return fmt.Errorf("ran %d epochs (%d recorded), budget %d", r.Epochs, len(r.PerEpoch), cfg.MaxEpochs)
	}
	loss := r.PerEpoch[len(r.PerEpoch)-1].TrainLoss
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("final training loss %v", loss)
	}
	if math.IsNaN(r.MRR) || math.IsInf(r.MRR, 0) {
		return fmt.Errorf("final MRR %v", r.MRR)
	}
	for rank, o := range c.res[1:] {
		if o.MRR != r.MRR || o.CommBytes != r.CommBytes || o.Epochs != r.Epochs {
			return fmt.Errorf("rank %d disagrees with rank 0: MRR %v/%v, CommBytes %d/%d, epochs %d/%d",
				rank+1, o.MRR, r.MRR, o.CommBytes, r.CommBytes, o.Epochs, r.Epochs)
		}
	}
	if first != nil && (first.MRR != r.MRR || first.CommBytes != r.CommBytes ||
		first.PerEpoch[len(first.PerEpoch)-1].TrainLoss != loss) {
		return fmt.Errorf("repeat call diverged from the first: MRR %v/%v, CommBytes %d/%d",
			r.MRR, first.MRR, r.CommBytes, first.CommBytes)
	}
	return nil
}

// runTrain runs a training workload: set-up, then training calls until the
// measurement window has passed, each checked.
func runTrain(rc *runCtx, spec trainSpec) (*report, error) {
	cfg := spec.cfg(rc.seed)
	rep := newReport()

	var st trainSetup
	setup, err := rc.repeatSetup(func(parent int, last bool) error {
		_, end := rc.tr.begin("kg.generate", parent)
		st.d = kg.Generate(spec.gen(rc.seed))
		rep.layer["kg.generate_s"] = end()
		if !spec.tcp {
			return nil
		}
		_, end = rc.tr.begin("transport.connect", parent)
		eps, err := dialWorld()
		rep.layer["transport.connect_s"] = end()
		if err != nil {
			return err
		}
		if last {
			st.eps = eps
		} else {
			closeWorld(eps)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	d := st.d
	positives := float64(len(d.Train) * cfg.MaxEpochs)

	// connect returns the endpoints for the next call, wrapped when counting.
	connect := func(stats []*epStats) ([]transport.Endpoint, error) {
		if !spec.tcp {
			return nil, nil
		}
		eps := st.eps
		st.eps = nil
		if eps == nil {
			_, end := rc.tr.begin("transport.connect", 0)
			var err error
			eps, err = dialWorld()
			end()
			if err != nil {
				return nil, err
			}
		}
		if stats != nil {
			for r := range eps {
				eps[r] = wrapEndpoint(eps[r], stats[r])
			}
		}
		return eps, nil
	}

	var first *core.Result
	var walls []float64
	var traced *trainCall
	var stats []*epStats
	call := func(trace bool) error {
		var callStats []*epStats
		if trace && spec.tcp {
			callStats = make([]*epStats, ranks)
			for r := range callStats {
				callStats[r] = &epStats{}
			}
		}
		eps, err := connect(callStats)
		if err != nil {
			return err
		}
		var end func() float64
		if trace {
			_, end = rc.tr.begin("core.train_call", 0)
		}
		c, err := runTraining(spec, cfg, d, eps)
		if end != nil {
			end()
		}
		rep.attempted++
		if err == nil {
			err = checkCall(cfg, c, first)
		}
		if err != nil {
			rep.failed++
			rep.fail(err)
			return nil
		}
		if first == nil {
			first = c.res[0]
		}
		walls = append(walls, c.wall.Seconds())
		if trace {
			traced, stats = &c, callStats
		}
		return nil
	}

	start := time.Now()
	if rc.trace {
		// A warm-up call, then an untraced and a traced one: their
		// difference is what tracing costs.
		for _, tr := range []bool{false, false, true} {
			if err := call(tr); err != nil {
				return nil, err
			}
		}
	} else {
		for len(walls) == 0 || time.Since(start) < rc.window {
			if err := call(false); err != nil {
				return nil, err
			}
			if rep.failed > 0 {
				break
			}
		}
	}
	closeWorld(st.eps)
	if rep.failed > 0 || first == nil {
		return rep, nil
	}

	floor := untrainedMRR(cfg, d)
	if first.MRR <= floor {
		rep.fail(fmt.Errorf("MRR %v does not beat the untrained model's %v", first.MRR, floor))
		rep.failed++
		return rep, nil
	}

	rep.e2e["throughput_per_s"] = positives / median(walls)
	rep.e2e["accuracy"] = first.TCA / 100
	rep.e2e["latency_p50_ms"] = 1000 * median(walls)

	if rc.trace {
		rep.layer["trace.overhead_s"] = walls[2] - walls[1]
		if err := traceTrain(rc, rep, spec, cfg, d, *traced, stats); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
