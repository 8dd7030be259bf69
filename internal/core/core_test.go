package core

import (
	"strings"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/simnet"
)

// testDataset returns a small learnable KG shared by the trainer tests.
func testDataset() *kg.Dataset {
	return kg.Generate(kg.GenConfig{
		Name: "core-test", Entities: 300, Relations: 30, Triples: 5000,
		Communities: 6, Seed: 42,
	})
}

// testConfig returns a fast configuration for the test dataset.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.BaseLR = 0.02
	cfg.BatchSize = 500
	cfg.MaxEpochs = 12
	cfg.StopPatience = 12
	cfg.ValSample = 400
	cfg.TestSample = 60
	cfg.Seed = 7
	return cfg
}

// skipIfShort skips the long end-to-end training tests under -short — in
// particular the race-detector CI tier, where each of these costs seconds.
// Unit-level coverage of every code path stays on in short mode.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping long training test in -short mode")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.BaseLR = 0 },
		func(c *Config) { c.MaxEpochs = 0 },
		func(c *Config) { c.NegSamples = 0 },
		func(c *Config) { c.Comm = CommDynamic; c.ProbeEvery = 0 },
		func(c *Config) { c.Tolerance = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// Unknown model and optimizer names are configuration errors, reported by
// Validate and returned by Train, never a panic inside a rank.
func TestValidateRejectsUnknownNames(t *testing.T) {
	d := testDataset()
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"model", func(c *Config) { c.ModelName = "foo" }},
		{"optimizer", func(c *Config) { c.OptimizerName = "foo" }},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "unknown "+tc.field+` "foo"`) {
			t.Fatalf("%s: Validate() = %v, want an unknown-%s error", tc.field, err, tc.field)
		}
		if _, err := Train(cfg, d, 2); err == nil {
			t.Fatalf("%s: Train accepted an unknown name", tc.field)
		}
	}
}

func TestStrategyLabels(t *testing.T) {
	c := DefaultConfig()
	if got := c.StrategyLabel(); got != "allreduce" {
		t.Fatalf("label = %q", got)
	}
	c.Comm = CommAllGather
	if got := c.StrategyLabel(); got != "allgather" {
		t.Fatalf("label = %q", got)
	}
	c.Select = grad.SelectBernoulli
	if got := c.StrategyLabel(); got != "RS" {
		t.Fatalf("label = %q", got)
	}
	c.Comm = CommDynamic
	c.Quant = grad.OneBitMax
	c.RelationPartition = true
	c.NegSelect = true
	if got := c.StrategyLabel(); got != "DRS+1-bit+RP+SS" {
		t.Fatalf("label = %q", got)
	}
	c.Quant = grad.TwoBitTernary
	if got := c.StrategyLabel(); got != "DRS+2-bit+RP+SS" {
		t.Fatalf("label = %q", got)
	}
}

func TestCommStrategyString(t *testing.T) {
	if CommAllReduce.String() != "allreduce" || CommAllGather.String() != "allgather" ||
		CommDynamic.String() != "dynamic" || CommStrategy(9).String() != "unknown" {
		t.Fatal("CommStrategy strings wrong")
	}
}

func TestTrainRejectsBadInputs(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	if _, err := Train(cfg, d, 0); err == nil {
		t.Fatal("accepted 0 nodes")
	}
	bad := cfg
	bad.Dim = 0
	if _, err := Train(bad, d, 1); err == nil {
		t.Fatal("accepted bad config")
	}
	empty := &kg.Dataset{NumEntities: 10, NumRelations: 2}
	if _, err := Train(cfg, empty, 1); err == nil {
		t.Fatal("accepted empty training split")
	}
}

func TestTrainSingleNodeLearns(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 40
	cfg.StopPatience = 40
	res, err := Train(cfg, d, 1)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if res.Epochs != 40 {
		t.Fatalf("epochs = %d", res.Epochs)
	}
	// The community-structured KG is easily learnable: accuracy must rise
	// far above chance and MRR far above random.
	if res.TCA < 75 {
		t.Fatalf("TCA = %v, expected > 75", res.TCA)
	}
	if res.MRR < 0.1 {
		t.Fatalf("MRR = %v, expected > 0.1", res.MRR)
	}
	if res.TotalHours <= 0 {
		t.Fatalf("TotalHours = %v", res.TotalHours)
	}
	// Single node: no communication volume.
	if res.CommBytes != 0 {
		t.Fatalf("single-node CommBytes = %d", res.CommBytes)
	}
	if len(res.PerEpoch) != res.Epochs {
		t.Fatalf("per-epoch records %d != epochs %d", len(res.PerEpoch), res.Epochs)
	}
	// Validation accuracy should improve from start to finish.
	first := res.PerEpoch[0].ValAccuracy
	last := res.PerEpoch[len(res.PerEpoch)-1].ValAccuracy
	if last <= first {
		t.Fatalf("validation accuracy did not improve: %v -> %v", first, last)
	}
}

func TestTrainDeterministic(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 5
	a, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.MRR != b.MRR || a.TCA != b.TCA || a.Epochs != b.Epochs ||
		a.CommBytes != b.CommBytes || a.TotalHours != b.TotalHours {
		t.Fatalf("non-deterministic training: %+v vs %+v", a, b)
	}
}

func TestTrainMultiNodeAllReduceAndAllGather(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	for _, comm := range []CommStrategy{CommAllReduce, CommAllGather} {
		cfg := testConfig()
		cfg.Comm = comm
		cfg.MaxEpochs = 8
		res, err := Train(cfg, d, 4)
		if err != nil {
			t.Fatalf("%v: %v", comm, err)
		}
		if res.CommBytes == 0 {
			t.Fatalf("%v: no communication recorded", comm)
		}
		if res.Nodes != 4 {
			t.Fatalf("%v: nodes = %d", comm, res.Nodes)
		}
		wantMode := comm.String()
		for _, e := range res.PerEpoch {
			if e.Mode != wantMode {
				t.Fatalf("%v: epoch %d ran mode %q", comm, e.Epoch, e.Mode)
			}
		}
	}
}

func TestAllGatherMovesFewerBytesThanAllReduceWhenSparse(t *testing.T) {
	skipIfShort(t)
	// With a batch touching few of the many entities, the sparse exchange
	// must move far fewer bytes than the dense matrix all-reduce.
	d := kg.Generate(kg.GenConfig{
		Name: "sparse", Entities: 2000, Relations: 20, Triples: 3000, Seed: 9,
	})
	base := testConfig()
	base.BatchSize = 100
	base.MaxEpochs = 3
	ar := base
	ar.Comm = CommAllReduce
	ag := base
	ag.Comm = CommAllGather
	resAR, err := Train(ar, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	resAG, err := Train(ag, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resAG.CommBytes >= resAR.CommBytes/2 {
		t.Fatalf("sparse allgather bytes %d not << allreduce bytes %d",
			resAG.CommBytes, resAR.CommBytes)
	}
}

func TestRelationPartitionEliminatesRelationComm(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 5
	cfg.Comm = CommAllReduce

	plain, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.RelationCommBytes == 0 {
		t.Fatal("uniform partition should communicate relation gradients")
	}

	cfg.RelationPartition = true
	rp, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rp.RelationCommBytes != 0 {
		t.Fatalf("relation partition still moved %d relation bytes", rp.RelationCommBytes)
	}
	if rp.CommBytes >= plain.CommBytes {
		t.Fatalf("RP comm %d not below baseline %d", rp.CommBytes, plain.CommBytes)
	}
}

func TestQuantizationShrinksCommVolume(t *testing.T) {
	d := testDataset()
	base := testConfig()
	base.Comm = CommAllGather
	base.MaxEpochs = 4

	full, err := Train(base, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := base
	q.Quant = grad.OneBitMax
	quant, err := Train(q, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if quant.CommBytes >= full.CommBytes/3 {
		t.Fatalf("1-bit comm %d not well below full-precision %d", quant.CommBytes, full.CommBytes)
	}
}

func TestRandomSelectionRecordsSparsity(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.Comm = CommAllGather
	cfg.Select = grad.SelectBernoulli
	cfg.MaxEpochs = 4
	res, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	anySparsity := false
	for _, e := range res.PerEpoch {
		if e.Sparsity > 0 {
			anySparsity = true
		}
	}
	if !anySparsity {
		t.Fatal("random selection produced no recorded sparsity")
	}
}

func TestDynamicStrategySwitchesWhenAllGatherWins(t *testing.T) {
	skipIfShort(t)
	// Large entity space + tiny batches => dense all-reduce is expensive,
	// sparse all-gather cheap: the probe must switch early.
	d := kg.Generate(kg.GenConfig{
		Name: "sparse", Entities: 4000, Relations: 40, Triples: 3000, Seed: 5,
	})
	cfg := testConfig()
	cfg.Comm = CommDynamic
	cfg.ProbeEvery = 2
	cfg.BatchSize = 100
	cfg.MaxEpochs = 6
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchedAtEpoch == 0 {
		t.Fatal("dynamic strategy never switched to all-gather")
	}
	if res.SwitchedAtEpoch%cfg.ProbeEvery != 0 {
		t.Fatalf("switch at epoch %d, not on a probe epoch", res.SwitchedAtEpoch)
	}
	// After the switch, epochs must run in allgather mode.
	for _, e := range res.PerEpoch {
		if e.Epoch > res.SwitchedAtEpoch && e.Mode != "allgather" {
			t.Fatalf("epoch %d mode %q after switch", e.Epoch, e.Mode)
		}
	}
}

func TestCombinedStrategyRuns(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := testConfig()
	cfg.Comm = CommDynamic
	cfg.Select = grad.SelectBernoulli
	cfg.Quant = grad.OneBitMax
	cfg.RelationPartition = true
	cfg.NegSelect = true
	cfg.NegSamples = 5
	cfg.MaxEpochs = 25
	cfg.StopPatience = 25
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "DRS+1-bit+RP+SS" {
		t.Fatalf("strategy label %q", res.Strategy)
	}
	if res.RelationCommBytes != 0 {
		t.Fatal("combined strategy leaked relation communication")
	}
	if res.TCA < 60 {
		t.Fatalf("combined strategy TCA = %v", res.TCA)
	}
}

func TestNegativeSampleSelectionTrainsFewerTriples(t *testing.T) {
	// 1-out-of-5 must cost less virtual compute per epoch than 5-out-of-5
	// (one negative gradient vs five, at the price of cheap forward passes).
	d := testDataset()
	base := testConfig()
	base.NegSamples = 5
	base.MaxEpochs = 3

	all := base
	all.NegSelect = false
	rAll, err := Train(all, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel := base
	sel.NegSelect = true
	rSel, err := Train(sel, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rSel.AvgEpochSeconds() >= rAll.AvgEpochSeconds() {
		t.Fatalf("1-of-5 epoch %vs not cheaper than 5-of-5 %vs",
			rSel.AvgEpochSeconds(), rAll.AvgEpochSeconds())
	}
}

func TestErrorFeedbackPathRuns(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.Comm = CommAllGather
	cfg.Quant = grad.OneBitMax
	cfg.ErrorFeedback = true
	cfg.MaxEpochs = 4
	if _, err := Train(cfg, d, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTrackEpochStatsRecordsValTCA(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.TrackEpochStats = true
	cfg.MaxEpochs = 4
	res, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.PerEpoch {
		if e.ValTCA <= 0 {
			t.Fatalf("epoch %d has no ValTCA", e.Epoch)
		}
		if e.NonZeroGradRows <= 0 {
			t.Fatalf("epoch %d has no gradient-row count", e.Epoch)
		}
	}
}

func TestEarlyStopTriggers(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 60
	cfg.StopPatience = 3
	cfg.BaseLR = 1e-9 // model cannot improve -> early stop after patience
	res, err := Train(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 60 {
		t.Fatalf("early stop never triggered: %d epochs", res.Epochs)
	}
}

func TestMoreNodesLowerEpochTime(t *testing.T) {
	skipIfShort(t)
	// Strong scaling of compute: epoch time must drop from 1 to 4 nodes
	// (communication grows but compute dominates at this size).
	d := testDataset()
	cfg := testConfig()
	cfg.Dim = 32
	cfg.NegSamples = 5
	cfg.MaxEpochs = 3
	r1, err := Train(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.AvgEpochSeconds() >= r1.AvgEpochSeconds() {
		t.Fatalf("4-node epoch %vs not below 1-node %vs",
			r4.AvgEpochSeconds(), r1.AvgEpochSeconds())
	}
}

func TestMarginLossLearns(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.ModelName = "transe" // the classic margin-loss model
	cfg.LossName = "margin"
	cfg.Margin = 2
	cfg.NegSamples = 2
	cfg.MaxEpochs = 30
	cfg.StopPatience = 30
	res, err := Train(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TCA < 70 {
		t.Fatalf("margin-loss TransE TCA = %v, expected learning", res.TCA)
	}
}

func TestMarginLossValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossName = "margin"
	cfg.Margin = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("margin 0 accepted")
	}
	cfg.LossName = "nope"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown loss accepted")
	}
}

func TestAlternativeModelsTrain(t *testing.T) {
	// The strategies are model-agnostic: every registered model must train
	// end to end under the combined configuration.
	d := testDataset()
	for _, name := range []string{"distmult", "rotate", "simple"} {
		cfg := testConfig()
		cfg.ModelName = name
		cfg.MaxEpochs = 6
		cfg.Comm = CommAllGather
		cfg.Select = grad.SelectBernoulli
		cfg.Quant = grad.OneBitMax
		cfg.RelationPartition = true
		res, err := Train(cfg, d, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Epochs == 0 || res.TotalHours <= 0 {
			t.Fatalf("%s: empty result %+v", name, res)
		}
	}
}

func TestNewSelectionModesTrain(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.Comm = CommAllGather
	cfg.Select = grad.SelectUnbiased
	cfg.MaxEpochs = 4
	if _, err := Train(cfg, d, 2); err != nil {
		t.Fatalf("%v: %v", cfg.Select, err)
	}
}

func TestStragglerSlowsEpochs(t *testing.T) {
	// A 4x straggler (rank 0 slowed for the whole run by a fault-plan
	// window) must stretch the bulk-synchronous epoch time substantially:
	// every collective waits for the slow rank.
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 3
	base, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &simnet.FaultPlan{Faults: []simnet.Fault{
		{Kind: simnet.FaultSlow, Rank: 0, At: 0, Duration: 1e6, Factor: 4},
	}}
	slow, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgEpochSeconds() < 1.5*base.AvgEpochSeconds() {
		t.Fatalf("straggler epoch %vs vs base %vs: BSP sensitivity not visible",
			slow.AvgEpochSeconds(), base.AvgEpochSeconds())
	}
}

func TestWarmStartContinuesTraining(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.MaxEpochs = 8
	first, err := Train(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.WarmStart = first.FinalParams
	warm.MaxEpochs = 8
	second, err := Train(warm, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Continued training starts from the trained weights: its first-epoch
	// validation accuracy must beat the cold start's.
	if second.PerEpoch[0].ValAccuracy <= first.PerEpoch[0].ValAccuracy+5 {
		t.Fatalf("warm start epoch-1 val %v not above cold start %v",
			second.PerEpoch[0].ValAccuracy, first.PerEpoch[0].ValAccuracy)
	}
	// Shape mismatch rejected.
	bad := cfg
	bad.WarmStart = first.FinalParams
	bad.Dim = cfg.Dim * 2
	if _, err := Train(bad, d, 1); err == nil {
		t.Fatal("mismatched warm start accepted")
	}
}

// TestReplicasStayInSync verifies the Horovod-replication invariant: after
// training, every rank's entity matrix is bit-identical (the deterministic
// exchanges apply the same updates everywhere), and the relation matrix is
// likewise identical without relation partition. Under RP each relation row
// matches its owner's copy in the merged model.
func TestReplicasStayInSync(t *testing.T) {
	d := testDataset()
	for _, rp := range []bool{false, true} {
		cfg := testConfig()
		cfg.MaxEpochs = 5
		cfg.Comm = CommAllGather
		cfg.Quant = grad.OneBitMax
		cfg.RelationPartition = rp
		res, perRank, relOwner, err := trainInternal(cfg, d, 4)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < 4; r++ {
			for i, v := range perRank[0].Entity.Data {
				if perRank[r].Entity.Data[i] != v {
					t.Fatalf("rp=%v: entity replicas diverged at rank %d index %d", rp, r, i)
				}
			}
		}
		if !rp {
			for r := 1; r < 4; r++ {
				for i, v := range perRank[0].Relation.Data {
					if perRank[r].Relation.Data[i] != v {
						t.Fatalf("relation replicas diverged at rank %d index %d", r, i)
					}
				}
			}
		} else {
			if relOwner == nil {
				t.Fatal("RP run returned no owner table")
			}
			for rel, owner := range relOwner {
				src := 0
				if owner > 0 {
					src = owner
				}
				ownerRow := perRank[src].Relation.Row(rel)
				mergedRow := res.FinalParams.Relation.Row(rel)
				for i := range ownerRow {
					if mergedRow[i] != ownerRow[i] {
						t.Fatalf("merged relation %d does not match owner %d", rel, owner)
					}
				}
			}
		}
	}
}

func TestDynamicStaysOnAllReduceWhenDense(t *testing.T) {
	skipIfShort(t)
	// Every rank touches every entity each batch (dense gradients) and the
	// rows are wide, so the all-gather would replicate the whole matrix
	// P times while the ring all-reduce moves it ~twice: the probe must
	// never switch. This is the paper's FB15K finding (all-reduce always
	// wins when the gradient matrix is dense).
	d := kg.Generate(kg.GenConfig{
		Name: "dense", Entities: 200, Relations: 6, Triples: 4000,
		Communities: 4, Seed: 3,
	})
	cfg := testConfig()
	cfg.Dim = 64
	cfg.Comm = CommDynamic
	cfg.ProbeEvery = 2
	cfg.BatchSize = 2000
	cfg.MaxEpochs = 8
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchedAtEpoch != 0 {
		t.Fatalf("dense workload switched to all-gather at epoch %d", res.SwitchedAtEpoch)
	}
	for _, e := range res.PerEpoch {
		if e.Mode != "allreduce" {
			t.Fatalf("epoch %d mode %q", e.Epoch, e.Mode)
		}
	}
}
