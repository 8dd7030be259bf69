package core

import (
	"math"
	"path/filepath"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/model"
	part "kgedist/internal/partition"
	"kgedist/internal/simnet"
)

// partitionedConfig is testConfig switched into sharded-table mode.
func partitionedConfig() Config {
	cfg := testConfig()
	cfg.Partitioned = true
	return cfg
}

func TestPartitionedValidateRejectsConflicts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"relation partition", func(c *Config) { c.RelationPartition = true }},
		{"dynamic comm", func(c *Config) { c.Comm = CommDynamic }},
		{"quantization", func(c *Config) { c.Quant = grad.OneBitMax }},
		{"error feedback", func(c *Config) { c.ErrorFeedback = true }},
		{"track epoch stats", func(c *Config) { c.TrackEpochStats = true }},
		{"bad partitioner", func(c *Config) { c.PartitionBy = "metis" }},
		{"negative slack", func(c *Config) { c.PartitionSlack = -0.2 }},
	}
	for _, tc := range cases {
		cfg := partitionedConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The partition knobs demand the mode itself.
	cfg := testConfig()
	cfg.PartitionBy = "hash"
	if err := cfg.Validate(); err == nil {
		t.Error("PartitionBy without Partitioned accepted")
	}
	// Supported combinations stay valid.
	ok := partitionedConfig()
	ok.Select = grad.SelectBernoulli
	ok.NegSelect = true
	ok.PartitionBy = "hash"
	ok.PartitionSlack = 0.2
	if err := ok.Validate(); err != nil {
		t.Errorf("valid partitioned config rejected: %v", err)
	}
}

func TestPartitionedStrategyLabel(t *testing.T) {
	cfg := partitionedConfig()
	if got := cfg.StrategyLabel(); got != "partitioned-mincut" {
		t.Fatalf("label = %q", got)
	}
	cfg.PartitionBy = "hash"
	cfg.Select = grad.SelectBernoulli
	cfg.NegSelect = true
	if got := cfg.StrategyLabel(); got != "partitioned-hash+RS+SS" {
		t.Fatalf("label = %q", got)
	}
}

// TestPartitionedMemoryBound pins the tentpole's memory claim: every rank's
// shard stays under the balance bound and strictly below the full table.
func TestPartitionedMemoryBound(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := partitionedConfig()
	cfg.MaxEpochs = 2
	cfg.StopPatience = 2
	const nodes = 4
	res, err := Train(cfg, d, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil {
		t.Fatal("partitioned run reported no partition stats")
	}
	bound := part.BalanceBound(d.NumEntities, nodes, cfg.PartitionSlack)
	if res.Partition.MaxEntityShard > bound {
		t.Errorf("peak entity shard %d exceeds balance bound %d", res.Partition.MaxEntityShard, bound)
	}
	if res.Partition.MaxEntityShard >= d.NumEntities {
		t.Errorf("a rank held the full entity table (%d rows)", res.Partition.MaxEntityShard)
	}
	if res.Partition.Algo != "mincut" || res.Partition.Ranks != nodes {
		t.Errorf("partition stats = %+v", res.Partition)
	}
	for _, es := range res.PerEpoch {
		if es.Mode != "rowexchange" {
			t.Errorf("epoch %d mode = %q", es.Epoch, es.Mode)
		}
		if es.RemoteRowFraction <= 0 || es.RemoteRowFraction >= 1 {
			t.Errorf("epoch %d remote-row fraction %.3f out of (0,1)", es.Epoch, es.RemoteRowFraction)
		}
	}
}

// TestPartitionedConvergesLikeReplicated: same seed, same dataset, same
// budget — the sharded-table trainer must reach an MRR in the replicated
// baseline's neighborhood (single-owner rows see the same aggregate
// gradients; only the optimizer moment layout and negative-draw order
// differ).
func TestPartitionedConvergesLikeReplicated(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	base := testConfig()
	base.MaxEpochs = 25
	base.StopPatience = 25
	repl, err := Train(base, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Partitioned = true
	sharded, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.MRR < 0.6*repl.MRR {
		t.Errorf("partitioned MRR %.4f too far below replicated %.4f", sharded.MRR, repl.MRR)
	}
	if sharded.MRR < 0.05 {
		t.Errorf("partitioned MRR %.4f shows no learning", sharded.MRR)
	}
}

// TestPartitionedDeterministic: identical runs yield bit-identical
// trajectories and final metrics.
func TestPartitionedDeterministic(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := partitionedConfig()
	cfg.MaxEpochs = 4
	cfg.StopPatience = 4
	a, err := Train(cfg, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.MRR != b.MRR || a.TotalHours != b.TotalHours || a.CommBytes != b.CommBytes {
		t.Fatalf("runs diverge: MRR %v vs %v, hours %v vs %v", a.MRR, b.MRR, a.TotalHours, b.TotalHours)
	}
	if len(a.PerEpoch) != len(b.PerEpoch) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.PerEpoch), len(b.PerEpoch))
	}
	for i := range a.PerEpoch {
		ea, eb := a.PerEpoch[i], b.PerEpoch[i]
		if ea.TrainLoss != eb.TrainLoss || ea.ValAccuracy != eb.ValAccuracy ||
			ea.RemoteRowFraction != eb.RemoteRowFraction {
			t.Fatalf("epoch %d diverges: %+v vs %+v", ea.Epoch, ea, eb)
		}
	}
}

// TestPartitionedHashBaseline: the hash partitioner trains too, with a
// higher remote-row fraction than min-cut on a community-structured KG.
func TestPartitionedHashBaseline(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := partitionedConfig()
	cfg.MaxEpochs = 2
	cfg.StopPatience = 2
	mc, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PartitionBy = "hash"
	h, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Partition.Algo != "hash" {
		t.Fatalf("hash run reports algo %q", h.Partition.Algo)
	}
	if mc.Partition.RemoteRowFraction > h.Partition.RemoteRowFraction {
		t.Errorf("mincut planned remote fraction %.3f worse than hash %.3f",
			mc.Partition.RemoteRowFraction, h.Partition.RemoteRowFraction)
	}
}

// TestPartitionedCheckpointRecovery: a mid-training rank crash triggers
// re-partition over the survivors plus replay from the periodic snapshot,
// and the run still converges to a sane model.
func TestPartitionedCheckpointRecovery(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := partitionedConfig()
	cfg.MaxEpochs = 10
	cfg.StopPatience = 10
	cfg.CheckpointEvery = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "part.ckpt")
	cfg.Recover = true
	cfg.FaultPlan = &simnet.FaultPlan{Faults: []simnet.Fault{
		{Kind: simnet.FaultCrash, Rank: 2, At: 0.01},
	}}
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Recoveries == 0 || res.Recovery.RankFailures == 0 {
		t.Fatalf("fault did not trigger recovery: %+v", res.Recovery)
	}
	if res.Recovery.FinalNodes >= 4 {
		t.Fatalf("world did not shrink: %d nodes", res.Recovery.FinalNodes)
	}
	if res.Partition == nil || res.Partition.Ranks != res.Recovery.FinalNodes {
		t.Fatalf("partition stats not rebuilt for the shrunken world: %+v", res.Partition)
	}
	if res.Recovery.Checkpoints == 0 {
		t.Fatal("no checkpoints were taken")
	}
	if math.IsNaN(res.MRR) || res.MRR <= 0 {
		t.Fatalf("post-recovery MRR = %v", res.MRR)
	}
	// The persisted checkpoint is loadable (KGE2 shard-aware gather wrote a
	// full merged model).
	if _, ckpt, err := model.LoadCheckpoint(cfg.CheckpointPath); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	} else if ckpt.Entity.Rows != d.NumEntities || ckpt.Relation.Rows != d.NumRelations {
		t.Fatalf("checkpoint shape %dx%d entities, %d relations", ckpt.Entity.Rows, ckpt.Entity.Cols, ckpt.Relation.Rows)
	}
}

// TestPartitionedWarmStart: a partitioned run warm-starts from a full
// checkpoint (the scatter half of the shard-aware protocol).
func TestPartitionedWarmStart(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	cfg := partitionedConfig()
	cfg.MaxEpochs = 3
	cfg.StopPatience = 3
	first, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.WarmStart = first.FinalParams
	second, err := Train(cfg2, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if second.PerEpoch[0].TrainLoss >= first.PerEpoch[0].TrainLoss {
		t.Errorf("warm start did not help: first-epoch loss %.4f vs cold %.4f",
			second.PerEpoch[0].TrainLoss, first.PerEpoch[0].TrainLoss)
	}
}
