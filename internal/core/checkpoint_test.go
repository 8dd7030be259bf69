package core_test

import (
	"testing"

	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/testkit"
)

// TestCheckpointLeavesTrajectoryUnchanged pins that periodic snapshots are
// pure observation: each training path trains the same seeded job with
// CheckpointEvery 0 and 2, and the two runs must agree on every epoch's
// loss, validation accuracy and exchange mode, and on the final model bit
// for bit. It covers the three checkpoint merges — the shared-memory merge
// of channel replicas, the shard gather of Partitioned, and the collective
// relation gather of a process world.
func TestCheckpointLeavesTrajectoryUnchanged(t *testing.T) {
	d := testkit.GoldenDataset()
	drsRP := func(c *core.Config) {
		c.Comm = core.CommDynamic
		c.ProbeEvery = 2
		c.Select = grad.SelectBernoulli
		c.RelationPartition = true
	}
	paths := []struct {
		name   string
		mutate func(*core.Config)
		run    func(testkit.Scenario) (*core.Result, error)
	}{
		{"channel-drs-rp", drsRP, func(sc testkit.Scenario) (*core.Result, error) {
			return testkit.RunScenario(sc, d)
		}},
		{"channel-partitioned", func(c *core.Config) { c.Partitioned = true }, func(sc testkit.Scenario) (*core.Result, error) {
			return testkit.RunScenario(sc, d)
		}},
		{"tcp-drs-rp", drsRP, func(sc testkit.Scenario) (*core.Result, error) {
			return testkit.RunScenarioTCP(sc, d)
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			var runs [2]*core.Result
			for i, every := range []int{0, 2} {
				sc := testkit.Scenario{Name: p.name, Nodes: 3, Mutate: func(c *core.Config) {
					p.mutate(c)
					c.MaxEpochs = 6
					c.CheckpointEvery = every
				}}
				res, err := p.run(sc)
				if err != nil {
					t.Fatalf("CheckpointEvery=%d: %v", every, err)
				}
				runs[i] = res
			}
			plain, ckpt := runs[0], runs[1]
			if plain.Recovery.Checkpoints != 0 || ckpt.Recovery.Checkpoints != 3 {
				t.Fatalf("checkpoints = %d and %d, want 0 and 3",
					plain.Recovery.Checkpoints, ckpt.Recovery.Checkpoints)
			}
			if len(plain.PerEpoch) != 6 || len(ckpt.PerEpoch) != 6 {
				t.Fatalf("epochs = %d and %d, want 6", len(plain.PerEpoch), len(ckpt.PerEpoch))
			}
			for i, a := range plain.PerEpoch {
				b := ckpt.PerEpoch[i]
				if a.TrainLoss != b.TrainLoss || a.ValAccuracy != b.ValAccuracy || a.Mode != b.Mode {
					t.Errorf("epoch %d: (loss %v, val %v, %s) without checkpoints, (%v, %v, %s) with",
						a.Epoch, a.TrainLoss, a.ValAccuracy, a.Mode, b.TrainLoss, b.ValAccuracy, b.Mode)
				}
			}
			for _, m := range [][2][]float32{
				{plain.FinalParams.Entity.Data, ckpt.FinalParams.Entity.Data},
				{plain.FinalParams.Relation.Data, ckpt.FinalParams.Relation.Data},
			} {
				for i := range m[0] {
					if m[0][i] != m[1][i] {
						t.Fatalf("final params differ at index %d: %v vs %v", i, m[0][i], m[1][i])
					}
				}
			}
		})
	}
}
