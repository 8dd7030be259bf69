package core

import (
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

func TestDynamicCompressValidation(t *testing.T) {
	good := testConfig()
	good.Comm = CommDynamicCompress
	good.CompressHold = 3
	good.CompressWarmup = 5
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dyncomp config rejected: %v", err)
	}
	if CommDynamicCompress.String() != "dyncomp" {
		t.Fatalf("CommDynamicCompress.String() = %q", CommDynamicCompress.String())
	}
	// Knobs the controller owns itself, plus the hysteresis-field rules
	// (DESIGN.md §13): each must be rejected with a named conflict.
	bad := []func(*Config){
		func(c *Config) { c.Quant = grad.OneBitMax },
		func(c *Config) { c.Select = grad.SelectBernoulli },
		func(c *Config) { c.ErrorFeedback = true },
		func(c *Config) { c.CompressHold = -1 },
		func(c *Config) { c.CompressWarmup = -1 },
		func(c *Config) { c.Comm = CommAllReduce }, // hysteresis without dyncomp
		func(c *Config) { c.Partitioned = true; c.TrackEpochStats = false },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad dyncomp config %d accepted", i)
		}
	}
}

// The adaptive pipeline end to end: the ladder engages, the per-epoch rung
// column agrees with the CompressionSteps ledger, and the entropy signal is
// recorded in (0, 1). Trajectory determinism across fabrics is pinned by the
// testkit dyncomp/tcp-dyncomp scenarios; this is the in-package smoke.
func TestTrainDynamicCompress(t *testing.T) {
	skipIfShort(t)
	cfg := testConfig()
	cfg.Comm = CommDynamicCompress
	cfg.CompressHold = 1
	cfg.CompressWarmup = 1
	cfg.MaxEpochs = 8
	cfg.TrackEpochStats = true
	res, err := Train(cfg, testDataset(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CompressionSteps) == 0 {
		t.Fatal("ladder never engaged")
	}
	if res.CommBytes == 0 {
		t.Fatal("no communication recorded")
	}
	stepAt := make(map[int]string, len(res.CompressionSteps))
	for _, s := range res.CompressionSteps {
		stepAt[s.Epoch] = s.Level
	}
	level := grad.LevelFP32
	for _, e := range res.PerEpoch {
		if e.Mode != "dyncomp" {
			t.Fatalf("epoch %d ran mode %q", e.Epoch, e.Mode)
		}
		if want, ok := stepAt[e.Epoch]; ok {
			level++
			if level.String() != want {
				t.Fatalf("ledger step at epoch %d says %q, ladder order says %q", e.Epoch, want, level)
			}
		}
		if e.Level != level.String() {
			t.Fatalf("epoch %d rung column %q, ledger implies %q", e.Epoch, e.Level, level)
		}
		if e.GradEntropy <= 0 || e.GradEntropy >= 1 {
			t.Fatalf("epoch %d entropy %v outside (0, 1)", e.Epoch, e.GradEntropy)
		}
	}
}

// A mid-training crash under dyncomp: the attempt restarts from the last
// checkpoint with the controller and residuals back at fp32, and the
// CompressionSteps ledger is cleared with the rest of the attempt state —
// the surviving run re-earns its ladder (DESIGN.md §13), so the final
// ledger must agree with the final rung column with no duplicated steps.
func TestTrainDynamicCompressRecoversFromCrash(t *testing.T) {
	skipIfShort(t)
	cfg := faultConfig(1)
	cfg.Comm = CommDynamicCompress
	cfg.CompressHold = 1
	cfg.CompressWarmup = 1
	cfg.TrackEpochStats = true
	res, err := Train(cfg, testDataset(), 4)
	if err != nil {
		t.Fatalf("Train with recovery: %v", err)
	}
	if res.Recovery.Recoveries != 1 || res.Recovery.FinalNodes != 3 {
		t.Fatalf("recovery stats = %+v, want one recovery to 3 nodes", res.Recovery)
	}
	if len(res.CompressionSteps) == 0 {
		t.Fatal("ladder never re-engaged after recovery")
	}
	stepAt := make(map[int]string, len(res.CompressionSteps))
	for _, s := range res.CompressionSteps {
		if stepAt[s.Epoch] != "" {
			t.Fatalf("duplicated ladder step at epoch %d (stale pre-crash ledger?)", s.Epoch)
		}
		stepAt[s.Epoch] = s.Level
	}
	level := grad.LevelFP32
	for _, e := range res.PerEpoch {
		if want, ok := stepAt[e.Epoch]; ok {
			level++
			if level.String() != want {
				t.Fatalf("ledger step at epoch %d says %q, ladder order says %q", e.Epoch, want, level)
			}
		}
		if e.Level != level.String() {
			t.Fatalf("epoch %d rung column %q, ledger implies %q", e.Epoch, e.Level, level)
		}
	}
}

// White-box: the full compressed pipeline at the top rung (1bit+rs), which
// the calibrated thresholds keep parked on the real datasets — forced here
// by feeding the controller a zero-entropy statistics vector until the
// ladder tops out. Covers the SelectEF banking branch, the selection
// tallies, and the epoch-boundary drain.
func TestCompressedExchangeTopRung(t *testing.T) {
	const width, numEnt, numRel = 8, 64, 16
	w := mpi.NewWorld(simnet.NewCluster(2, simnet.XC40Params()))
	w.Run(func(c *mpi.Comm) {
		cfg := testConfig()
		cfg.Comm = CommDynamicCompress
		cfg.CompressHold = 1
		cfg.CompressWarmup = 1
		x := newExchanger(&cfg, c, width, numEnt, numRel, xrand.New(99).Split(uint64(c.Rank())))

		// All mass in one bucket → normalized entropy 0, below every bar:
		// with hold=1, warmup=1 the ladder tops out in four decisions.
		var flat [grad.CtrlStatsLen]float32
		flat[0] = 4096
		flat[grad.EntropyBuckets] = numEnt
		flat[grad.EntropyBuckets+1] = numEnt
		flat[grad.EntropyBuckets+2] = numEnt
		for i := 0; i < 4; i++ {
			buf := flat
			x.ctrl.AdvanceFrom(buf[:])
		}
		if x.ctrl.Level() != grad.Level1BitRS {
			t.Errorf("ladder at %v, want 1bit+rs", x.ctrl.Level())
			return
		}

		entG := grad.NewSparseGrad(width)
		for i := int32(0); i < numEnt; i++ {
			row := entG.Row(i)
			for j := range row {
				row[j] = (float32(i) + 1) * 0.01 * (float32(j%3) - 1)
			}
		}
		relG := grad.NewSparseGrad(width)
		for i := int32(0); i < numRel; i++ {
			row := relG.Row(i)
			for j := range row {
				row[j] = 0.05 * (float32(j%2)*2 - 1)
			}
		}
		if flops := x.observe(entG); flops <= 0 {
			t.Errorf("observe charged %v flops", flops)
		}
		entAgg, relAgg, cost, err := x.exchange(entG, relG, "dyncomp")
		if err != nil {
			t.Errorf("exchange: %v", err)
			return
		}
		if entAgg == nil || entAgg.Len() == 0 || relAgg == nil || relAgg.Len() == 0 {
			t.Error("empty aggregates from compressed exchange")
		}
		if cost <= 0 {
			t.Errorf("cost = %v, want > 0", cost)
		}
		// The RS rung saw every entity and relation row and banked the
		// dropped ones whole (spread norms make drops certain under the
		// fixed seed).
		if x.selBefore != numEnt+numRel {
			t.Errorf("selBefore = %d, want %d", x.selBefore, numEnt+numRel)
		}
		if x.selDropped == 0 {
			t.Error("RS rung dropped no rows")
		}
		if x.entRes.Len() == 0 {
			t.Error("no residual banked at a lossy rung")
		}
		probe, before, dropped, err := x.advanceCompression()
		if err != nil {
			t.Errorf("advanceCompression: %v", err)
			return
		}
		if probe.Level != grad.Level1BitRS {
			t.Errorf("probe level %v, want 1bit+rs", probe.Level)
		}
		if before != numEnt+numRel || dropped == 0 {
			t.Errorf("drained tallies (%d, %d), want (%d, >0)", before, dropped, numEnt+numRel)
		}
		if x.selBefore != 0 || x.selDropped != 0 {
			t.Error("tallies not reset after drain")
		}
	})
}
