// Package kgedist's top-level benchmarks regenerate every table and figure
// of the paper in quick mode (one full experiment per benchmark iteration)
// plus ablation benches for the design choices called out in DESIGN.md §5.
//
// Full-scale regeneration is `go run ./cmd/kgebench -exp all`; these benches
// exercise the identical code paths on reduced datasets so `go test
// -bench=.` finishes in minutes.
package kgedist

import (
	"testing"

	"kgedist/internal/core"
	"kgedist/internal/experiments"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

// benchExperiment runs one registered experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		if _, err := e.Run(experiments.Options{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFig1(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// ---- Ablation benches (DESIGN.md §5) ---------------------------------------

func ablationDataset() *kg.Dataset {
	return kg.Generate(kg.GenConfig{
		Name: "ablation", Entities: 800, Relations: 80, Triples: 6000, Seed: 2,
	})
}

func ablationConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BaseLR = 0.02
	cfg.BatchSize = 500
	cfg.MaxEpochs = 6
	cfg.StopPatience = 6
	cfg.ValSample = 200
	cfg.TestSample = 30
	cfg.Comm = core.CommAllGather
	return cfg
}

// BenchmarkQuantVariants compares training cost across the 1-bit scale
// variants the paper evaluated before choosing max.
func BenchmarkQuantVariants(b *testing.B) {
	d := ablationDataset()
	for _, s := range []grad.Scheme{
		grad.OneBitMax, grad.OneBitAvg, grad.OneBitPosMax,
		grad.OneBitNegMax, grad.OneBitPosAvg, grad.OneBitNegAvg,
	} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Quant = s
				if _, err := core.Train(cfg, d, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkErrorFeedback measures the cost of the residual extension.
func BenchmarkErrorFeedback(b *testing.B) {
	d := ablationDataset()
	for _, ef := range []bool{false, true} {
		name := "off"
		if ef {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Quant = grad.OneBitMax
				cfg.ErrorFeedback = ef
				if _, err := core.Train(cfg, d, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDRSProbePeriod sweeps the dynamic strategy's probe period k.
func BenchmarkDRSProbePeriod(b *testing.B) {
	d := ablationDataset()
	for _, k := range []int{2, 5, 10} {
		b.Run(map[int]string{2: "k2", 5: "k5", 10: "k10"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Comm = core.CommDynamic
				cfg.ProbeEvery = k
				if _, err := core.Train(cfg, d, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelationPartitioner measures the §4.4 partitioner itself
// (sort + prefix sum + binary-searched splits).
func BenchmarkRelationPartitioner(b *testing.B) {
	rng := xrand.New(1)
	triples := make([]kg.Triple, 200000)
	for i := range triples {
		triples[i] = kg.Triple{
			H: int32(rng.Intn(10000)),
			R: int32(rng.Intn(2000)),
			T: int32(rng.Intn(10000)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg.RelationPartition(triples, 2000, 16)
	}
}

// BenchmarkUniformVsRelationPartitionTraining compares end-to-end epoch
// throughput of the two data distributions.
func BenchmarkUniformVsRelationPartitionTraining(b *testing.B) {
	d := ablationDataset()
	for _, rp := range []bool{false, true} {
		name := "uniform"
		if rp {
			name = "relation"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.RelationPartition = rp
				if _, err := core.Train(cfg, d, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectionModes compares training cost across all gradient-row
// selection strategies (the paper's Bernoulli vs the related-work
// baselines).
func BenchmarkSelectionModes(b *testing.B) {
	d := ablationDataset()
	modes := []grad.SelectMode{
		grad.SelectAll, grad.SelectAvgThreshold, grad.SelectAvgTenthThreshold,
		grad.SelectBernoulli, grad.SelectUnbiased,
	}
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.Select = mode
				if _, err := core.Train(cfg, d, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLossObjectives compares the logistic and margin objectives.
func BenchmarkLossObjectives(b *testing.B) {
	d := ablationDataset()
	for _, loss := range []string{"logistic", "margin"} {
		b.Run(loss, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig()
				cfg.LossName = loss
				cfg.Margin = 1
				if _, err := core.Train(cfg, d, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
