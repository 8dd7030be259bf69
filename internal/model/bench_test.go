package model

import (
	"testing"

	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// Per-model kernel benchmarks: one scored triple and one score+grad step
// through six warm local rows, the inner loop of training and serving. The
// triples/sec metric is what the paper's throughput plots are built from.

// benchRows are the six Width()-long rows a scoring and gradient sweep
// needs: snapshots of the head, relation and tail embeddings and their
// gradient accumulators, carved from one backing array.
type benchRows struct {
	h, r, t, gh, gr, gt []float32
}

func benchSetup(name string) (Model, *Params, *benchRows) {
	m := New(name, 64)
	p := NewParams(m, 1000, 20)
	p.Init(m, xrand.New(1))
	w := m.Width()
	b := make([]float32, 6*w)
	return m, p, &benchRows{b[:w], b[w : 2*w], b[2*w : 3*w], b[3*w : 4*w], b[4*w : 5*w], b[5*w:]}
}

// score snapshots the triple's rows from p and scores them.
func (s *benchRows) score(m Model, p *Params, h, r, t int32) float32 {
	copy(s.h, p.Entity.Row(int(h)))
	copy(s.r, p.Relation.Row(int(r)))
	copy(s.t, p.Entity.Row(int(t)))
	return m.ScoreRows(s.h, s.r, s.t)
}

func BenchmarkScore(b *testing.B) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		b.Run(name, func(b *testing.B) {
			m, p, s := benchSetup(name)
			b.ReportAllocs()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += s.score(m, p, int32(i%1000), int32(i%20), int32((i+7)%1000))
			}
			_ = sink
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/sec")
		})
	}
}

func BenchmarkScoreGradStep(b *testing.B) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		b.Run(name, func(b *testing.B) {
			m, p, s := benchSetup(name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := s.score(m, p, int32(i%1000), int32(i%20), int32((i+7)%1000))
				tensor.Zero(s.gh)
				tensor.Zero(s.gr)
				tensor.Zero(s.gt)
				m.AccumulateScoreGradRows(s.h, s.r, s.t, LogisticLossGrad(sc, 1), s.gh, s.gr, s.gt)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/sec")
		})
	}
}
