package model

import (
	"math"
	"testing"

	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

func testParams(m Model, ne, nr int, seed uint64) *Params {
	p := NewParams(m, ne, nr)
	p.Init(m, xrand.New(seed))
	return p
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		m := New(name, 8)
		if m.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, m.Name())
		}
		if m.Dim() != 8 {
			t.Fatalf("Dim = %d", m.Dim())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown model")
		}
	}()
	New("nope", 8)
}

func TestWidths(t *testing.T) {
	if NewComplEx(8).Width() != 16 {
		t.Fatal("ComplEx width should be 2*dim")
	}
	if NewDistMult(8).Width() != 8 || NewTransE(8).Width() != 8 {
		t.Fatal("real model width should be dim")
	}
}

func TestNonPositiveDimPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewComplEx(0) },
		func() { NewDistMult(-1) },
		func() { NewTransE(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestComplExScoreHandComputed(t *testing.T) {
	// dim=1: score = Re(r)Re(h)Re(t) + Re(r)Im(h)Im(t) + Im(r)Re(h)Im(t) - Im(r)Im(h)Re(t)
	m := NewComplEx(1)
	p := NewParams(m, 2, 1)
	// h = 2 + 3i, r = 5 + 7i, t = 11 + 13i
	copy(p.Entity.Row(0), []float32{2, 3})
	copy(p.Entity.Row(1), []float32{11, 13})
	copy(p.Relation.Row(0), []float32{5, 7})
	got := m.Score(p, kg.Triple{H: 0, R: 0, T: 1})
	want := float32(5*2*11 + 5*3*13 + 7*2*13 - 7*3*11)
	if got != want {
		t.Fatalf("score = %v, want %v", got, want)
	}
}

func TestDistMultScoreHandComputed(t *testing.T) {
	m := NewDistMult(2)
	p := NewParams(m, 2, 1)
	copy(p.Entity.Row(0), []float32{1, 2})
	copy(p.Entity.Row(1), []float32{3, 4})
	copy(p.Relation.Row(0), []float32{5, 6})
	got := m.Score(p, kg.Triple{H: 0, R: 0, T: 1})
	if got != 1*5*3+2*6*4 {
		t.Fatalf("score = %v", got)
	}
}

func TestTransEScoreHandComputed(t *testing.T) {
	m := NewTransE(2)
	p := NewParams(m, 2, 1)
	copy(p.Entity.Row(0), []float32{1, 2})
	copy(p.Entity.Row(1), []float32{2, 1})
	copy(p.Relation.Row(0), []float32{1, 1})
	// h + r - t = (0, 2); phi = -4
	got := m.Score(p, kg.Triple{H: 0, R: 0, T: 1})
	if got != -4 {
		t.Fatalf("score = %v", got)
	}
}

// numericalGrad estimates dScore/dParams[row][col] by central differences.
func numericalGrad(m Model, p *Params, tr kg.Triple, mat string, row, col int) float64 {
	const eps = 1e-3
	var target []float32
	if mat == "entity" {
		target = p.Entity.Row(row)
	} else {
		target = p.Relation.Row(row)
	}
	orig := target[col]
	target[col] = orig + eps
	plus := float64(m.Score(p, tr))
	target[col] = orig - eps
	minus := float64(m.Score(p, tr))
	target[col] = orig
	return (plus - minus) / (2 * eps)
}

func TestGradientsMatchNumerical(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		m := New(name, 5)
		p := testParams(m, 4, 3, 42)
		tr := kg.Triple{H: 1, R: 2, T: 3}
		w := m.Width()
		gh := make([]float32, w)
		gr := make([]float32, w)
		gt := make([]float32, w)
		m.AccumulateScoreGrad(p, tr, 1.0, gh, gr, gt)
		for c := 0; c < w; c++ {
			if want := numericalGrad(m, p, tr, "entity", 1, c); math.Abs(float64(gh[c])-want) > 2e-2 {
				t.Fatalf("%s: dScore/dH[%d] = %v, numerical %v", name, c, gh[c], want)
			}
			if want := numericalGrad(m, p, tr, "relation", 2, c); math.Abs(float64(gr[c])-want) > 2e-2 {
				t.Fatalf("%s: dScore/dR[%d] = %v, numerical %v", name, c, gr[c], want)
			}
			if want := numericalGrad(m, p, tr, "entity", 3, c); math.Abs(float64(gt[c])-want) > 2e-2 {
				t.Fatalf("%s: dScore/dT[%d] = %v, numerical %v", name, c, gt[c], want)
			}
		}
	}
}

func TestGradCoefScalesLinearly(t *testing.T) {
	m := NewComplEx(4)
	p := testParams(m, 3, 2, 7)
	tr := kg.Triple{H: 0, R: 1, T: 2}
	w := m.Width()
	g1 := make([]float32, 3*w)
	g2 := make([]float32, 3*w)
	m.AccumulateScoreGrad(p, tr, 1, g1[:w], g1[w:2*w], g1[2*w:])
	m.AccumulateScoreGrad(p, tr, -2.5, g2[:w], g2[w:2*w], g2[2*w:])
	for i := range g1 {
		if math.Abs(float64(g2[i]+2.5*g1[i])) > 1e-5 {
			t.Fatalf("coef scaling broken at %d: %v vs %v", i, g2[i], -2.5*g1[i])
		}
	}
}

func TestGradAccumulates(t *testing.T) {
	m := NewDistMult(3)
	p := testParams(m, 3, 2, 9)
	tr := kg.Triple{H: 0, R: 0, T: 1}
	w := m.Width()
	gh := make([]float32, w)
	gr := make([]float32, w)
	gt := make([]float32, w)
	m.AccumulateScoreGrad(p, tr, 1, gh, gr, gt)
	snapshot := append([]float32(nil), gh...)
	m.AccumulateScoreGrad(p, tr, 1, gh, gr, gt)
	for i := range gh {
		if math.Abs(float64(gh[i]-2*snapshot[i])) > 1e-6 {
			t.Fatal("gradient does not accumulate")
		}
	}
}

func TestLogisticLoss(t *testing.T) {
	// Loss at score 0 is log 2 regardless of label.
	if got := LogisticLoss(0, 1); math.Abs(float64(got)-math.Log(2)) > 1e-6 {
		t.Fatalf("loss(0,+1) = %v", got)
	}
	if got := LogisticLoss(0, -1); math.Abs(float64(got)-math.Log(2)) > 1e-6 {
		t.Fatalf("loss(0,-1) = %v", got)
	}
	// Correctly classified with margin: loss near 0.
	if got := LogisticLoss(10, 1); got > 1e-3 {
		t.Fatalf("loss(10,+1) = %v", got)
	}
	if got := LogisticLoss(-10, -1); got > 1e-3 {
		t.Fatalf("loss(-10,-1) = %v", got)
	}
	// Badly misclassified: loss ~ |score|.
	if got := LogisticLoss(-40, 1); math.Abs(float64(got)-40) > 1e-3 {
		t.Fatalf("loss(-40,+1) = %v", got)
	}
}

func TestLogisticLossGradMatchesNumerical(t *testing.T) {
	const eps = 1e-3
	for _, y := range []float32{1, -1} {
		for _, s := range []float32{-2, -0.5, 0, 0.7, 3} {
			got := LogisticLossGrad(s, y)
			want := (LogisticLoss(s+eps, y) - LogisticLoss(s-eps, y)) / (2 * eps)
			if math.Abs(float64(got-want)) > 1e-3 {
				t.Fatalf("grad(%v,%v) = %v, numerical %v", s, y, got, want)
			}
		}
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Fatalf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got > 0.001 {
		t.Fatalf("Sigmoid(-100) = %v", got)
	}
}

func TestParamsInitStatistics(t *testing.T) {
	m := NewComplEx(16)
	p := NewParams(m, 100, 10)
	p.Init(m, xrand.New(3))
	var sum float64
	for _, v := range p.Entity.Data {
		sum += float64(v)
	}
	mean := sum / float64(len(p.Entity.Data))
	if math.Abs(mean) > 0.01 {
		t.Fatalf("init mean %v too far from 0", mean)
	}
	if p.Entity.NonZeroRows() != 100 {
		t.Fatal("init left zero rows")
	}
}

func TestParamsClone(t *testing.T) {
	m := NewDistMult(4)
	p := testParams(m, 5, 3, 1)
	c := p.Clone()
	c.Entity.Row(0)[0] += 1
	if p.Entity.Row(0)[0] == c.Entity.Row(0)[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestNegSamplerCorrupt(t *testing.T) {
	rng := xrand.New(5)
	s := NewNegSampler(50, rng)
	pos := kg.Triple{H: 3, R: 1, T: 7}
	headChanged, tailChanged := 0, 0
	for i := 0; i < 1000; i++ {
		neg := s.Corrupt(pos)
		if neg.R != pos.R {
			t.Fatal("relation corrupted")
		}
		switch {
		case neg.H != pos.H && neg.T == pos.T:
			headChanged++
			if neg.H == pos.H {
				t.Fatal("head replacement equals original")
			}
		case neg.T != pos.T && neg.H == pos.H:
			tailChanged++
		default:
			t.Fatalf("corruption changed both or neither: %+v", neg)
		}
	}
	if headChanged < 400 || tailChanged < 400 {
		t.Fatalf("corruption side imbalance: %d/%d", headChanged, tailChanged)
	}
}

func TestNegSamplerPanicsTinyUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNegSampler(1, xrand.New(1))
}

func TestCorruptN(t *testing.T) {
	s := NewNegSampler(20, xrand.New(8))
	pos := kg.Triple{H: 1, R: 0, T: 2}
	buf := make([]kg.Triple, 0, 8)
	got := s.CorruptN(pos, 5, buf)
	if len(got) != 5 {
		t.Fatalf("CorruptN len %d", len(got))
	}
	for _, n := range got {
		if n == pos {
			t.Fatal("CorruptN returned the positive")
		}
	}
}

func TestSelectHardestPicksHighestScore(t *testing.T) {
	m := NewDistMult(4)
	p := testParams(m, 30, 3, 11)
	s := NewNegSampler(30, xrand.New(12))
	pos := kg.Triple{H: 1, R: 1, T: 2}
	neg, extra := SelectHardest(m, p, s, pos, 10, nil)
	if extra != 10 {
		t.Fatalf("extra forward passes = %d", extra)
	}
	// Re-draw the same candidates via a fresh sampler with same seed and
	// verify none scores higher.
	s2 := NewNegSampler(30, xrand.New(12))
	cands := s2.CorruptN(pos, 10, nil)
	best := m.Score(p, neg)
	for _, c := range cands {
		if m.Score(p, c) > best {
			t.Fatalf("SelectHardest missed a harder negative")
		}
	}
}

func TestSelectHardestSingleSample(t *testing.T) {
	m := NewDistMult(2)
	p := testParams(m, 10, 2, 1)
	s := NewNegSampler(10, xrand.New(2))
	pos := kg.Triple{H: 0, R: 0, T: 1}
	neg, extra := SelectHardest(m, p, s, pos, 1, nil)
	if extra != 0 {
		t.Fatalf("n=1 should cost no extra passes, got %d", extra)
	}
	if neg == pos {
		t.Fatal("negative equals positive")
	}
}

func TestFlopsPositive(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		m := New(name, 8)
		if m.ScoreFlops() <= 0 || m.GradFlops() <= 0 {
			t.Fatalf("%s: non-positive flop estimates", name)
		}
	}
}

func BenchmarkComplExScore(b *testing.B) {
	m := NewComplEx(64)
	p := testParams(m, 1000, 100, 1)
	tr := kg.Triple{H: 5, R: 7, T: 11}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = m.Score(p, tr)
	}
	_ = sink
}

func BenchmarkComplExGrad(b *testing.B) {
	m := NewComplEx(64)
	p := testParams(m, 1000, 100, 1)
	tr := kg.Triple{H: 5, R: 7, T: 11}
	w := m.Width()
	gh := make([]float32, w)
	gr := make([]float32, w)
	gt := make([]float32, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccumulateScoreGrad(p, tr, 0.1, gh, gr, gt)
	}
}
