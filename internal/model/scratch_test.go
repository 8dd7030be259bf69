package model

import (
	"testing"

	"kgedist/internal/xrand"
)

func TestScratchViewsDisjoint(t *testing.T) {
	s := NewScratch(8)
	views := [][]float32{s.H, s.R, s.T, s.GH, s.GR, s.GT}
	for i, v := range views {
		if len(v) != 8 {
			t.Fatalf("view %d has len %d, want 8", i, len(v))
		}
		for j := range v {
			v[j] = float32(i)
		}
	}
	for i, v := range views {
		for j, x := range v {
			if x != float32(i) {
				t.Fatalf("view %d[%d] = %v — views overlap", i, j, x)
			}
		}
	}
	if s.Width() != 8 {
		t.Fatalf("Width() = %d, want 8", s.Width())
	}
}

func TestScratchZeroGrads(t *testing.T) {
	s := NewScratch(4)
	for i := range s.GH {
		s.GH[i], s.GR[i], s.GT[i] = 1, 2, 3
		s.H[i] = 9
	}
	s.ZeroGrads()
	for i := range s.GH {
		if s.GH[i] != 0 || s.GR[i] != 0 || s.GT[i] != 0 {
			t.Fatal("ZeroGrads left gradient values")
		}
		if s.H[i] != 9 {
			t.Fatal("ZeroGrads touched the embedding snapshots")
		}
	}
}

func TestScratchScoreMatchesModel(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe"} {
		m := New(name, 8)
		p := NewParams(m, 20, 4)
		p.Init(m, xrand.New(3))
		s := NewScratch(m.Width())
		got := s.Score(m, p, 5, 2, 11)
		want := m.ScoreRows(p.Entity.Row(5), p.Relation.Row(2), p.Entity.Row(11))
		if got != want {
			t.Errorf("%s: Scratch.Score = %v, model = %v", name, got, want)
		}
	}
}

// The score and gradient sweep through a warm Scratch must not allocate —
// it is a per-triple inner loop (asserted with testing.AllocsPerRun).
func TestScratchSweepAllocFree(t *testing.T) {
	for _, name := range []string{"complex", "distmult", "transe", "rotate", "transh", "simple"} {
		m := New(name, 16)
		p := NewParams(m, 50, 6)
		p.Init(m, xrand.New(7))
		s := NewScratch(m.Width())
		allocs := testing.AllocsPerRun(100, func() {
			sc := s.Score(m, p, 3, 1, 40)
			s.ZeroGrads()
			m.AccumulateScoreGradRows(s.H, s.R, s.T, sc, s.GH, s.GR, s.GT)
		})
		if allocs != 0 {
			t.Errorf("%s: score+grad sweep allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}
