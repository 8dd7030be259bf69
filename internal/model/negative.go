package model

import (
	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

// NegSampler draws negative triples by corrupting the head or tail of a
// positive triple with a uniformly random entity (paper §3.1).
type NegSampler struct {
	numEntities int
	rng         *xrand.RNG
}

// NewNegSampler returns a sampler over the given entity universe.
func NewNegSampler(numEntities int, rng *xrand.RNG) *NegSampler {
	if numEntities < 2 {
		panic("model: negative sampling needs at least two entities")
	}
	return &NegSampler{numEntities: numEntities, rng: rng}
}

// Corrupt returns a negative triple derived from pos: with probability 1/2
// the head is replaced, otherwise the tail. The replacement differs from the
// entity it replaces.
func (s *NegSampler) Corrupt(pos kg.Triple) kg.Triple {
	neg := pos
	if s.rng.Bernoulli(0.5) {
		for {
			e := int32(s.rng.Intn(s.numEntities))
			if e != pos.H {
				neg.H = e
				break
			}
		}
	} else {
		for {
			e := int32(s.rng.Intn(s.numEntities))
			if e != pos.T {
				neg.T = e
				break
			}
		}
	}
	return neg
}

// CorruptN fills dst with n independent corruptions of pos, reusing dst's
// backing array when it has capacity.
func (s *NegSampler) CorruptN(pos kg.Triple, n int, dst []kg.Triple) []kg.Triple {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, s.Corrupt(pos))
	}
	return dst
}

// SelectHardest implements the paper's negative sample selection (§4.5):
// draw n negatives, score each with a forward pass, and return the one the
// model finds hardest to classify — the negative with the LEAST negative
// (i.e. highest) score. The second return value is the number of extra
// forward-pass scores spent, for compute-time accounting.
func SelectHardest(m Model, p *Params, s *NegSampler, pos kg.Triple, n int, scratch []kg.Triple) (kg.Triple, int) {
	if n <= 1 {
		return s.Corrupt(pos), 0
	}
	cands := s.CorruptN(pos, n, scratch)
	best := cands[0]
	bestScore := m.Score(p, best)
	for _, c := range cands[1:] {
		if sc := m.Score(p, c); sc > bestScore {
			bestScore = sc
			best = c
		}
	}
	return best, n
}
