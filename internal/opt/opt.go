// Package opt provides the optimizers and learning-rate schedule used by the
// paper's training loop: Adam with sparse row updates (the paper trains with
// Adam, batch size 10000), plain SGD and Adagrad as references, and the
// reduce-on-plateau schedule with the capped linear scaling rule of §3.4
// (lr = lr0 * min(4, nodes); tolerance 15 epochs; factor 0.1).
package opt

import (
	"math"

	"kgedist/internal/tensor"
)

// Optimizer applies gradients to individual embedding rows. One instance
// serves one parameter matrix; per-row state (Adam moments, Adagrad
// accumulators) lives inside. BeginStep must be called once per optimizer
// step before the ApplyRow calls of that step.
type Optimizer interface {
	// Name identifies the optimizer.
	Name() string
	// BeginStep advances the global step counter used for bias correction.
	BeginStep()
	// ApplyRow updates row in place given its gradient and learning rate.
	ApplyRow(rowID int32, row, grad []float32, lr float32)
}

// NewByName constructs an optimizer for a matrix with the given shape.
// Names: "sgd", "adagrad", "adam". Panics on an unknown name; callers that
// take the name from user input check it with IsKnownOptimizer first.
func NewByName(name string, rows, width int) Optimizer {
	switch name {
	case "sgd":
		return NewSGD()
	case "adagrad":
		return NewAdagrad(rows, width)
	case "adam":
		return NewAdam(rows, width)
	}
	panic("opt: unknown optimizer " + name)
}

// IsKnownOptimizer reports whether NewByName accepts the name.
func IsKnownOptimizer(name string) bool {
	switch name {
	case "sgd", "adagrad", "adam":
		return true
	}
	return false
}

// ---- SGD -------------------------------------------------------------------

// SGD is vanilla stochastic gradient descent.
type SGD struct{}

// NewSGD returns a stateless SGD optimizer.
func NewSGD() *SGD { return &SGD{} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// BeginStep implements Optimizer (no-op).
func (s *SGD) BeginStep() {}

// ApplyRow implements Optimizer.
func (s *SGD) ApplyRow(_ int32, row, grad []float32, lr float32) {
	tensor.Axpy(-lr, grad, row)
}

// ---- Adagrad ---------------------------------------------------------------

// Adagrad keeps a per-coordinate sum of squared gradients.
type Adagrad struct {
	accum *tensor.Matrix
	eps   float32
}

// NewAdagrad returns an Adagrad optimizer for a rows x width matrix.
func NewAdagrad(rows, width int) *Adagrad {
	return &Adagrad{accum: tensor.NewMatrix(rows, width), eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adagrad) Name() string { return "adagrad" }

// BeginStep implements Optimizer (no-op).
func (a *Adagrad) BeginStep() {}

// ApplyRow implements Optimizer.
func (a *Adagrad) ApplyRow(rowID int32, row, grad []float32, lr float32) {
	acc := a.accum.Row(int(rowID))
	for i, g := range grad {
		acc[i] += g * g
		row[i] -= lr * g / (float32(math.Sqrt(float64(acc[i]))) + a.eps)
	}
}

// ---- Adam ------------------------------------------------------------------

// Adam implements Kingma & Ba (2014) with lazily updated sparse rows: only
// rows touched by a step pay moment updates, and bias correction uses the
// global step count, matching the dense-equivalent trajectory for rows that
// are touched every step.
type Adam struct {
	m, v  *tensor.Matrix
	beta1 float32
	beta2 float32
	eps   float32
	step  int
	corr1 float32 // 1 - beta1^step, refreshed by BeginStep
	corr2 float32
}

// NewAdam returns an Adam optimizer for a rows x width matrix with the
// standard hyper-parameters (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam(rows, width int) *Adam {
	return &Adam{
		m:     tensor.NewMatrix(rows, width),
		v:     tensor.NewMatrix(rows, width),
		beta1: 0.9,
		beta2: 0.999,
		eps:   1e-8,
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step returns the number of optimizer steps begun so far.
func (a *Adam) Step() int { return a.step }

// BeginStep implements Optimizer: advances the step count and refreshes the
// bias-correction terms.
func (a *Adam) BeginStep() {
	a.step++
	a.corr1 = 1 - float32(math.Pow(float64(a.beta1), float64(a.step)))
	a.corr2 = 1 - float32(math.Pow(float64(a.beta2), float64(a.step)))
}

// ApplyRow implements Optimizer.
func (a *Adam) ApplyRow(rowID int32, row, grad []float32, lr float32) {
	if a.step == 0 {
		panic("opt: Adam.ApplyRow before BeginStep")
	}
	mr := a.m.Row(int(rowID))
	vr := a.v.Row(int(rowID))
	for i, g := range grad {
		mr[i] = a.beta1*mr[i] + (1-a.beta1)*g
		vr[i] = a.beta2*vr[i] + (1-a.beta2)*g*g
		mHat := mr[i] / a.corr1
		vHat := vr[i] / a.corr2
		row[i] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + a.eps)
	}
}

// ---- Learning-rate schedule -------------------------------------------------

// ScaledLR applies the paper's capped linear scaling rule:
// lr0 * min(cap, nodes). The paper found uncapped linear scaling unstable
// beyond 4 nodes and fixed cap = 4 (§3.4).
func ScaledLR(base float64, nodes, capNodes int) float64 {
	if nodes < capNodes {
		return base * float64(nodes)
	}
	return base * float64(capNodes)
}

// Plateau implements reduce-on-plateau: if the observed validation metric
// (higher is better) fails to improve for Tolerance consecutive epochs, the
// learning rate is multiplied by Factor, never dropping below MinLR.
type Plateau struct {
	lr        float64
	factor    float64
	minLR     float64
	tolerance int

	best    float64
	hasBest bool
	bad     int
}

// NewPlateau builds the paper's schedule: tolerance 15, factor 0.1.
func NewPlateau(initialLR, factor, minLR float64, tolerance int) *Plateau {
	if initialLR <= 0 || factor <= 0 || factor >= 1 || tolerance < 1 {
		panic("opt: invalid Plateau configuration")
	}
	return &Plateau{lr: initialLR, factor: factor, minLR: minLR, tolerance: tolerance}
}

// LR returns the current learning rate.
func (p *Plateau) LR() float64 { return p.lr }

// Observe records an end-of-epoch validation metric (higher is better) and
// returns whether it improved on the best seen so far.
func (p *Plateau) Observe(metric float64) (improved bool) {
	if !p.hasBest || metric > p.best {
		p.best = metric
		p.hasBest = true
		p.bad = 0
		return true
	}
	p.bad++
	if p.bad >= p.tolerance {
		p.bad = 0
		next := p.lr * p.factor
		if next < p.minLR {
			next = p.minLR
		}
		p.lr = next
	}
	return false
}

// Best returns the best metric observed, and whether any was observed.
func (p *Plateau) Best() (float64, bool) { return p.best, p.hasBest }
