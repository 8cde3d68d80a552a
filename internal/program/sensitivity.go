package program

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sensitivity is one network's ranking inputs, checked once: the
// Hessian-diagonal sensitivities and the weight magnitudes, both flat in
// mapped order. It also keeps the fixed orders ranked over them. A
// selector policy whose selector carries swim.FixedOrder is ranked at most
// once per Sensitivity, on first use, and every trial, run, pipeline and
// shard built with WithSensitivity on the same value shares that order.
// Each policy value gets its own order. The order depends only on the
// policy and the inputs, so sharing it changes no bit. A Sensitivity is
// safe for concurrent use. Its slices must not change after
// NewSensitivity.
type Sensitivity struct {
	hess, weights []float64

	mu     sync.Mutex
	orders map[*selectorPolicy]func() ([]int, error)
}

// NewSensitivity checks hess and weights and returns them as one value.
// Both must be non-empty and of one length, and every value must be
// finite, because the rankings' order is undefined for NaN.
func NewSensitivity(hess, weights []float64) (*Sensitivity, error) {
	if len(hess) == 0 {
		return nil, errors.New("empty sensitivity vector")
	}
	return newSensitivity(hess, weights)
}

// newSensitivity is NewSensitivity that also accepts nil sensitivities: a
// pipeline with neither WithSensitivity nor WithCalibration ranks by
// magnitude only.
func newSensitivity(hess, weights []float64) (*Sensitivity, error) {
	if len(weights) == 0 {
		return nil, errors.New("empty weight vector")
	}
	if hess != nil && len(hess) != len(weights) {
		return nil, fmt.Errorf("sensitivity/weights length mismatch: %d vs %d", len(hess), len(weights))
	}
	if err := finite("sensitivity", hess); err != nil {
		return nil, err
	}
	if err := finite("weight", weights); err != nil {
		return nil, err
	}
	return &Sensitivity{hess: hess, weights: weights}, nil
}

// finite reports the first non-finite value of a ranking input.
func finite(what string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s %d is %g, want a finite value", what, i, x)
		}
	}
	return nil
}

// order returns p's fixed order over s, ranking it over env on first use;
// nil when p's selector draws its order per trial. env's Hess and Weights
// are s's.
func (s *Sensitivity) order(p *selectorPolicy, env *Env) ([]int, error) {
	s.mu.Lock()
	rank := s.orders[p]
	if rank == nil {
		if s.orders == nil {
			s.orders = make(map[*selectorPolicy]func() ([]int, error))
		}
		rank = sync.OnceValues(func() ([]int, error) { return p.rankFixed(env) })
		s.orders[p] = rank
	}
	s.mu.Unlock()
	return rank()
}
