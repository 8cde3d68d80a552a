package mapping

import (
	"fmt"

	"swim/internal/nn"
)

// Locator resolves flat mapped-weight indices — the ordering every selector,
// sensitivity vector and Monte-Carlo trial shares — to their (parameter,
// offset) location in O(1) via a dense index table. One Locator serves any
// number of lookups over the same parameter list; Mapped keeps one
// internally, and experiment code that works on raw networks (e.g. the
// Fig. 1 perturbation study) builds its own instead of re-scanning the
// parameter list per lookup.
type Locator struct {
	params  []*nn.Param
	paramOf []int32 // flat index -> parameter index
	offsets []int   // parameter index -> flat start index
}

// NewLocator builds the index table for params in MappedParams order.
func NewLocator(params []*nn.Param) *Locator {
	l := &Locator{params: params}
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	l.paramOf = make([]int32, total)
	l.offsets = make([]int, len(params))
	flat := 0
	for pi, p := range params {
		l.offsets[pi] = flat
		for k, n := 0, p.Size(); k < n; k++ {
			l.paramOf[flat] = int32(pi)
			flat++
		}
	}
	return l
}

// Total returns the number of flat weights covered.
func (l *Locator) Total() int { return len(l.paramOf) }

// Locate returns the parameter index and in-parameter offset of flat weight
// i. It panics on an out-of-range index: flat indices are produced by the
// same code that sizes the table, so a bad one is a programming error, not a
// recoverable condition.
func (l *Locator) Locate(i int) (param, offset int) {
	if i < 0 || i >= len(l.paramOf) {
		panic(fmt.Sprintf("mapping: weight index %d out of range [0,%d)", i, len(l.paramOf)))
	}
	pi := int(l.paramOf[i])
	return pi, i - l.offsets[pi]
}

// Param returns the parameter holding flat weight i and the offset within it.
func (l *Locator) Param(i int) (*nn.Param, int) {
	pi, off := l.Locate(i)
	return l.params[pi], off
}
