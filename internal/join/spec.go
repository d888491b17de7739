package join

import (
	"fmt"

	"repro/internal/vec"
)

// Variant distinguishes the signed and unsigned problems.
type Variant int

const (
	// Signed thresholds the inner product pᵀq.
	Signed Variant = iota
	// Unsigned thresholds |pᵀq|.
	Unsigned
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Signed:
		return "signed"
	case Unsigned:
		return "unsigned"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Spec is a (cs, s) join specification per Definition 1: report, for
// each q with some pᵀq ≥ S, at least one pair at ≥ C·S.
type Spec struct {
	Variant Variant
	// S is the promise threshold, C ∈ (0, 1] the approximation factor.
	S, C float64
}

// Validate checks the specification parameters.
func (sp Spec) Validate() error {
	if sp.Variant != Signed && sp.Variant != Unsigned {
		return fmt.Errorf("join: unknown variant %d", int(sp.Variant))
	}
	if sp.S <= 0 {
		return fmt.Errorf("join: threshold s=%v must be positive", sp.S)
	}
	if sp.C <= 0 || sp.C > 1 {
		return fmt.Errorf("join: approximation c=%v out of (0,1]", sp.C)
	}
	return nil
}

// CS returns the acceptance threshold c·s.
func (sp Spec) CS() float64 { return sp.C * sp.S }

// CheckGuarantee verifies a result against Definition 1 by brute force:
// every query with a partner at ≥ s must have a reported pair whose
// true inner product (per the variant) is ≥ c·s, and every reported
// pair must actually clear c·s. Returns nil when the guarantee holds.
func CheckGuarantee(P, Q []vec.Vector, res Result, sp Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	value := func(p, q vec.Vector) float64 {
		if sp.Variant == Signed {
			return vec.Dot(p, q)
		}
		return vec.AbsDot(p, q)
	}
	reported := make(map[int]Match, len(res.Matches))
	for _, m := range res.Matches {
		if m.PIdx < 0 || m.PIdx >= len(P) || m.QIdx < 0 || m.QIdx >= len(Q) {
			return fmt.Errorf("join: match %+v out of range", m)
		}
		if v := value(P[m.PIdx], Q[m.QIdx]); v < sp.CS()-1e-12 {
			return fmt.Errorf("join: reported pair (%d,%d) has value %v < cs %v",
				m.PIdx, m.QIdx, v, sp.CS())
		}
		reported[m.QIdx] = m
	}
	for qi, q := range Q {
		promised := false
		for _, p := range P {
			if value(p, q) >= sp.S {
				promised = true
				break
			}
		}
		if promised {
			if _, ok := reported[qi]; !ok {
				return fmt.Errorf("join: query %d has a partner at >= s=%v but no reported pair",
					qi, sp.S)
			}
		}
	}
	return nil
}
