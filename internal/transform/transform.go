// Package transform implements the ball→sphere reductions that turn
// maximum inner product search into angular/Euclidean near-neighbour
// search: the asymmetric Neyshabur–Srebro map used by §4.1 of Ahle et
// al., the Bachrach et al. "Xbox" map, the Shrivastava–Li L2-ALSH map,
// and the paper's own §4.2 *symmetric* map built from an explicit
// incoherent vector family.
//
// All maps take data vectors from the unit ball (‖p‖ ≤ 1) and query
// vectors from the ball of radius U, as in the paper's Theorem 3 setup.
package transform

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codes"
	"repro/internal/vec"
)

// normSlack is how far ‖p‖² may overshoot a norm bound before it counts
// as a violation rather than floating point fuzz from ‖p‖ ≈ bound.
const normSlack = 1e-9

// InUnitBall reports whether p is a legal data vector for Simple:
// ‖p‖² ≤ 1 up to the slack Simple.Data tolerates, so a vector that
// passes cannot trip its norm-bound panic.
func InUnitBall(p vec.Vector) bool { return 1-vec.Norm2(p) > -normSlack }

// clampRoot returns √x, treating tiny negative values (floating point
// fuzz from ‖p‖ ≈ 1) as zero and panicking on genuine violations.
func clampRoot(x float64, what string) float64 {
	if x < 0 {
		if x > -normSlack {
			return 0
		}
		panic(fmt.Sprintf("transform: %s: norm bound violated (residual %v)", what, x))
	}
	return math.Sqrt(x)
}

// Simple is the asymmetric SIMPLE-ALSH map of Neyshabur–Srebro, as used
// in §4.1: data p ↦ (p, √(1−‖p‖²), 0) and query q ↦ (q/U, 0, √(1−‖q‖²/U²)).
// Both images lie on the unit sphere in d+2 dimensions and
// Data(p)ᵀQuery(q) = pᵀq/U exactly.
type Simple struct {
	// D is the input dimension, U the query-ball radius.
	D int
	U float64
}

// NewSimple validates parameters and returns the map.
func NewSimple(d int, u float64) (*Simple, error) {
	if d <= 0 {
		return nil, fmt.Errorf("transform: dimension %d must be positive", d)
	}
	if u <= 0 {
		return nil, fmt.Errorf("transform: query radius %v must be positive", u)
	}
	return &Simple{D: d, U: u}, nil
}

// OutputDim returns the embedded dimension d+2.
func (t *Simple) OutputDim() int { return t.D + 2 }

// Data embeds a data vector from the unit ball.
func (t *Simple) Data(p vec.Vector) vec.Vector {
	return t.AppendData(make(vec.Vector, 0, t.D+2), p)
}

// AppendData appends Data(p) to dst and returns the extended slice.
func (t *Simple) AppendData(dst, p vec.Vector) vec.Vector {
	if len(p) != t.D {
		panic(fmt.Sprintf("transform: data dimension %d != %d", len(p), t.D))
	}
	dst = append(dst, p...)
	return append(dst, clampRoot(1-vec.Norm2(p), "Simple.Data"), 0)
}

// Query embeds a query vector from the ball of radius U.
func (t *Simple) Query(q vec.Vector) vec.Vector {
	return t.AppendQuery(make(vec.Vector, 0, t.D+2), q)
}

// AppendQuery appends Query(q) to dst and returns the extended slice.
func (t *Simple) AppendQuery(dst, q vec.Vector) vec.Vector {
	if len(q) != t.D {
		panic(fmt.Sprintf("transform: query dimension %d != %d", len(q), t.D))
	}
	for _, v := range q {
		dst = append(dst, v/t.U)
	}
	return append(dst, 0, clampRoot(1-vec.Norm2(q)/(t.U*t.U), "Simple.Query"))
}

// Xbox is the Bachrach et al. reduction: data p ↦ (p, √(M²−‖p‖²))
// (sphere of radius M, where M bounds the data norms) and query
// q ↦ (q, 0), leaving inner products exactly unchanged. After this map,
// MIPS for a fixed query is equivalent to Euclidean NN on the data
// sphere.
type Xbox struct {
	D int
	// M is the data-norm bound.
	M float64
}

// NewXbox validates parameters and returns the map.
func NewXbox(d int, m float64) (*Xbox, error) {
	if d <= 0 {
		return nil, fmt.Errorf("transform: dimension %d must be positive", d)
	}
	if m <= 0 {
		return nil, fmt.Errorf("transform: data radius %v must be positive", m)
	}
	return &Xbox{D: d, M: m}, nil
}

// OutputDim returns d+1.
func (t *Xbox) OutputDim() int { return t.D + 1 }

// Data embeds a data vector with ‖p‖ ≤ M.
func (t *Xbox) Data(p vec.Vector) vec.Vector {
	if len(p) != t.D {
		panic(fmt.Sprintf("transform: data dimension %d != %d", len(p), t.D))
	}
	out := make(vec.Vector, t.D+1)
	copy(out, p)
	out[t.D] = clampRoot(t.M*t.M-vec.Norm2(p), "Xbox.Data")
	return out
}

// Query embeds a query vector (any norm).
func (t *Xbox) Query(q vec.Vector) vec.Vector {
	if len(q) != t.D {
		panic(fmt.Sprintf("transform: query dimension %d != %d", len(q), t.D))
	}
	out := make(vec.Vector, t.D+1)
	copy(out, q)
	return out
}

// L2ALSH is the original Shrivastava–Li asymmetric map for MIPS with
// p-stable Euclidean LSH: data p is scaled to norm ≤ U0 < 1 and extended
// with m squared-norm powers ‖p‖², ‖p‖⁴, …, ‖p‖^{2^m}; the query is
// normalized and extended with m halves. Maximising inner product then
// matches minimising the Euclidean distance up to an additive error
// U0^{2^{m+1}} that vanishes with m.
type L2ALSH struct {
	D, M int
	// U0 is the data scaling target (default 0.83 per the original paper).
	U0 float64
	// Scale is the factor applied to data vectors (U0 / maxNorm).
	Scale float64
}

// NewL2ALSH builds the map for data whose max norm is maxNorm.
func NewL2ALSH(d, m int, u0, maxNorm float64) (*L2ALSH, error) {
	if d <= 0 || m <= 0 {
		return nil, fmt.Errorf("transform: invalid L2ALSH shape d=%d m=%d", d, m)
	}
	if u0 <= 0 || u0 >= 1 {
		return nil, fmt.Errorf("transform: U0 %v out of (0,1)", u0)
	}
	if maxNorm <= 0 {
		return nil, fmt.Errorf("transform: maxNorm %v must be positive", maxNorm)
	}
	return &L2ALSH{D: d, M: m, U0: u0, Scale: u0 / maxNorm}, nil
}

// OutputDim returns d+m.
func (t *L2ALSH) OutputDim() int { return t.D + t.M }

// Data embeds a data vector.
func (t *L2ALSH) Data(p vec.Vector) vec.Vector {
	if len(p) != t.D {
		panic(fmt.Sprintf("transform: data dimension %d != %d", len(p), t.D))
	}
	out := make(vec.Vector, t.D+t.M)
	for i, v := range p {
		out[i] = v * t.Scale
	}
	n2 := vec.Norm2(out[:t.D])
	pow := n2
	for j := 0; j < t.M; j++ {
		out[t.D+j] = pow
		pow = pow * pow
	}
	return out
}

// Query embeds a query vector (normalized internally).
func (t *L2ALSH) Query(q vec.Vector) vec.Vector {
	if len(q) != t.D {
		panic(fmt.Sprintf("transform: query dimension %d != %d", len(q), t.D))
	}
	out := make(vec.Vector, t.D+t.M)
	n := vec.Norm(q)
	if n > 0 {
		for i, v := range q {
			out[i] = v / n
		}
	}
	for j := 0; j < t.M; j++ {
		out[t.D+j] = 0.5
	}
	return out
}

// AdditiveError returns the U0^{2^{m+1}} term by which the distance
// objective deviates from exact MIPS ordering.
func (t *L2ALSH) AdditiveError() float64 {
	return math.Pow(t.U0, math.Pow(2, float64(t.M+1)))
}

// SignALSH is the Shrivastava–Li sign-ALSH map for MIPS under sign
// random projections: data p is scaled to norm ≤ U0 and extended with m
// terms 1/2 − ‖p′‖^{2^{j+1}}; the query is normalized and zero-padded.
// The embedded inner product equals the scaled pᵀq while ‖Data(p)‖
// concentrates around √(m/4 + ‖p′‖^{2^{m+1}}), so hyperplane hashing on
// the images approximately ranks by inner product.
type SignALSH struct {
	D, M int
	// U0 is the data scaling target, Scale the applied factor U0/maxNorm.
	U0, Scale float64
}

// NewSignALSH builds the map for data whose max norm is maxNorm.
func NewSignALSH(d, m int, u0, maxNorm float64) (*SignALSH, error) {
	if d <= 0 || m <= 0 {
		return nil, fmt.Errorf("transform: invalid SignALSH shape d=%d m=%d", d, m)
	}
	if u0 <= 0 || u0 >= 1 {
		return nil, fmt.Errorf("transform: U0 %v out of (0,1)", u0)
	}
	if maxNorm <= 0 {
		return nil, fmt.Errorf("transform: maxNorm %v must be positive", maxNorm)
	}
	return &SignALSH{D: d, M: m, U0: u0, Scale: u0 / maxNorm}, nil
}

// OutputDim returns d+m.
func (t *SignALSH) OutputDim() int { return t.D + t.M }

// Data embeds a data vector.
func (t *SignALSH) Data(p vec.Vector) vec.Vector {
	if len(p) != t.D {
		panic(fmt.Sprintf("transform: data dimension %d != %d", len(p), t.D))
	}
	out := make(vec.Vector, t.D+t.M)
	for i, v := range p {
		out[i] = v * t.Scale
	}
	pow := vec.Norm2(out[:t.D])
	for j := 0; j < t.M; j++ {
		out[t.D+j] = 0.5 - pow
		pow = pow * pow
	}
	return out
}

// Query embeds a query vector (normalized internally, zero padding).
func (t *SignALSH) Query(q vec.Vector) vec.Vector {
	if len(q) != t.D {
		panic(fmt.Sprintf("transform: query dimension %d != %d", len(q), t.D))
	}
	out := make(vec.Vector, t.D+t.M)
	n := vec.Norm(q)
	if n > 0 {
		for i, v := range q {
			out[i] = v / n
		}
	}
	return out
}

// Symmetric is the paper's §4.2 map: a *symmetric* reduction to the unit
// sphere that preserves inner products up to ±ε for all pairs of
// *distinct* vectors. It maps f(p) = (p, √(1−‖p‖²)·v_p) where {v_u} is
// an explicit ε-incoherent family indexed by the vector's fixed-point
// bit representation (Reed–Solomon construction of [38]).
//
// Identical vectors collide at inner product 1 (they get the same v_p),
// which is exactly the case Definition 2 is relaxed to ignore.
type Symmetric struct {
	D int
	// Family is the incoherent collection supplying the tail vectors.
	Family *codes.Incoherent
	// Bits is the fixed-point precision used to key vectors (k in §4.2).
	Bits int
}

// NewSymmetric builds the map for dimension d with k-bit fixed-point
// coordinates and incoherence eps. The family is sized to 2^min(dk, 40)
// keys — beyond that the key space is hashed, which preserves the
// guarantee with high probability.
func NewSymmetric(d, k int, eps float64) (*Symmetric, error) {
	if d <= 0 || k <= 0 || k > 16 {
		return nil, fmt.Errorf("transform: invalid Symmetric shape d=%d k=%d", d, k)
	}
	keyBits := d * k
	if keyBits > 40 {
		keyBits = 40
	}
	fam, err := codes.NewIncoherent(uint64(1)<<uint(keyBits), eps)
	if err != nil {
		return nil, err
	}
	return &Symmetric{D: d, Family: fam, Bits: k}, nil
}

// OutputDim returns d + p² where p is the RS field size.
func (t *Symmetric) OutputDim() int { return t.D + t.Family.Dim() }

// Quantize rounds v to the map's fixed-point grid; vectors are keyed by
// their quantized form, so callers should quantize before storing if
// they need exact self-collision semantics.
func (t *Symmetric) Quantize(p vec.Vector) vec.Vector {
	scale := float64(int64(1) << uint(t.Bits))
	out := make(vec.Vector, len(p))
	for i, v := range p {
		out[i] = math.Round(v*scale) / scale
	}
	return out
}

// key serialises the quantized coordinates for family lookup.
func (t *Symmetric) key(p vec.Vector) []byte {
	buf := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// Map embeds a vector from the unit ball onto the unit sphere in
// OutputDim dimensions. The same function serves data and queries —
// that is the point of §4.2.
func (t *Symmetric) Map(p vec.Vector) vec.Vector {
	if len(p) != t.D {
		panic(fmt.Sprintf("transform: dimension %d != %d", len(p), t.D))
	}
	qp := t.Quantize(p)
	tail := clampRoot(1-vec.Norm2(qp), "Symmetric.Map")
	sp := t.Family.VectorForKey(t.key(qp))
	out := make(vec.Vector, t.OutputDim())
	copy(out, qp)
	for i, pos := range sp.Positions {
		out[t.D+i*sp.BlockSize+pos] = tail * sp.Scale
	}
	return out
}

// Eps returns the certified incoherence (and hence inner-product error)
// bound of the family.
func (t *Symmetric) Eps() float64 { return t.Family.Eps() }
