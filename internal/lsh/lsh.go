// Package lsh provides the locality-sensitive hashing machinery of the
// IPS-join reproduction: symmetric and asymmetric hash families
// (Definition 2 of Ahle et al.), a banding index for sub-quadratic
// joins, analytic ρ curves for the three schemes compared in the
// paper's Figure 2, and Monte-Carlo collision-probability estimation.
package lsh

import (
	"fmt"
	"math"

	"repro/internal/transform"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Hasher is a single sampled (possibly asymmetric) hash function pair
// (h_p, h_q) in the sense of Definition 2: data vectors are hashed with
// HashData, query vectors with HashQuery, and a "collision" means the
// two values are equal.
type Hasher interface {
	HashData(p vec.Vector) uint64
	HashQuery(q vec.Vector) uint64
}

// Family samples hashers. Implementations must be deterministic given
// the RNG stream.
type Family interface {
	Sample(rng *xrand.RNG) Hasher
	// Name identifies the family in reports.
	Name() string
}

// symmetricHasher adapts a single-function hash to the Hasher interface.
type symmetricHasher struct {
	f func(vec.Vector) uint64
}

func (s symmetricHasher) HashData(p vec.Vector) uint64  { return s.f(p) }
func (s symmetricHasher) HashQuery(q vec.Vector) uint64 { return s.f(q) }

// Hyperplane is Charikar's sign-random-projection family on R^d:
// h(x) = [aᵀx ≥ 0] with Gaussian a. For unit vectors with angle θ the
// collision probability is exactly 1 − θ/π.
type Hyperplane struct{ D int }

// NewHyperplane returns the family for dimension d.
func NewHyperplane(d int) (*Hyperplane, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d must be positive", d)
	}
	return &Hyperplane{D: d}, nil
}

// Name implements Family.
func (h *Hyperplane) Name() string { return "hyperplane" }

// Sample implements Family.
func (h *Hyperplane) Sample(rng *xrand.RNG) Hasher {
	a := vec.Vector(rng.NormalVec(h.D))
	return symmetricHasher{f: func(x vec.Vector) uint64 {
		if vec.Dot(a, x) >= 0 {
			return 1
		}
		return 0
	}}
}

// CrossPolytope is the cross-polytope family: apply a random Gaussian
// rotation and hash to the index (and sign) of the largest-magnitude
// coordinate, giving 2d buckets. It is the practical stand-in for the
// optimal spherical LSH of Andoni–Razenshteyn used analytically in §4.1.
type CrossPolytope struct{ D int }

// NewCrossPolytope returns the family for dimension d.
func NewCrossPolytope(d int) (*CrossPolytope, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d must be positive", d)
	}
	return &CrossPolytope{D: d}, nil
}

// Name implements Family.
func (c *CrossPolytope) Name() string { return "cross-polytope" }

// Sample implements Family.
func (c *CrossPolytope) Sample(rng *xrand.RNG) Hasher {
	// A d×d iid Gaussian matrix is a rotation up to scaling, which argmax
	// hashing is invariant to.
	g := vec.NewMatrix(c.D, c.D)
	for i := range g.Data {
		g.Data[i] = rng.Normal()
	}
	return symmetricHasher{f: func(x vec.Vector) uint64 {
		y := g.MulVec(x)
		idx, _ := vec.ArgMaxAbs(y)
		if idx < 0 {
			return 0
		}
		h := uint64(2 * idx)
		if y[idx] < 0 {
			h++
		}
		return h
	}}
}

// E2LSH is the p-stable Euclidean family of Datar et al.:
// h(x) = ⌊(aᵀx + b)/w⌋ with Gaussian a and uniform b ∈ [0, w).
type E2LSH struct {
	D int
	W float64
}

// NewE2LSH returns the family with bucket width w.
func NewE2LSH(d int, w float64) (*E2LSH, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d must be positive", d)
	}
	if w <= 0 {
		return nil, fmt.Errorf("lsh: bucket width %v must be positive", w)
	}
	return &E2LSH{D: d, W: w}, nil
}

// Name implements Family.
func (e *E2LSH) Name() string { return "e2lsh" }

// Sample implements Family.
func (e *E2LSH) Sample(rng *xrand.RNG) Hasher {
	a := vec.Vector(rng.NormalVec(e.D))
	b := rng.Float64() * e.W
	return symmetricHasher{f: func(x vec.Vector) uint64 {
		return uint64(int64(math.Floor((vec.Dot(a, x) + b) / e.W)))
	}}
}

// MinHash is the minwise family over binary vectors (interpreted as
// sets: coordinate i belongs to the set when x[i] > 0.5). Collision
// probability equals the Jaccard similarity |x∩y|/|x∪y|.
type MinHash struct{ D int }

// NewMinHash returns the family for universe size d.
func NewMinHash(d int) (*MinHash, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d must be positive", d)
	}
	return &MinHash{D: d}, nil
}

// Name implements Family.
func (m *MinHash) Name() string { return "minhash" }

// permHash returns a pseudo-random priority for element i under the
// sampled permutation seed.
func permHash(seed uint64, i int) uint64 {
	x := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Sample implements Family.
func (m *MinHash) Sample(rng *xrand.RNG) Hasher {
	seed := rng.Uint64()
	return symmetricHasher{f: func(x vec.Vector) uint64 {
		best := ^uint64(0)
		empty := true
		for i, v := range x {
			if v > 0.5 {
				empty = false
				if h := permHash(seed, i); h < best {
					best = h
				}
			}
		}
		if empty {
			return ^uint64(0) // empty sets collide only with empty sets
		}
		return best
	}}
}

// AsymMinHash is the MH-ALSH family of Shrivastava–Li [46]: data sets
// are padded with fresh dummy elements up to size M before minwise
// hashing, queries are hashed unpadded. For |p∩q| = a it gives collision
// probability a/(M + |q| − a).
type AsymMinHash struct {
	D int
	// M is the padding target (must be ≥ every data-set size).
	M int
}

// NewAsymMinHash returns the family with padding target m.
func NewAsymMinHash(d, m int) (*AsymMinHash, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d must be positive", d)
	}
	if m <= 0 {
		return nil, fmt.Errorf("lsh: padding target %d must be positive", m)
	}
	return &AsymMinHash{D: d, M: m}, nil
}

// Name implements Family.
func (a *AsymMinHash) Name() string { return "mh-alsh" }

type asymMinHasher struct {
	seed uint64
	d, m int
}

func (h asymMinHasher) support(x vec.Vector) (best uint64, size int) {
	best = ^uint64(0)
	for i, v := range x {
		if v > 0.5 {
			size++
			if ph := permHash(h.seed, i); ph < best {
				best = ph
			}
		}
	}
	return best, size
}

// HashData pads the set with (m − |x|) dummy elements drawn from a
// disjoint universe before taking the min.
func (h asymMinHasher) HashData(p vec.Vector) uint64 {
	best, size := h.support(p)
	if size > h.m {
		panic(fmt.Sprintf("lsh: data set size %d exceeds padding target %d", size, h.m))
	}
	for j := 0; j < h.m-size; j++ {
		// Dummy universe starts at d and is unique per data vector slot j;
		// the paper pads with *new* elements, so dummies never collide with
		// query elements. Using index d+j is enough because queries are
		// never padded.
		if ph := permHash(h.seed, h.d+1+j); ph < best {
			best = ph
		}
	}
	return best
}

// HashQuery hashes the unpadded query set.
func (h asymMinHasher) HashQuery(q vec.Vector) uint64 {
	best, size := h.support(q)
	if size == 0 {
		return ^uint64(0) - 1 // never collides with data minima
	}
	return best
}

// Sample implements Family.
func (a *AsymMinHash) Sample(rng *xrand.RNG) Hasher {
	return asymMinHasher{seed: rng.Uint64(), d: a.D, m: a.M}
}

// MapPair holds the two sides of an asymmetric pre-transform. Neither
// map may keep its argument: an Index hashes probes out of reused
// buffers.
type MapPair struct {
	Data  func(vec.Vector) vec.Vector
	Query func(vec.Vector) vec.Vector
	// AppendData and AppendQuery, when set, are Data and Query in append
	// form: they append the image of v to dst and return the extended
	// slice, the values Data and Query return. An Index maps through
	// them, into a buffer it reuses, so a warm probe maps without
	// allocating.
	AppendData, AppendQuery func(dst, v vec.Vector) vec.Vector
}

// SimpleMaps is the SIMPLE map's pair, append forms included.
func SimpleMaps(t *transform.Simple) MapPair {
	return MapPair{Data: t.Data, Query: t.Query, AppendData: t.AppendData, AppendQuery: t.AppendQuery}
}

// Asymmetric composes a (data, query) pre-transform with an inner
// (usually symmetric) family on the transformed space. This is how the
// paper's §4.1 ALSH is assembled: SIMPLE map + spherical LSH.
type Asymmetric struct {
	Maps  MapPair
	Inner Family
	Label string
}

// NewAsymmetric wires a transform pair in front of an inner family.
func NewAsymmetric(label string, maps MapPair, inner Family) (*Asymmetric, error) {
	if maps.Data == nil || maps.Query == nil {
		return nil, fmt.Errorf("lsh: asymmetric family needs both maps")
	}
	if inner == nil {
		return nil, fmt.Errorf("lsh: asymmetric family needs an inner family")
	}
	return &Asymmetric{Maps: maps, Inner: inner, Label: label}, nil
}

// Name implements Family.
func (a *Asymmetric) Name() string { return a.Label }

type asymHasher struct {
	inner Hasher
	maps  MapPair
}

func (h asymHasher) HashData(p vec.Vector) uint64  { return h.inner.HashData(h.maps.Data(p)) }
func (h asymHasher) HashQuery(q vec.Vector) uint64 { return h.inner.HashQuery(h.maps.Query(q)) }

// Sample implements Family.
func (a *Asymmetric) Sample(rng *xrand.RNG) Hasher {
	return asymHasher{inner: a.Inner.Sample(rng), maps: a.Maps}
}

// EstimateCollision estimates Pr[h_p(p) = h_q(q)] over `trials`
// independently sampled hashers. Deterministic given the seed.
func EstimateCollision(f Family, p, q vec.Vector, trials int, seed uint64) float64 {
	if trials <= 0 {
		panic(fmt.Sprintf("lsh: trials %d must be positive", trials))
	}
	rng := xrand.New(seed)
	hits := 0
	for i := 0; i < trials; i++ {
		h := f.Sample(rng)
		if h.HashData(p) == h.HashQuery(q) {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}
