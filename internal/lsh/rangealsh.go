package lsh

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/transform"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// NormRangeMIPS improves the §4.1 construction by norm-range
// partitioning: equation (3)'s exponent ρ = (1−s/U)/(1+(1−2c)s/U)
// degrades as the data-norm spread U grows, so the data is split into
// geometric norm bands [M/2^{i+1}, M/2^i], each band is rescaled to the
// unit ball and indexed under its own SIMPLE-ALSH, and queries probe
// every band, keeping the best verified inner product. Within a band
// the effective norm spread is at most 2, restoring a strong exponent
// regardless of the global spread — the standard range-LSH refinement
// of asymmetric MIPS indexes.
type NormRangeMIPS struct {
	bands []*normBand
	data  []vec.Vector
}

type normBand struct {
	index *Index
	ids   []int // global ids of the band members
	scale float64
	u     float64
}

// NormRangeOptions configures NewNormRangeMIPS.
type NormRangeOptions struct {
	// MaxBands caps the number of geometric bands (default 8); vectors
	// below M/2^MaxBands share the last band.
	MaxBands int
	// K, L are the per-band banding parameters (defaults 8, 16).
	K, L int
	Seed uint64
}

// NewNormRangeMIPS builds the banded index. Zero-norm vectors are
// excluded from all bands (they can never win a MIPS query).
func NewNormRangeMIPS(data []vec.Vector, opts NormRangeOptions) (*NormRangeMIPS, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("lsh: empty data set")
	}
	if opts.MaxBands == 0 {
		opts.MaxBands = 8
	}
	if opts.MaxBands < 1 {
		return nil, fmt.Errorf("lsh: MaxBands %d must be positive", opts.MaxBands)
	}
	if opts.K == 0 {
		opts.K = 8
	}
	if opts.L == 0 {
		opts.L = 16
	}
	d := len(data[0])
	maxNorm := 0.0
	norms := make([]float64, len(data))
	for i, p := range data {
		if len(p) != d {
			return nil, fmt.Errorf("lsh: row %d has dimension %d, want %d", i, len(p), d)
		}
		norms[i] = vec.Norm(p)
		if norms[i] > maxNorm {
			maxNorm = norms[i]
		}
	}
	if maxNorm == 0 {
		return nil, fmt.Errorf("lsh: all data vectors are zero")
	}
	// Band b holds norms in (maxNorm/2^{b+1}, maxNorm/2^b], with the last
	// band absorbing everything smaller.
	members := make([][]int, opts.MaxBands)
	for i, n := range norms {
		if n == 0 {
			continue
		}
		b := 0
		if n < maxNorm {
			b = int(math.Floor(math.Log2(maxNorm / n)))
		}
		if b >= opts.MaxBands {
			b = opts.MaxBands - 1
		}
		members[b] = append(members[b], i)
	}
	rng := xrand.New(opts.Seed)
	nr := &NormRangeMIPS{data: data}
	for b, ids := range members {
		if len(ids) == 0 {
			continue
		}
		bandMax := 0.0
		for _, id := range ids {
			if norms[id] > bandMax {
				bandMax = norms[id]
			}
		}
		scale := 1 / bandMax
		tr, err := transform.NewSimple(d, 1)
		if err != nil {
			return nil, err
		}
		inner, err := NewHyperplane(tr.OutputDim())
		if err != nil {
			return nil, err
		}
		fam, err := NewAsymmetric(fmt.Sprintf("range-alsh-band-%d", b),
			SimpleMaps(tr), inner)
		if err != nil {
			return nil, err
		}
		ix, err := NewIndex(fam, opts.K, opts.L, rng.Split(uint64(b)).Uint64())
		if err != nil {
			return nil, err
		}
		// Sort band members for deterministic insertion order.
		sort.Ints(ids)
		scaled := make([]vec.Vector, len(ids))
		for i, id := range ids {
			scaled[i] = vec.Scaled(data[id], scale)
		}
		ix.InsertAll(scaled)
		nr.bands = append(nr.bands, &normBand{index: ix, ids: ids, scale: scale, u: 1})
	}
	return nr, nil
}

// Bands returns the number of non-empty norm bands.
func (nr *NormRangeMIPS) Bands() int { return len(nr.bands) }

// Query probes every band and returns the global index and exact inner
// product of the best verified candidate, or (-1, 0).
func (nr *NormRangeMIPS) Query(q vec.Vector) (int, float64) {
	probe := q
	if n := vec.Norm(q); n > 1 {
		probe = vec.Scaled(q, (1-1e-12)/n)
	}
	best, bv := -1, 0.0
	for _, band := range nr.bands {
		// The index hashed band-scaled vectors; candidates are scored by
		// the true product, which orders within and across bands alike.
		local, v := band.index.Query(probe, func(local int) float64 {
			return vec.Dot(nr.data[band.ids[local]], q)
		})
		if local >= 0 && (best == -1 || v > bv) {
			best, bv = band.ids[local], v
		}
	}
	return best, bv
}
