package main

import (
	"fmt"

	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/vec"
)

// This file is the only place the traced pass touches the packages
// below internal/server. Each adapter calls a layer's public functions
// the way the server's own index for the workload does, so a rung of
// the ladder prices that layer alone.

// scanBlockRows is internal/flat's scan granularity, needed only to
// turn explain's pruned-block counts into a fraction of all blocks.
const scanBlockRows = 256

// rerankOverfetch is the server's default widening of an int8
// candidate set before the exact re-rank.
const rerankOverfetch = 4

// ALSH banding defaults (internal/server's, when the spec leaves them
// zero).
const (
	alshK = 8
	alshL = 16
)

// flatLayer is the workload's own store type over every row, laid out
// as the server lays it out — one store per shard, record id modulo
// shardCount — so the flat rung of a ladder is exactly the scan work
// the rungs above contain, minus fan-out and merge. (One store over
// all rows is not a floor for the sharded server: on this data a
// 40 000-row Store.TopK takes longer than four 10 000-row ones.)
type flatLayer struct {
	all   *flat.Store   // every row in one store: tiers, rebuild baselines
	parts []*flat.Store // the same rows as the shards hold them
	// topK is the workload's single-query scan over every part; it
	// returns the number of hits found.
	topK func(q vec.Vector) (int, error)
	// multi answers a batch the way the shard index would: one
	// multi-query sweep per part where the tier has one, a per-query
	// loop where it falls back.
	multi func(qs []vec.Vector) error
	// rebuild is the index work a shard redoes on every write; nil when
	// the store is the index.
	rebuild func(st *flat.Store) error
	indexes []*lsh.Index // the ALSH banding index of each part, if any
}

func newFlatLayer(w *workload, in *inputs) (*flatLayer, error) {
	all, err := flat.FromVectors(in.items)
	if err != nil {
		return nil, err
	}
	fl := &flatLayer{all: all}
	split := make([][]vec.Vector, shardCount)
	for id, v := range in.items {
		split[id%shardCount] = append(split[id%shardCount], v)
	}
	for _, rows := range split {
		st, err := flat.FromVectors(rows)
		if err != nil {
			return nil, err
		}
		fl.parts = append(fl.parts, st)
	}
	// perPart builds topK and multi from one part's scan functions.
	perPart := func(one func(p int, q vec.Vector) (int, error), many func(p int, qst *flat.Store) error) {
		fl.topK = func(q vec.Vector) (int, error) {
			total := 0
			for p := range fl.parts {
				n, err := one(p, q)
				if err != nil {
					return 0, err
				}
				total += n
			}
			return total, nil
		}
		fl.multi = func(qs []vec.Vector) error {
			if many == nil {
				for _, q := range qs {
					if _, err := fl.topK(q); err != nil {
						return err
					}
				}
				return nil
			}
			qst, err := flat.FromVectors(qs)
			if err != nil {
				return err
			}
			for p := range fl.parts {
				if err := many(p, qst); err != nil {
					return err
				}
			}
			return nil
		}
	}
	switch {
	case w.spec.Kind == server.KindNormScan:
		sorted := make([]*flat.NormSorted, len(fl.parts))
		for p, st := range fl.parts {
			sorted[p] = flat.NewNormSorted(st)
		}
		perPart(func(p int, q vec.Vector) (int, error) {
			hs, _, err := sorted[p].TopK(q, topK, w.unsigned)
			return len(hs), err
		}, func(p int, qst *flat.Store) error {
			_, _, err := sorted[p].TopKMulti(qst, topK, w.unsigned)
			return err
		})
		fl.rebuild = func(st *flat.Store) error { flat.NewNormSorted(st); return nil }
	case w.spec.Kind == server.KindALSH:
		for _, st := range fl.parts {
			ix, err := buildALSH(st)
			if err != nil {
				return nil, err
			}
			fl.indexes = append(fl.indexes, ix)
		}
		perPart(func(p int, q vec.Vector) (int, error) {
			acc := flat.NewAcc(topK)
			for _, pi := range alshCandidates(fl.indexes[p], q, w.unsigned) {
				v := fl.parts[p].Dot(pi, q)
				if w.unsigned && v < 0 {
					v = -v
				}
				acc.Offer(pi, v)
			}
			return len(acc.Hits()), nil
		}, nil)
		fl.rebuild = func(st *flat.Store) error { _, err := buildALSH(st); return err }
	case w.spec.Precision == server.PrecisionI8:
		quantized := make([]*flat.StoreI8, len(fl.parts))
		for p, st := range fl.parts {
			quantized[p] = flat.NewStoreI8(st)
		}
		perPart(func(p int, q vec.Vector) (int, error) {
			cands, err := quantized[p].TopK(q, topK*rerankOverfetch, w.unsigned, 1)
			if err != nil {
				return 0, err
			}
			acc := flat.NewAcc(topK)
			for _, c := range cands {
				acc.Offer(c.Index, fl.parts[p].Dot(c.Index, q))
			}
			return len(acc.Hits()), nil
		}, nil)
		fl.rebuild = func(st *flat.Store) error { flat.NewStoreI8(st); return nil }
	default:
		perPart(func(p int, q vec.Vector) (int, error) {
			hs, err := fl.parts[p].TopK(q, topK, w.unsigned, 1)
			return len(hs), err
		}, func(p int, qst *flat.Store) error {
			_, err := fl.parts[p].TopKMulti(qst, topK, w.unsigned)
			return err
		})
	}
	return fl, nil
}

// buildALSH is §4.1's structure as a shard builds it: the SIMPLE map in
// front of hyperplane LSH, banded at the default K and L.
func buildALSH(st *flat.Store) (*lsh.Index, error) {
	tr, err := transform.NewSimple(st.Dim(), 1)
	if err != nil {
		return nil, err
	}
	inner, err := lsh.NewHyperplane(tr.OutputDim())
	if err != nil {
		return nil, err
	}
	fam, err := lsh.NewAsymmetric("simple-alsh", lsh.MapPair{Data: tr.Data, Query: tr.Query}, inner)
	if err != nil {
		return nil, err
	}
	ix, err := lsh.NewIndex(fam, alshK, alshL, 1)
	if err != nil {
		return nil, err
	}
	ix.InsertAll(st.Rows())
	return ix, nil
}

// alshCandidates probes q and, for unsigned search, −q (the paper's
// reduction), returning each colliding row once.
func alshCandidates(ix *lsh.Index, q vec.Vector, unsigned bool) []int {
	out := ix.Candidates(q)
	if !unsigned {
		return out
	}
	seen := make(map[int]bool, len(out))
	for _, pi := range out {
		seen[pi] = true
	}
	for _, pi := range ix.Candidates(vec.Neg(q)) {
		if !seen[pi] {
			out = append(out, pi)
		}
	}
	return out
}

// cloneAppend is what a shard does to its store on every write before
// any index work: copy all rows, append the new ones.
func (fl *flatLayer) cloneAppend(vs []vec.Vector) error {
	return fl.parts[0].CloneGrow(len(vs)).AppendAll(vs)
}

// newJoinEngine is the workload's join engine for one data part.
func newJoinEngine(w *workload, part *flat.Store) (join.Engine, error) {
	switch w.joinEngine {
	case "exact":
		return join.Tiled{}, nil
	case "normpruned":
		return join.NormPruned{Sorted: flat.NewNormSorted(part)}, nil
	case "lsh":
		return join.LSH{
			NewFamily: func(d int) (lsh.Family, error) { return lsh.NewHyperplane(d) },
			K:         alshK, L: alshL,
		}, nil
	}
	return nil, fmt.Errorf("no flat engine for join %q", w.joinEngine)
}

// tiers holds the three storage precisions over the same rows, for the
// bandwidth rungs.
type tiers struct {
	f64    *flat.Store
	f32    *flat.Store32
	i8     *flat.StoreI8
	sorted *flat.NormSorted
	masked *flat.Tombstones // every fourth row dead
}

func newTiers(all *flat.Store) *tiers {
	t := &tiers{f64: all, f32: flat.NewStore32(all), i8: flat.NewStoreI8(all),
		sorted: flat.NewNormSorted(all), masked: flat.NewTombstones(all.Len())}
	for i := 0; i < all.Len(); i += 4 {
		t.masked.Kill(i)
	}
	return t
}
