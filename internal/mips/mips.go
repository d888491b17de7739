// Package mips implements the exact maximum-inner-product-search
// baselines the paper positions itself against: the linear scan, the
// norm-pruned descending scan (the LEMP-style bound ‖p‖·‖q‖ of
// Teflioudi et al. [50]), and a Ram–Gray style ball tree with the
// maximum-inner-product bound qᵀc + r·‖q‖ [43]. These are the "exact
// methods [that] do not guarantee subquadratic running time" and they
// suffer the curse of dimensionality — which the benchmarks make
// visible — but on structured data they prune aggressively and are the
// practical yardstick for the approximate structures.
package mips

import (
	"fmt"
	"sort"

	"repro/internal/vec"
)

// Result is an exact MIPS answer with the work spent finding it.
type Result struct {
	Index int
	Value float64
	// Scanned counts candidate vectors whose inner product was evaluated.
	Scanned int
}

// LinearScan evaluates every inner product (the Θ(nd) baseline).
func LinearScan(data []vec.Vector, q vec.Vector) Result {
	res := Result{Index: -1}
	for i, p := range data {
		res.Scanned++
		if v := vec.Dot(p, q); res.Index == -1 || v > res.Value {
			res.Index, res.Value = i, v
		}
	}
	return res
}

// NormPruned is the descending-norm scan: data is sorted by ‖p‖ once;
// a query walks the list from the largest norm and stops as soon as
// ‖p‖·‖q‖ — an upper bound on every remaining inner product — cannot
// beat the best found so far (the Cauchy–Schwarz prefix bound that
// LEMP [50] builds on).
type NormPruned struct {
	data  []vec.Vector
	order []int // indices sorted by descending norm
	norms []float64
}

// NewNormPruned preprocesses the data in O(n log n).
func NewNormPruned(data []vec.Vector) (*NormPruned, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mips: empty data set")
	}
	np := &NormPruned{
		data:  data,
		order: make([]int, len(data)),
		norms: make([]float64, len(data)),
	}
	for i, p := range data {
		np.order[i] = i
		np.norms[i] = vec.Norm(p)
	}
	sort.Slice(np.order, func(a, b int) bool {
		return np.norms[np.order[a]] > np.norms[np.order[b]]
	})
	return np, nil
}

// Query returns the exact MIPS answer, typically scanning only a norm
// prefix of the data.
func (np *NormPruned) Query(q vec.Vector) Result {
	qn := vec.Norm(q)
	res := Result{Index: -1}
	for _, i := range np.order {
		if res.Index != -1 && np.norms[i]*qn <= res.Value {
			break // no remaining vector can win
		}
		res.Scanned++
		if v := vec.Dot(np.data[i], q); res.Index == -1 || v > res.Value {
			res.Index, res.Value = i, v
		}
	}
	return res
}

// BallTree is a Ram–Gray style exact MIPS tree: a binary space
// partition where each node stores the centroid c and covering radius r
// of its points, giving the upper bound
//
//	max_{p ∈ node} pᵀq ≤ qᵀc + r·‖q‖
//
// used for best-first branch-and-bound search.
type BallTree struct {
	data []vec.Vector
	root *ballNode
	// LeafSize is the scan threshold at leaves.
	LeafSize int
}

type ballNode struct {
	center      vec.Vector
	radius      float64
	points      []int // leaf payload (nil for internal nodes)
	left, right *ballNode
}

// NewBallTree builds the tree in O(n log n · d) expected time.
func NewBallTree(data []vec.Vector, leafSize int) (*BallTree, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mips: empty data set")
	}
	if leafSize <= 0 {
		return nil, fmt.Errorf("mips: leaf size %d must be positive", leafSize)
	}
	t := &BallTree{data: data, LeafSize: leafSize}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx)
	return t, nil
}

// build recursively splits the index set by the dimension-of-max-spread
// midpoint rule.
func (t *BallTree) build(idx []int) *ballNode {
	node := &ballNode{center: t.centroid(idx)}
	for _, i := range idx {
		if d := vec.Norm(vec.Sub(t.data[i], node.center)); d > node.radius {
			node.radius = d
		}
	}
	if len(idx) <= t.LeafSize {
		node.points = idx
		return node
	}
	dim, mid := t.splitRule(idx)
	var left, right []int
	for _, i := range idx {
		if t.data[i][dim] < mid {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		node.points = idx // degenerate split: make a leaf
		return node
	}
	node.left = t.build(left)
	node.right = t.build(right)
	return node
}

func (t *BallTree) centroid(idx []int) vec.Vector {
	c := vec.New(len(t.data[0]))
	for _, i := range idx {
		vec.Axpy(1, t.data[i], c)
	}
	return vec.Scale(c, 1/float64(len(idx)))
}

// splitRule picks the coordinate with maximum spread and its midpoint.
func (t *BallTree) splitRule(idx []int) (int, float64) {
	d := len(t.data[0])
	bestDim, bestSpread, bestMid := 0, -1.0, 0.0
	for dim := 0; dim < d; dim++ {
		lo, hi := t.data[idx[0]][dim], t.data[idx[0]][dim]
		for _, i := range idx[1:] {
			v := t.data[i][dim]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestDim, bestSpread, bestMid = dim, spread, (lo+hi)/2
		}
	}
	return bestDim, bestMid
}

// mipBound is the Ram–Gray node bound max pᵀq ≤ qᵀc + r‖q‖.
func mipBound(n *ballNode, q vec.Vector, qNorm float64) float64 {
	return vec.Dot(q, n.center) + n.radius*qNorm
}

// Query returns the exact MIPS answer via branch-and-bound.
func (t *BallTree) Query(q vec.Vector) Result {
	res := Result{Index: -1}
	qNorm := vec.Norm(q)
	t.search(t.root, q, qNorm, &res)
	return res
}

func (t *BallTree) search(n *ballNode, q vec.Vector, qNorm float64, res *Result) {
	if res.Index != -1 && mipBound(n, q, qNorm) <= res.Value {
		return // the whole ball is dominated
	}
	if n.points != nil {
		for _, i := range n.points {
			res.Scanned++
			if v := vec.Dot(t.data[i], q); res.Index == -1 || v > res.Value {
				res.Index, res.Value = i, v
			}
		}
		return
	}
	// Descend into the more promising child first for tighter pruning.
	lb, rb := mipBound(n.left, q, qNorm), mipBound(n.right, q, qNorm)
	first, second := n.left, n.right
	if rb > lb {
		first, second = n.right, n.left
	}
	t.search(first, q, qNorm, res)
	t.search(second, q, qNorm, res)
}

// Depth returns the tree height (for diagnostics).
func (t *BallTree) Depth() int { return depth(t.root) }

func depth(n *ballNode) int {
	if n == nil || n.points != nil {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if r > l {
		l = r
	}
	return l + 1
}
