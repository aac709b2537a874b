// Package ml implements the two model families Pond's control plane uses
// (§5), from scratch on the standard library: CART decision trees,
// bootstrap-aggregated random forests (the scikit-learn RandomForest
// stand-in for latency-insensitivity classification), and gradient-boosted
// regression trees with pinball loss (the LightGBM quantile-GBM stand-in
// for untouched-memory prediction).
//
// Every fit is deterministic given its seed; the experiment harness relies
// on that for reproducible figures.
package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pond/internal/stats"
)

// Criterion selects the split quality measure.
type Criterion int

const (
	// Variance minimizes within-node sum of squared errors (regression).
	Variance Criterion = iota
	// Gini minimizes within-node Gini impurity (binary classification
	// with 0/1 targets).
	Gini
)

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth    int
	MinLeaf     int     // minimum samples per leaf
	FeatureFrac float64 // fraction of features considered per split (1.0 = all)
	Criterion   Criterion
}

// DefaultTreeConfig returns a sane regression-tree configuration.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 6, MinLeaf: 5, FeatureFrac: 1.0, Criterion: Variance}
}

// node is one tree node; leaves carry a value, internal nodes a split.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	leaf      bool
	leafID    int
	value     float64
}

// Tree is a fitted CART tree.
type Tree struct {
	root     *node
	leaves   []*node
	features int
}

// Presort carries every feature's rows in ascending order of that
// feature, one packed word per row: the index of the row's run of equal
// x (its group) in the high 32 bits and the row in the low 32, with
// gx[f][g] the x value of feature f's run g. Building it costs one sort
// per feature; every tree grown from it finds splits by linear scans of
// the packed orders instead of re-sorting at each node, and partitions
// the words down the tree. A gradient-boosting run fits all its stages
// on the same rows, so one Presort amortizes over the whole ensemble.
//
// Group ids stand in for x values bit for bit. A group starts exactly
// where neighbouring sorted values differ (`!=`), so a group boundary is
// where a scan of the values sees xk != xk1. Values inside one run
// compare equal, so any of them meets a threshold the same way; they can
// differ only as -0 and +0, whose neighbouring runs are nonzero, so the
// midpoint (gx[f][g]+gx[f][g'])/2 has the bits of (xk+xk1)/2.
type Presort struct {
	words [][]uint64  // words[f][k] = group<<32 | row, ascending by X[row][f]
	gx    [][]float64 // gx[f][g] = the x value of feature f's run g
}

// columns transposes the row-major training matrix into per-feature
// columns.
func columns(X [][]float64) [][]float64 {
	cols := make([][]float64, len(X[0]))
	for f := range cols {
		col := make([]float64, len(X))
		for i := range X {
			col[i] = X[i][f]
		}
		cols[f] = col
	}
	return cols
}

// NewPresort argsorts every feature column of X and packs the orders.
func NewPresort(X [][]float64) *Presort {
	if len(X) == 0 {
		panic("ml: presort of empty matrix")
	}
	n, nf := len(X), len(X[0])
	ps := &Presort{words: make([][]uint64, nf), gx: make([][]float64, nf)}
	wordBuf := make([]uint64, nf*n)
	gxBuf := make([]float64, 0, nf*n)
	col := make([]float64, n)
	ord := make([]int32, n)
	for f := range nf {
		for i := range X {
			col[i] = X[i][f]
		}
		for i := range ord {
			ord[i] = int32(i)
		}
		// The order of rows with equal x is the order in which a node sums
		// their targets, so this sort and its starting order fix the bits.
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		words := wordBuf[f*n : (f+1)*n]
		start := len(gxBuf)
		for k, i := range ord {
			if k == 0 || col[i] != col[ord[k-1]] {
				gxBuf = append(gxBuf, col[i])
			}
			words[k] = uint64(len(gxBuf)-start-1)<<32 | uint64(i)
		}
		ps.words[f] = words
		ps.gx[f] = gxBuf[start:len(gxBuf):len(gxBuf)]
	}
	return ps
}

// FitTree grows a tree on rows X (all of equal length) with targets y.
// The RNG drives per-split feature subsampling; pass a fresh fork per
// tree for forests.
//
// Two growth strategies cover the two model families: with a small
// FeatureFrac (forests examine ~sqrt of hundreds of counters per split)
// each node sorts just its candidate features; with a large FeatureFrac
// (the GBM examines most features at every split) presorted per-feature
// orders are partitioned down the tree instead.
func FitTree(X [][]float64, y []float64, cfg TreeConfig, r *stats.Rand) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("ml: bad training set: %d rows, %d targets", len(X), len(y)))
	}
	if cfg.FeatureFrac > 0 && cfg.FeatureFrac < sparseFracThreshold {
		return fitTreeSparse(X, y, cfg, r)
	}
	return FitTreePresorted(X, y, cfg, r, NewPresort(X))
}

// sparseFracThreshold selects between the sparse (sort candidates per
// node) and dense (partition presorted lists) growth strategies.
const sparseFracThreshold = 0.5

// fitTreeSparse grows a tree sorting candidate features at each node —
// cheaper than maintaining presorted lists when splits examine only a
// small feature subset.
func fitTreeSparse(X [][]float64, y []float64, cfg TreeConfig, r *stats.Rand) *Tree {
	g := newSparseGrower(columns(X), nil, y, cfg)
	return g.fit(len(X), r)
}

// splitPair is one (value, target) sample during a candidate-feature
// scan.
type splitPair struct{ x, y float64 }

// sparseGrower carries the per-fit state of the sparse strategy. All
// scratch buffers (sort, partition, feature subset) are reused across
// nodes — and, for forests, across trees — so growing a tree allocates
// only its nodes.
type sparseGrower struct {
	cols [][]float64
	// rowOf maps a working row index to its row in cols; nil means the
	// identity. Forests grow each tree over a bootstrap index list through
	// this indirection instead of materializing resampled matrices.
	rowOf []int32
	y     []float64
	cfg   TreeConfig

	pairs, pairsAlt []splitPair
	idx, part       []int32
	perm            []int

	// Rank tables (built by buildRanks for multi-tree fits): ord[f][k] is
	// the matrix row at position k of feature f's ascending order, and
	// xSorted[f][k] the value there. With them, and a shared per-node
	// multiplicity array (cnt) over matrix rows, a candidate scan walks
	// the precomputed order directly — no per-node sorting at all. yRow
	// holds targets by matrix row (for forests, the pre-bootstrap y). nil
	// ord falls back to fill-and-sort.
	ord     [][]int32
	xSorted [][]float64
	yRow    []float64
	cnt     []int32
	// binaryY records that every target is exactly 0 or 1 (classification
	// forests), unlocking the collapsed-multiplicity scan.
	binaryY bool
	// packed[f][k] compresses rank k of feature f into one word — matrix
	// row in bits 0..14, the 0/1 target in bit 15, and the equal-x group
	// index in the high 16 bits — so the hot candidate walk streams one
	// 4-byte array per rank instead of separate row/value/target loads.
	// Built only for binary targets and fewer than 32768 rows.
	packed [][]uint32
	// rankOf[f][row] inverts ord: the rank of a matrix row under feature
	// f. With it, sparse nodes scatter their rows into occ (a rank
	// bitmap, kept all-zero between scans) and visit set bits instead of
	// walking every rank. rowsU is the per-node unique-row scratch.
	rankOf [][]uint16
	occ    []uint64
	rowsU  []int32
}

// newSparseGrower builds a grower with normalized limits and scratch
// buffers sized for n working rows.
func newSparseGrower(cols [][]float64, rowOf []int32, y []float64, cfg TreeConfig) *sparseGrower {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	n := len(y)
	return &sparseGrower{
		cols:     cols,
		rowOf:    rowOf,
		y:        y,
		cfg:      cfg,
		pairs:    make([]splitPair, n),
		pairsAlt: make([]splitPair, n),
		idx:      make([]int32, n),
		part:     make([]int32, 0, n),
	}
}

// fit grows one tree over the first n working rows. It resets the shared
// row-index buffer, so a forest can call it once per tree.
func (g *sparseGrower) fit(n int, r *stats.Rand) *Tree {
	idx := g.idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &Tree{features: len(g.cols)}
	t.root = t.growSparse(g, idx, 0, r)
	return t
}

// growSparse recursively builds the subtree over the rows in idx. The
// split partitions idx in place (stably, via the grower's scratch
// buffer); the children recurse on disjoint subslices of it.
func (t *Tree) growSparse(g *sparseGrower, idx []int32, depth int, r *stats.Rand) *node {
	if depth >= g.cfg.MaxDepth || len(idx) < 2*g.cfg.MinLeaf || pure(g.y, idx) {
		return makeLeaf(t, g.y, idx)
	}
	feat, thr, ok := bestSplitSparse(g, idx, r)
	if !ok {
		return makeLeaf(t, g.y, idx)
	}
	col := g.cols[feat]
	nl := 0
	part := g.part[:0]
	if g.rowOf == nil {
		for _, i := range idx {
			if col[i] <= thr {
				idx[nl] = i
				nl++
			} else {
				part = append(part, i)
			}
		}
	} else {
		for _, i := range idx {
			if col[g.rowOf[i]] <= thr {
				idx[nl] = i
				nl++
			} else {
				part = append(part, i)
			}
		}
	}
	g.part = part
	copy(idx[nl:], part)
	left, right := idx[:nl], idx[nl:]
	if len(left) < g.cfg.MinLeaf || len(right) < g.cfg.MinLeaf {
		return makeLeaf(t, g.y, idx)
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      t.growSparse(g, left, depth+1, r),
		right:     t.growSparse(g, right, depth+1, r),
	}
}

// bestSplitSparse sorts each candidate feature's rows and scans the
// thresholds with the same prefix statistics as the dense strategy.
func bestSplitSparse(g *sparseGrower, idx []int32, r *stats.Rand) (feat int, thr float64, ok bool) {
	candidates := featureSubsetInto(g.perm, len(g.cols), g.cfg.FeatureFrac, r)
	g.perm = candidates
	y := g.y
	var totSum, totSq float64
	if g.cfg.Criterion == Gini {
		// Gini scores never read the squared-sum statistics.
		for _, i := range idx {
			totSum += y[i]
		}
	} else {
		for _, i := range idx {
			totSum += y[i]
			totSq += y[i] * y[i]
		}
	}
	if g.ord != nil && len(idx) >= countingSortMin {
		return bestSplitCounted(g, idx, candidates, totSum, totSq)
	}
	pairs := g.pairs[:len(idx)]
	bestScore := infinity
	n := float64(len(idx))
	for _, f := range candidates {
		g.sortedPairs(f, idx, pairs)
		var lSum, lSq float64
		for k := 0; k < len(pairs)-1; k++ {
			lSum += pairs[k].y
			lSq += pairs[k].y * pairs[k].y
			if pairs[k].x == pairs[k+1].x {
				continue // cannot split between equal values
			}
			ln := float64(k + 1)
			rn := n - ln
			if int(ln) < g.cfg.MinLeaf || int(rn) < g.cfg.MinLeaf {
				continue
			}
			score := splitScore(g.cfg.Criterion, lSum, lSq, totSum, totSq, ln, rn)
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (pairs[k].x + pairs[k+1].x) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// bestSplitCounted is bestSplitSparse's scan over the precomputed
// feature orders: one multiplicity array over matrix rows (shared by
// every candidate) replaces per-candidate sorting, and each candidate is
// a single walk of its global order. Prefix sums accumulate one sample
// at a time in the exact order the sorted-pairs scan would, so the
// chosen split is identical bit for bit.
func bestSplitCounted(g *sparseGrower, idx []int32, candidates []int, totSum, totSq float64) (feat int, thr float64, ok bool) {
	mult := g.cnt
	clear(mult)
	rowsU := g.rowsU[:0]
	if g.rowOf == nil {
		for _, i := range idx {
			if mult[i] == 0 {
				rowsU = append(rowsU, i)
			}
			mult[i]++
		}
	} else {
		for _, i := range idx {
			row := g.rowOf[i]
			if mult[row] == 0 {
				rowsU = append(rowsU, row)
			}
			mult[row]++
		}
	}
	g.rowsU = rowsU
	yRow := g.yRow
	minLeaf := g.cfg.MinLeaf
	crit := g.cfg.Criterion
	n := float64(len(idx))
	bestScore := infinity
	// With 0/1 targets every prefix statistic is an exact small integer,
	// so candidate splits can be pre-screened in exact rational
	// arithmetic: the Gini score is 2N/D with N = a(l-a)r + b(r-b)l and
	// D = l*r over integer left-sum a, left-count l, right-sum b,
	// right-count r. A candidate whose rational score exceeds the current
	// best's by more than a 2^-40 relative margin cannot win the float
	// comparison (the float evaluation's rounding slop is < 2^-49
	// relative; when the cross products are below 2^40 the integer gap of
	// >= 1 itself guarantees the margin), so only potential winners pay
	// the two-division float score — which still decides, keeping the
	// fitted tree bit-identical. int64 cross products stay in range for
	// node sizes up to 4096.
	gini01 := crit == Gini && g.binaryY && g.packed != nil && len(idx) <= 4096
	nI := int64(len(idx))
	totI := int64(totSum)
	minL := int64(minLeaf)
	var bestN, bestD int64 // rational value of bestScore; bestD == 0 means unset
	for _, f := range candidates {
		var lSum, lSq, count float64
		prevX := 0.0
		started := false
		if gini01 {
			// Gini ignores the squared-sum prefix, and m repeated
			// additions of a 0/1 target equal one float64(m) addition bit
			// for bit, so the inner multiplicity loop collapses too. The
			// walk streams the packed words; x values load only inside the
			// rare passed-filter branch, and the boundary test compares
			// group ids (identical grouping to x != prevX by
			// construction).
			pk := g.packed[f]
			xs := g.xSorted[f]
			var lSumI, countI int64
			prevGrp := int64(-1)
			prevR := 0
			if 2*len(rowsU) < len(pk) {
				// Sparse node: visiting set bits of a rank bitmap beats
				// testing every rank. The walk zeroes each word it
				// drains, restoring occ's all-zero invariant.
				rof := g.rankOf[f]
				occ := g.occ
				for _, row := range rowsU {
					rk := rof[row]
					occ[rk>>6] |= 1 << (rk & 63)
				}
				nW := (len(pk) + 63) >> 6
			occWalk:
				for wi := 0; wi < nW; wi++ {
					w64 := occ[wi]
					if w64 == 0 {
						continue
					}
					occ[wi] = 0
					base := wi << 6
					for w64 != 0 {
						r := base + bits.TrailingZeros64(w64)
						w64 &= w64 - 1
						w := pk[r]
						m := int64(mult[w&0x7fff])
						grp := int64(w >> 16)
						if grp != prevGrp && prevGrp >= 0 {
							l := countI
							rr := nI - countI
							if l >= minL && rr >= minL {
								a := lSumI
								b := totI - a
								nk := a*(l-a)*rr + b*(rr-b)*l
								dk := l * rr
								if rhs := bestN * dk; bestD == 0 || nk*bestD <= rhs+(rhs>>40) {
									score := splitScore(Gini, float64(a), 0, totSum, 0, float64(l), float64(rr))
									if score < bestScore {
										bestScore = score
										bestN, bestD = nk, dk
										feat = f
										thr = (xs[prevR] + xs[r]) / 2
										ok = true
									}
								}
							}
						}
						if w&(1<<15) != 0 {
							lSumI += m
						}
						countI += m
						if countI == nI {
							break occWalk
						}
						prevGrp = grp
						prevR = r
					}
				}
				continue
			}
			for r, w := range pk {
				m := int64(mult[w&0x7fff])
				if m == 0 {
					continue
				}
				grp := int64(w >> 16)
				if grp != prevGrp && prevGrp >= 0 {
					l := countI
					rr := nI - countI
					if l >= minL && rr >= minL {
						a := lSumI
						b := totI - a
						nk := a*(l-a)*rr + b*(rr-b)*l
						dk := l * rr
						if rhs := bestN * dk; bestD == 0 || nk*bestD <= rhs+(rhs>>40) {
							score := splitScore(Gini, float64(a), 0, totSum, 0, float64(l), float64(rr))
							if score < bestScore {
								bestScore = score
								bestN, bestD = nk, dk
								feat = f
								thr = (xs[prevR] + xs[r]) / 2
								ok = true
							}
						}
					}
				}
				if w&(1<<15) != 0 {
					lSumI += m
				}
				countI += m
				if countI == nI {
					// All node rows consumed: no boundary can follow, so
					// the remaining ranks are all skips.
					break
				}
				prevGrp = grp
				prevR = r
			}
			continue
		}
		ord := g.ord[f]
		xs := g.xSorted[f]
		for r, row := range ord {
			m := mult[row]
			if m == 0 {
				continue
			}
			x := xs[r]
			if started && x != prevX {
				ln := count
				rn := n - ln
				if int(ln) >= minLeaf && int(rn) >= minLeaf {
					score := splitScore(crit, lSum, lSq, totSum, totSq, ln, rn)
					if score < bestScore {
						bestScore = score
						feat = f
						thr = (prevX + x) / 2
						ok = true
					}
				}
			}
			yv := yRow[row]
			for k := int32(0); k < m; k++ {
				lSum += yv
				lSq += yv * yv
			}
			count += float64(m)
			if count == n {
				break
			}
			prevX = x
			started = true
		}
	}
	return feat, thr, ok
}

// countingSortMin is the node size above which the precomputed-order
// walk of bestSplitCounted beats sorting the node's pairs (the walk
// costs one pass over the whole matrix regardless of node size).
const countingSortMin = 48

// sortedPairs fills pairs with the node's (x, y) samples for feature f,
// ascending by x, comparison-sorting through the grower's scratch.
func (g *sparseGrower) sortedPairs(f int, idx []int32, pairs []splitPair) {
	y := g.y
	col := g.cols[f]
	if g.rowOf == nil {
		for k, i := range idx {
			pairs[k] = splitPair{x: col[i], y: y[i]}
		}
	} else {
		for k, i := range idx {
			pairs[k] = splitPair{x: col[g.rowOf[i]], y: y[i]}
		}
	}
	sortPairsByX(pairs, g.pairsAlt[:len(pairs)])
}

// buildRanks precomputes the per-feature ascending orders that switch
// large-node scans to bestSplitCounted. yRow must hold targets by matrix
// row. Worth its one radix sort per feature only when many trees will
// grow over the same matrix (forests).
func (g *sparseGrower) buildRanks(yRow []float64) {
	n := len(g.cols[0])
	g.ord = make([][]int32, len(g.cols))
	g.xSorted = make([][]float64, len(g.cols))
	g.yRow = yRow
	g.cnt = make([]int32, n)
	ordBuf := make([]int32, len(g.cols)*n)
	xBuf := make([]float64, len(g.cols)*n)
	pairs := make([]splitPair, n)
	scratch := make([]splitPair, n)
	for f, col := range g.cols {
		for i, x := range col {
			pairs[i] = splitPair{x: x, y: float64(i)}
		}
		sortPairsByX(pairs, scratch)
		ord := ordBuf[f*n : (f+1)*n]
		xs := xBuf[f*n : (f+1)*n]
		for k, p := range pairs {
			xs[k] = p.x
			ord[k] = int32(p.y)
		}
		g.ord[f] = ord
		g.xSorted[f] = xs
	}
	g.binaryY = true
	for _, v := range yRow {
		if v != 0 && v != 1 {
			g.binaryY = false
			break
		}
	}
	if !g.binaryY || n >= 1<<15 {
		return
	}
	g.packed = make([][]uint32, len(g.cols))
	g.rankOf = make([][]uint16, len(g.cols))
	packBuf := make([]uint32, len(g.cols)*n)
	rankBuf := make([]uint16, len(g.cols)*n)
	for f := range g.cols {
		ord := g.ord[f]
		xs := g.xSorted[f]
		pk := packBuf[f*n : (f+1)*n]
		rof := rankBuf[f*n : (f+1)*n]
		grp := uint32(0)
		for k, row := range ord {
			if k > 0 && xs[k] != xs[k-1] {
				grp++
			}
			w := uint32(row) | grp<<16
			if yRow[row] != 0 {
				w |= 1 << 15
			}
			pk[k] = w
			rof[row] = uint16(k)
		}
		g.packed[f] = pk
		g.rankOf[f] = rof
	}
	g.occ = make([]uint64, (n+63)/64)
	g.rowsU = make([]int32, 0, n)
}

// sortKey maps a float64 to a uint64 whose unsigned order matches the
// float's ascending order (sign bit flipped for positives, all bits for
// negatives) — the standard radix-sortable transform.
func sortKey(x float64) uint64 {
	u := math.Float64bits(x)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// sortPairsByX sorts pairs ascending by x without a comparison closure:
// insertion sort for small nodes, byte-wise LSD radix sort (through
// scratch, which must have the same length) for large ones. Tie order
// among equal x differs from a comparison sort, which is harmless: the
// threshold scan never splits inside a run of equal values, so every
// evaluated prefix contains whole runs regardless of their internal
// order. (With 0/1 targets — the forest's case — prefix sums are exact
// integers, making the resulting tree bit-identical too.)
func sortPairsByX(pairs, scratch []splitPair) {
	n := len(pairs)
	if n < 2 {
		return
	}
	if n <= 64 {
		for i := 1; i < n; i++ {
			p := pairs[i]
			j := i - 1
			for j >= 0 && p.x < pairs[j].x {
				pairs[j+1] = pairs[j]
				j--
			}
			pairs[j+1] = p
		}
		return
	}
	// One pass builds the histograms of every byte position; passes whose
	// byte is constant across the node are skipped (common for the
	// exponent bytes of same-scale features).
	var hist [8][256]int32
	for i := range pairs {
		u := sortKey(pairs[i].x)
		hist[0][u&0xff]++
		hist[1][(u>>8)&0xff]++
		hist[2][(u>>16)&0xff]++
		hist[3][(u>>24)&0xff]++
		hist[4][(u>>32)&0xff]++
		hist[5][(u>>40)&0xff]++
		hist[6][(u>>48)&0xff]++
		hist[7][(u>>56)&0xff]++
	}
	src, dst := pairs, scratch
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		h := &hist[pass]
		if h[(sortKey(src[0].x)>>shift)&0xff] == int32(n) {
			continue // all keys share this byte
		}
		var off [256]int32
		sum := int32(0)
		for i, c := range h {
			off[i] = sum
			sum += c
		}
		for i := range src {
			b := (sortKey(src[i].x) >> shift) & 0xff
			dst[off[b]] = src[i]
			off[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// splitScore evaluates a candidate split from its left-prefix and node
// totals.
func splitScore(c Criterion, lSum, lSq, totSum, totSq, ln, rn float64) float64 {
	switch c {
	case Gini:
		lp := lSum / ln
		rp := (totSum - lSum) / rn
		return ln*2*lp*(1-lp) + rn*2*rp*(1-rp)
	default: // Variance: SSE = sq - sum^2/n
		rSum := totSum - lSum
		return (lSq - lSum*lSum/ln) + ((totSq - lSq) - rSum*rSum/rn)
	}
}

// FitTreePresorted grows a tree using an existing presort of X. The
// presort must have been built over exactly these rows; it is read-only
// here, so one presort can serve many trees over the same matrix.
func FitTreePresorted(X [][]float64, y []float64, cfg TreeConfig, r *stats.Rand, ps *Presort) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("ml: bad training set: %d rows, %d targets", len(X), len(y)))
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	if cfg.FeatureFrac <= 0 || cfg.FeatureFrac > 1 {
		cfg.FeatureFrac = 1
	}
	return fitPresorted(len(X[0]), y, cfg, r, ps, &denseScratch{})
}

// fitPresorted is FitTreePresorted with an explicit scratch, so ensemble
// fits (the GBM's stage loop) can reuse one arena across every tree.
// width is the input width the tree reads.
func fitPresorted(width int, y []float64, cfg TreeConfig, r *stats.Rand, ps *Presort, scratch *denseScratch) *Tree {
	n := len(y)
	if len(scratch.work) != len(ps.words) {
		scratch.work = make([][]uint64, len(ps.words))
	}
	for f, words := range ps.words {
		if cap(scratch.work[f]) < n {
			scratch.work[f] = make([]uint64, n)
		}
		scratch.work[f] = scratch.work[f][:n]
		copy(scratch.work[f], words)
	}
	if len(scratch.part) < n {
		scratch.part = make([]uint64, n)
		scratch.side = make([]byte, n)
	}
	t := &Tree{features: width}
	t.root = t.grow(ps.gx, y, scratch.work, 0, n, cfg, 0, r, scratch)
	return t
}

// denseScratch holds the dense strategy's per-fit reusable state: the
// feature-subset buffer, a working copy of the packed presort words that
// is partitioned in place down the tree, and the partition scratch. One
// scratch serves every stage of a GBM fit, so growing a tree allocates
// only its nodes.
type denseScratch struct {
	perm []int
	work [][]uint64
	part []uint64
	// side flags the left-going rows of the node being split (1 = left);
	// always all-zero between partitions.
	side []byte
	// leafOf, when non-nil, receives each training row's leaf id as
	// leaves are made — the rows land there during growth for free,
	// sparing ensemble fits a per-row tree traversal afterwards. Row
	// routing at predict time uses the same `<= threshold` comparison as
	// the training partition, so the recorded ids match LeafID exactly.
	leafOf []int
}

// singleRun reports whether a node's window of packed words is one run
// of equal x. Such a feature has no threshold to offer at this node or
// below, and its window is not partitioned further: a child's stale
// window still holds words of that one run, so the test stays true.
func singleRun(ws []uint64) bool { return ws[0]>>32 == ws[len(ws)-1]>>32 }

// grow recursively builds the subtree over the rows in work[_][lo:hi]
// (the node's membership, presorted per feature; every live feature's
// window holds the same rows). gx holds the runs' x values. Splitting
// partitions each window in place, so the children recurse on disjoint
// subwindows and no per-node lists are allocated.
func (t *Tree) grow(gx [][]float64, y []float64, work [][]uint64, lo, hi int, cfg TreeConfig, depth int, r *stats.Rand, scratch *denseScratch) *node {
	rows := work[0][lo:hi]
	if depth >= cfg.MaxDepth || len(rows) < 2*cfg.MinLeaf || pure(y, rows) {
		return t.makeLeafRecorded(y, rows, scratch)
	}
	feat, thr, ok := bestSplit(gx, y, work, lo, hi, cfg, r, scratch)
	if !ok {
		return t.makeLeafRecorded(y, rows, scratch)
	}
	// Check split feasibility before touching the arena: a leaf's value is
	// a target sum in row order, so rows must stay untouched on this path.
	// The split feature's window is sorted, so the left count is a binary
	// search for the first value above the threshold.
	split := work[feat][lo:hi]
	gxf := gx[feat]
	a, b := 0, len(split)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if gxf[split[mid]>>32] <= thr {
			a = mid + 1
		} else {
			b = mid
		}
	}
	nl := a
	if nl < cfg.MinLeaf || len(rows)-nl < cfg.MinLeaf {
		return t.makeLeafRecorded(y, rows, scratch)
	}
	// Flag the left-going rows once (the split feature's sorted window
	// makes them its first nl words), then stably route every other live
	// feature's window by the flag. Feature 0 always moves: its window
	// supplies the totals, purity, leaf sums and leaf ids, which is all a
	// child that cannot split reads, so when neither child can split no
	// other feature moves.
	side := scratch.side
	for _, w := range split[:nl] {
		side[uint32(w)] = 1
	}
	leavesOnly := depth+1 >= cfg.MaxDepth || max(nl, len(rows)-nl) < 2*cfg.MinLeaf
	part := scratch.part
	for f, ord := range work {
		seg := ord[lo:hi]
		if f == feat || (f != 0 && (leavesOnly || singleRun(seg))) {
			continue
		}
		// Two cursors, no branch: every word is written to both sides and
		// only the cursor of its own side advances.
		nw, np := 0, 0
		for _, w := range seg {
			s := int(side[uint32(w)])
			seg[nw] = w
			part[np] = w
			nw += s
			np += 1 - s
		}
		copy(seg[nw:], part[:np])
	}
	for _, w := range split[:nl] {
		side[uint32(w)] = 0
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      t.grow(gx, y, work, lo, lo+nl, cfg, depth+1, r, scratch),
		right:     t.grow(gx, y, work, lo+nl, hi, cfg, depth+1, r, scratch),
	}
}

// makeLeafRecorded is makeLeaf plus leaf-id recording for the dense
// strategy's ensemble fits.
func (t *Tree) makeLeafRecorded(y []float64, rows []uint64, scratch *denseScratch) *node {
	leaf := makeLeaf(t, y, rows)
	if scratch.leafOf != nil {
		for _, w := range rows {
			scratch.leafOf[uint32(w)] = leaf.leafID
		}
	}
	return leaf
}

// rowRef names a training row: a plain index (the sparse strategy) or a
// packed presort word, whose low 32 bits hold the row (the dense one).
type rowRef interface{ ~int32 | ~uint64 }

// makeLeaf creates a leaf of t whose value is the target mean
// (probability for 0/1 targets), summed in the order of rows.
func makeLeaf[R rowRef](t *Tree, y []float64, rows []R) *node {
	var sum float64
	for _, i := range rows {
		sum += y[uint32(i)]
	}
	n := &node{leaf: true, leafID: len(t.leaves), value: sum / float64(len(rows))}
	t.leaves = append(t.leaves, n)
	return n
}

// pure reports whether all targets in rows are identical.
func pure[R rowRef](y []float64, rows []R) bool {
	y0 := y[uint32(rows[0])]
	for _, i := range rows[1:] {
		if y[uint32(i)] != y0 {
			return false
		}
	}
	return true
}

// bestSplit scans a feature subset for the impurity-minimizing threshold.
// Each candidate feature's rows arrive presorted, so all thresholds are
// evaluated in one O(n) prefix-statistics pass with no sorting. Targets
// are read through the packed words' rows, run boundaries are group-id
// changes, and thresholds come from the runs' x values.
func bestSplit(gx [][]float64, y []float64, work [][]uint64, lo, hi int, cfg TreeConfig, r *stats.Rand, scratch *denseScratch) (feat int, thr float64, ok bool) {
	candidates := featureSubsetInto(scratch.perm, len(work), cfg.FeatureFrac, r)
	scratch.perm = candidates
	// The node's total target statistics are feature-independent: one
	// pass over feature 0's window instead of one per candidate feature.
	var totSum, totSq float64
	for _, w := range work[0][lo:hi] {
		yv := y[uint32(w)]
		totSum += yv
		totSq += yv * yv
	}
	bestScore := infinity
	m := hi - lo
	n := float64(m)
	// A split after position k leaves k+1 rows on the left and m-k-1 on
	// the right, so only k in [first, last] can meet MinLeaf; the prefix
	// sums still accumulate from k = 0, and nothing after last is read.
	first, last := cfg.MinLeaf-1, m-cfg.MinLeaf-1
	for _, f := range candidates {
		ws := work[f][lo:hi]
		if singleRun(ws) {
			continue // no boundary to split at
		}
		var lSum, lSq float64
		for _, w := range ws[:first] {
			yk := y[uint32(w)]
			lSum += yk
			lSq += yk * yk
		}
		w := ws[first]
		for k := first; k <= last; k++ {
			yk := y[uint32(w)]
			lSum += yk
			lSq += yk * yk
			w1 := ws[k+1]
			// No split inside a run of equal values.
			if (w^w1)>>32 != 0 {
				ln := float64(k + 1)
				score := splitScore(cfg.Criterion, lSum, lSq, totSum, totSq, ln, n-ln)
				if score < bestScore {
					bestScore = score
					feat = f
					thr = (gx[f][w>>32] + gx[f][w1>>32]) / 2
					ok = true
				}
			}
			w = w1
		}
	}
	return feat, thr, ok
}

const infinity = 1e308

// featureSubsetInto samples ceil(frac*n) distinct feature indices into
// buf (grown as needed), consuming exactly the draws of math/rand's Perm
// so scratch reuse never shifts the stream. The result aliases the
// buffer; callers store it back for the next node.
func featureSubsetInto(buf []int, n int, frac float64, r *stats.Rand) []int {
	k := int(frac*float64(n) + 0.999999)
	if k >= n || r == nil {
		if cap(buf) < n {
			buf = make([]int, n)
		}
		all := buf[:n]
		for i := range all {
			all[i] = i
		}
		return all
	}
	if k < 1 {
		k = 1
	}
	return r.PermInto(n, buf)[:k]
}

// Predict returns the tree's output for one row.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// LeafID returns the index of the leaf x lands in (stable for the tree's
// lifetime); the quantile GBM uses it to re-fit leaf values.
func (t *Tree) LeafID(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leafID
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return len(t.leaves) }

// LeafValue returns the current output of a leaf by id.
func (t *Tree) LeafValue(leafID int) float64 { return t.leaves[leafID].value }

// SetLeafValue overwrites a leaf's output (quantile GBM leaf adjustment).
func (t *Tree) SetLeafValue(leafID int, v float64) {
	t.leaves[leafID].value = v
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

// width is the input width an ensemble's trees read: every tree of a
// fitted or imported ensemble shares it.
func width(trees []*Tree) int {
	if len(trees) == 0 {
		return 0
	}
	return trees[0].features
}

func depthOf(n *node) int {
	if n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
