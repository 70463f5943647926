package kmeans

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// This file is the loop-resident half of K-means assignment: a
// per-split memo of (assigned centroid, upper bound, lower bound) kept
// beside the packed points in the job family's cache, and the one
// routine — packedPoints.assign — both fused kernels assign through.
// It prunes the k-way scan with the triangle inequality (Hamerly's
// single lower bound, the half-distance-to-nearest-centre test, and
// Elkan's lemma over a sorted centre–centre table for the fallback
// scan), and it is exact: its result is the index centroidSet.nearest
// returns, bit for bit, on every input. The argument follows.
//
// # Why the pruned argmin equals the full scan's
//
// Write D(p,c) for the squared distance as sqDist3/sqDist compute it in
// floats, t(p,c) for the exact Euclidean distance between the same
// float coordinates, and s for the relative slack (slackFor). The full
// scan returns the lowest index among the centroids of least D, and
// never one whose D is NaN or +Inf (`d < bestDist` is false for both).
//
//  1. One distance expression. Every D evaluated here goes through
//     sqDist3/sqDist, the functions nearest itself calls, so a distance
//     this file compares is the very float the full scan would compare.
//     For finite coordinates D = t²(1+θ) ± η with |θ| ≤ (dims+2)·2⁻⁵³
//     (one rounding per subtraction, square and addition of non-negative
//     terms) and η ≤ dims·2⁻¹⁰⁷⁴ the absolute error of squares that
//     underflow; s is at least 1e-9 + dims·2⁻⁴⁸, so s ≫ θ for every
//     dims.
//
//  2. Bounds are kept outward with slack. The memo's invariant, against
//     its own centroid snapshot, is upper ≥ (1+s/2)·t(p,c_a) and
//     lower ≤ (1−s/2)·t(p,c_j) for every j ≠ a, up to the absolute η
//     term. Every write preserves it: a bound taken from an evaluated
//     distance is √D·(1±s); moving the snapshot to the current
//     centroids adds drift_a·(1+s) to upper and subtracts the largest
//     other drift·(1+s) from lower (triangle inequality), each scaled
//     once more by (1±s), where drift is √D between the two positions
//     of a centroid. A lower bound that has gone negative stays
//     negative until a scan resets it and never permits a skip, so its
//     slack leaning the wrong way is harmless.
//
//  3. A skip proves strict separation in computed floats. The old
//     assignment a is kept without a scan only when upper < lb, where
//     lb = max(lower, half_a) and half_a is half the deflated distance
//     from c_a to its nearest other centre (if upper < half_a then
//     t(p,c_j) ≥ t(c_a,c_j) − t(p,c_a) > half_a, so half_a is a lower
//     bound exactly when it is needed). With (2) that gives
//     (1+s/2)·t_a < (1−s/2)·t_j, hence D_a ≤ t_a²(1+θ)+η <
//     t_j²(1−θ)−η ≤ D_j for every j ≠ a: a is the unique argmin, so
//     index order and ties cannot matter. Equal or duplicate centroids
//     have centre–centre distance 0, so half_a = 0 and lower ≤ upper:
//     they always reach the scan, where ties are broken explicitly.
//
//  4. Floors, ceilings, non-finite values. The η term is only
//     negligible against distances well inside the normal range, so a
//     skip also requires lb > tinyDist (1e-100: squares ≥ 1e-200, while
//     η and any accumulation of square-root-of-η drift errors stay
//     below 1e-150), and centre–centre distances that small are treated
//     as 0. Lower bounds are capped at hugeDist (1e150), so upper < lb
//     implies t_a < 1e150 and D_a cannot overflow to the +Inf the full
//     scan would refuse. A centroid set with any non-finite coordinate
//     or centre–centre distance carries no prune table, and a
//     non-finite drift discards the memo: those calls run the plain
//     scan for every point. A point is only ever memoised after a scan
//     found it a finite D, so memoised points have finite coordinates.
//
//  5. The fallback scan is the full scan minus provably worse
//     centroids. With D_a just evaluated and u = √D_a·(1+s), centroid j
//     is left out only when lo(a,j) > 2u, lo being the deflated (and
//     tiny-floored) centre–centre distance: then t_j ≥ t(c_a,c_j) − t_a
//     > (1+s)·t_a and, as in (3), D_j > D_a strictly, so j can neither
//     win nor tie. The candidates that remain are compared on D with
//     the lowest index winning ties and non-finite D never winning —
//     the full scan's rule, applied in a different visiting order.
//     Unvisited centroids are at least lo_next − u away, which with the
//     runner-up's √D resets the point's lower bound.
//
// Nothing downstream can tell the difference: the routine only decides
// which index each point gets, and the callers accumulate and emit
// exactly as before.

const (
	// minSlack is the relative slack every bound update and comparison
	// leans outward by; see slackFor.
	minSlack = 1e-9
	// tinyDist is the floor under which a lower bound or centre–centre
	// distance proves nothing (squared distances near it could leave
	// the normal float range).
	tinyDist = 1e-100
	// hugeDist caps lower bounds so a provably-nearer distance cannot
	// overflow when squared.
	hugeDist = 1e150
)

// slackFor is the relative slack for dims-dimensional points: 1e-9
// costs no measurable pruning and dwarfs the rounding error of a short
// sum of squares plus a square root; the dims term keeps it above that
// error for any dimension.
func slackFor(dims int) float64 { return minSlack + float64(dims)*0x1p-48 }

// sqDist3 is the squared distance of (x,y,z) to the 3-D centroid c —
// the unrolled form of sqDist, same operations in the same order.
func sqDist3(x, y, z float64, c []float64) float64 {
	dx := x - c[0]
	dy := y - c[1]
	dz := z - c[2]
	d := dx * dx
	d += dy * dy
	d += dz * dz
	return d
}

// sqDist is the squared distance of p to the centroid mu over mu's
// components, accumulated in component order.
func sqDist(p, mu []float64) float64 {
	var d float64
	for i, m := range mu {
		diff := p[i] - m
		d += diff * diff
	}
	return d
}

// sqDistPacked evaluates the one distance expression for a packed
// point and centroid of equal length.
func sqDistPacked(p, c []float64) float64 {
	if len(c) == 3 {
		return sqDist3(p[0], p[1], p[2], c)
	}
	return sqDist(p, c)
}

// neighbour is one entry of a centroid's sorted centre–centre row.
type neighbour struct {
	// lo is the deflated distance to centroid j (0 when below the tiny
	// floor): j can be left out of a scan only when lo > 2·upper.
	lo float64
	j  int32
}

// pruneTable is the per-centroidSet, once-per-iteration geometry the
// memo-carrying assignment reads: for every centroid its other
// centroids sorted by distance, and half the distance to the nearest.
type pruneTable struct {
	rows []neighbour // k rows of k-1 entries, ascending lo
	half []float64   // k; min lo / 2, capped at hugeDist
}

// newPruneTable builds the table for k uniform-dims centroids packed in
// flat, or returns nil when any coordinate or centre–centre distance is
// not finite (such a set is only ever scanned in full).
func newPruneTable(flat []float64, k, dims int) *pruneTable {
	for _, x := range flat {
		if math.IsInf(x, 0) || x != x {
			return nil
		}
	}
	down := 1 - slackFor(dims)
	t := &pruneTable{rows: make([]neighbour, 0, k*(k-1)), half: make([]float64, k)}
	for a := 0; a < k; a++ {
		ca := flat[a*dims : (a+1)*dims]
		start := len(t.rows)
		for j := 0; j < k; j++ {
			if j == a {
				continue
			}
			cc := math.Sqrt(sqDistPacked(ca, flat[j*dims:(j+1)*dims]))
			if math.IsInf(cc, 0) {
				return nil
			}
			lo := cc * down
			if lo <= 2*tinyDist {
				lo = 0
			}
			t.rows = append(t.rows, neighbour{lo: lo, j: int32(j)})
		}
		row := t.rows[start:]
		slices.SortFunc(row, func(x, y neighbour) int {
			if c := cmp.Compare(x.lo, y.lo); c != 0 {
				return c
			}
			return cmp.Compare(x.j, y.j)
		})
		t.half[a] = hugeDist
		if len(row) > 0 {
			t.half[a] = min(row[0].lo/2, hugeDist)
		}
	}
	return t
}

// assignMemo is the loop-resident state of one split: every point's
// last assignment and the bounds that may prove it unchanged, against
// the centroid snapshot they were computed for. Carrying the snapshot
// is what frees the drivers from telling the kernel anything: the next
// IC iterate, a PIC local iterate, a merged or rolled-back model and a
// retried attempt with the same model are all "some centroid set", at
// some drift from the snapshot.
type assignMemo struct {
	assign []int32 // n; always the latest call's result
	// bounds holds (upper, lower) per point, interleaved. Valid only
	// while k > 0.
	bounds []float64
	// k is the snapshot's centroid count, 0 when the bounds are not
	// usable (first touch, or the last call could not maintain them).
	k    int
	snap []float64 // k × dims
	// drift is the scratch drifts fills (2k: each centroid's drift, then
	// each centroid's largest other drift), kept so a steady-state
	// iteration allocates nothing here.
	drift []float64
	// Cumulative counts of how memoised point-visits were decided, for
	// benchmarks and tests: kept on bounds alone, kept after one
	// distance, scanned, and the distances those scans evaluated.
	skipped, reevaluated, scanned, scanDists int64
}

// packedPoints is the cacheable derived form of one split: its points
// packed into a contiguous array, parsed out of the record encoding
// once per job family instead of once per iteration, plus the
// assignment memo the fused kernels maintain across iterations.
type packedPoints struct {
	flat    []float64 // n × dims
	n, dims int
	// mu serialises the tasks that assign through this split. The
	// engine hands a split to one task at a time; a job whose input
	// names the same records twice is the exception this covers.
	mu   sync.Mutex
	memo assignMemo
	// rows is the scratch MapInto accumulates its (sum..., count) rows
	// in, kept so a steady-state iteration allocates nothing here.
	rows []float64
}

// SizeBytes implements mapred.SplitDerived: the packed points only. The
// memo (20 B/point) is host-side simulator state, not bytes the
// simulated cluster holds, so it is charged nothing — cache counters,
// warm/evict annotations and capacity-eviction order are what they
// would be without it.
func (d *packedPoints) SizeBytes() int64 { return int64(8 * len(d.flat)) }

// assign returns every point's nearest-centroid index under cs — the
// index cs.nearest returns for it — or false when some point has no
// finite distance to any centroid. The caller holds d.mu, has checked
// d.dims == cs.dims, and may read the result until the next call.
func (d *packedPoints) assign(cs *centroidSet) ([]int32, bool) {
	m := &d.memo
	if m.assign == nil {
		m.assign = make([]int32, d.n)
		m.bounds = make([]float64, 2*d.n)
	}
	k := len(cs.keys)
	var ok bool
	if cs.prune != nil && m.k == k && m.drifts(cs) {
		ok = d.assignPruned(cs)
	} else {
		ok = d.assignScan(cs)
	}
	m.k = 0
	if ok && cs.prune != nil {
		m.k = k
		m.snap = append(m.snap[:0], cs.flat...)
	}
	return m.assign, ok
}

// drifts fills m.drift for cs against the memo's snapshot: drift[j] is
// how far centroid j sits from its snapshot position, inflated by the
// slack, and drift[k+a] the largest of those among the centroids other
// than a. It reports false when any drift is not a finite number.
func (m *assignMemo) drifts(cs *centroidSet) bool {
	k, dims := m.k, cs.dims
	up := 1 + slackFor(dims)
	if cap(m.drift) < 2*k {
		m.drift = make([]float64, 2*k)
	}
	m.drift = m.drift[:2*k]
	top, second, topAt := 0.0, 0.0, -1
	for j := 0; j < k; j++ {
		dj := math.Sqrt(sqDistPacked(m.snap[j*dims:(j+1)*dims], cs.flat[j*dims:(j+1)*dims])) * up
		if !(dj < math.Inf(1)) {
			return false
		}
		m.drift[j] = dj
		if dj > top {
			top, second, topAt = dj, top, j
		} else if dj > second {
			second = dj
		}
	}
	for a, far := 0, m.drift[k:]; a < k; a++ {
		far[a] = top
		if a == topAt {
			far[a] = second
		}
	}
	return true
}

// assignScan is the memo-less pass: the plain scan for every point,
// leaving upper = √best (inflated) and lower = 0 so the next call's
// one-distance test and neighbour scan establish the lower bounds —
// tracking a runner-up here would tax the first iteration for nothing.
func (d *packedPoints) assignScan(cs *centroidSet) bool {
	m := &d.memo
	up := 1 + slackFor(d.dims)
	for i := 0; i < d.n; i++ {
		j, best := cs.nearest(d.flat[i*d.dims : (i+1)*d.dims])
		if j < 0 {
			return false
		}
		m.assign[i] = int32(j)
		m.bounds[2*i] = math.Sqrt(best) * up
		m.bounds[2*i+1] = 0
	}
	return true
}

// separates is the skip rule: the old assignment stands when its upper
// bound is strictly below a lower bound on every other centroid that is
// itself clear of the tiny floor (obligations 3 and 4 above).
func separates(upper, lb float64) bool { return upper < lb && lb > tinyDist }

// assignPruned is the memoised pass; see the argument at the top of the
// file. drifts has filled m.drift for cs.
func (d *packedPoints) assignPruned(cs *centroidSet) bool {
	m, t := &d.memo, cs.prune
	dims, k := d.dims, len(cs.keys)
	drift, far := m.drift[:k], m.drift[k:]
	s := slackFor(dims)
	up, down := 1+s, 1-s
	var skipped, reevaluated, scanned, scanDists int64
	for i := 0; i < d.n; i++ {
		a := int(m.assign[i])
		u := (m.bounds[2*i] + drift[a]) * up
		l := m.bounds[2*i+1]*down - far[a]
		lb := max(l, t.half[a])
		if separates(u, lb) {
			m.bounds[2*i], m.bounds[2*i+1] = u, l
			skipped++
			continue
		}
		p := d.flat[i*dims : (i+1)*dims]
		da := sqDistPacked(p, cs.flat[a*dims:(a+1)*dims])
		u = math.Sqrt(da) * up
		if separates(u, lb) {
			m.bounds[2*i], m.bounds[2*i+1] = u, l
			reevaluated++
			continue
		}
		// Scan a and the neighbours Elkan's lemma cannot rule out, on
		// the full scan's rule: least D, lowest index on ties,
		// non-finite D never.
		best, bi, runnerUp := math.Inf(1), -1, math.Inf(1)
		if da < best {
			best, bi = da, a
		}
		unvisited := math.Inf(1)
		for _, nb := range t.rows[a*(k-1) : (a+1)*(k-1)] {
			if nb.lo > 2*u {
				unvisited = nb.lo - u
				break
			}
			j := int(nb.j)
			dj := sqDistPacked(p, cs.flat[j*dims:(j+1)*dims])
			scanDists++
			if dj < best || (dj == best && j < bi) {
				best, bi, runnerUp = dj, j, best
			} else if dj < runnerUp {
				runnerUp = dj
			}
		}
		if bi < 0 {
			return false
		}
		scanned++
		m.assign[i] = int32(bi)
		m.bounds[2*i] = math.Sqrt(best) * up
		m.bounds[2*i+1] = min(math.Sqrt(runnerUp)*down, unvisited, hugeDist)
	}
	m.skipped += skipped
	m.reevaluated += reevaluated
	m.scanned += scanned
	m.scanDists += scanDists
	return true
}
