package main

import (
	"math"

	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

// oracle answers COUNT envelopes by brute force over the generated rows,
// apart from the program: it keeps the raw coordinates of every row the
// dataset's clean rule admits (plus every acknowledged ingest row), buckets
// them in a uniform grid only to skip rows far from the query, and tests
// each candidate with its own crossing-number point-in-polygon and
// point-to-segment distance. Nothing here goes through cell ids, coverers
// or geom.Polygon's predicates.
type oracle struct {
	bound  geom.Rect
	n      int // grid is n x n buckets
	cw, ch float64
	start  []int32 // CSR offsets per bucket
	pts    []geom.Point
	// acked are ingest rows in acknowledgement order; a check made after
	// k rows were acknowledged sees acked[:k].
	acked []geom.Point
}

const oracleGrid = 256

// keepRow applies the dataset's extract-phase clean rule to one row.
func keepRow(rule core.CleanRule, p geom.Point, cols [][]float64, i int) bool {
	b := rule.Bounds
	if p.X < b.Min.X || p.X > b.Max.X || p.Y < b.Min.Y || p.Y > b.Max.Y {
		return false
	}
	for _, cr := range rule.ColRanges {
		if v := cols[cr.Col][i]; v < cr.Min || v > cr.Max {
			return false
		}
	}
	return true
}

func newOracle(bound geom.Rect, pts []geom.Point) *oracle {
	o := &oracle{bound: bound, n: oracleGrid}
	o.cw = bound.Width() / float64(o.n)
	o.ch = bound.Height() / float64(o.n)
	counts := make([]int32, o.n*o.n+1)
	for _, p := range pts {
		counts[o.bucket(p)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	o.start = counts
	o.pts = make([]geom.Point, len(pts))
	fill := make([]int32, o.n*o.n)
	copy(fill, counts[:o.n*o.n])
	for _, p := range pts {
		b := o.bucket(p)
		o.pts[fill[b]] = p
		fill[b]++
	}
	return o
}

func (o *oracle) cell(x, y float64) (int, int) {
	i := int((x - o.bound.Min.X) / o.cw)
	j := int((y - o.bound.Min.Y) / o.ch)
	return min(max(i, 0), o.n-1), min(max(j, 0), o.n-1)
}

func (o *oracle) bucket(p geom.Point) int {
	i, j := o.cell(p.X, p.Y)
	return j*o.n + i
}

// envelopeSlack absorbs float rounding where a row sits within a rounding
// error of a grid-cell edge: far below any cell diagonal the planner can
// report (a level-30 leaf is ~6e-10 wide on this domain).
const envelopeSlack = 1e-9

// envelope returns (lo, hi): the number of rows strictly inside the ring,
// and the number within margin of it (inside included), over the base rows
// plus the first ackedN acknowledged ingest rows. A correct answer with
// reported error bound margin has lo <= COUNT <= hi.
func (o *oracle) envelope(ring []geom.Point, margin float64, ackedN int) (lo, hi uint64) {
	margin += envelopeSlack
	bb := ringBound(ring).Expanded(margin)
	test := func(p geom.Point) {
		if p.X < bb.Min.X || p.X > bb.Max.X || p.Y < bb.Min.Y || p.Y > bb.Max.Y {
			return
		}
		if insideRing(ring, p) {
			lo++
			hi++
		} else if distToRing(ring, p) <= margin {
			hi++
		}
	}
	i0, j0 := o.cell(bb.Min.X, bb.Min.Y)
	i1, j1 := o.cell(bb.Max.X, bb.Max.Y)
	for j := j0; j <= j1; j++ {
		for _, p := range o.pts[o.start[j*o.n+i0]:o.start[j*o.n+i1+1]] {
			test(p)
		}
	}
	for _, p := range o.acked[:ackedN] {
		test(p)
	}
	return lo, hi
}

// total is the number of rows a whole-bound COUNT must return.
func (o *oracle) total(ackedN int) uint64 { return uint64(len(o.pts) + ackedN) }

func ringBound(ring []geom.Point) geom.Rect {
	r := geom.Rect{Min: ring[0], Max: ring[0]}
	for _, p := range ring[1:] {
		r.Min.X, r.Min.Y = math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)
		r.Max.X, r.Max.Y = math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)
	}
	return r
}

// insideRing is the crossing-number test; points exactly on an edge may
// land either way, which the envelope tolerates (they are within any
// margin of the ring).
func insideRing(ring []geom.Point, p geom.Point) bool {
	in := false
	for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
		a, b := ring[i], ring[j]
		if (a.Y > p.Y) != (b.Y > p.Y) && p.X < (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y)+a.X {
			in = !in
		}
	}
	return in
}

func distToRing(ring []geom.Point, p geom.Point) float64 {
	best := math.Inf(1)
	for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
		a, b := ring[j], ring[i]
		dx, dy := b.X-a.X, b.Y-a.Y
		t := 0.0
		if den := dx*dx + dy*dy; den > 0 {
			t = math.Max(0, math.Min(1, ((p.X-a.X)*dx+(p.Y-a.Y)*dy)/den))
		}
		best = math.Min(best, math.Hypot(p.X-(a.X+t*dx), p.Y-(a.Y+t*dy)))
	}
	return best
}

func rectRing(r geom.Rect) []geom.Point {
	return []geom.Point{r.Min, {X: r.Max.X, Y: r.Min.Y}, r.Max, {X: r.Min.X, Y: r.Max.Y}}
}
