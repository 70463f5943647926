package smoothing

import (
	"fmt"
	"strings"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// Row layouts, input checking and the stencil kernel: what lets a sweep
// reach every image row of a model by slot and write its output into one
// slab, without rendering or hashing a key, on either backend.

// parseRowKey inverts RowKey and haloKey: halo reports which of the two
// forms key has. Keys in any other form report !ok, so a key parses
// exactly when rendering its row gives the key back.
func parseRowKey(key string) (y int, halo, ok bool) {
	switch {
	case strings.HasPrefix(key, "img"):
		y, ok = parse6(key[len("img"):])
	case strings.HasPrefix(key, "halo"):
		y, ok = parse6(key[len("halo"):])
		halo = true
	}
	return y, halo, ok
}

// parse6 inverts "%06d" for non-negative numbers: at least six digits,
// more only when the first is not a padding zero.
func parse6(s string) (int, bool) {
	if len(s) < 6 || len(s) > 18 || (len(s) > 6 && s[0] == '0') {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int(d)
	}
	return v, true
}

// rowLayout resolves the image rows of one model schema by one walk over
// its keys: for every image row the slot of its in-band entry and of its
// frozen halo entry (-1 where the schema lacks the key), and the row's
// position in a sweep's output slab. A layout is built once per sweep,
// vertex program or partition count; it is read-only afterwards.
type rowLayout struct {
	schema *model.Schema
	img    []int32 // by image row: slot of RowKey(y)
	halo   []int32 // by image row: slot of haloKey(y)
	pos    []int32 // by image row: slab row of RowKey(y), -1 where img is
	rows   int     // in-band rows in the schema: the slab's height
}

func (a *App) layoutOf(s *model.Schema) *rowLayout {
	h := a.Height
	slots := make([]int32, 3*h)
	for i := range slots {
		slots[i] = -1
	}
	l := &rowLayout{schema: s, img: slots[:h], halo: slots[h : 2*h], pos: slots[2*h:]}
	for slot, key := range s.Keys() {
		y, halo, ok := parseRowKey(key)
		switch {
		case !ok || y >= h:
		case halo:
			l.halo[y] = int32(slot)
		default:
			l.img[y], l.pos[y] = int32(slot), int32(l.rows)
			l.rows++
		}
	}
	return l
}

// vectorAt returns the Vector in slot s of m; a slot outside the schema,
// an absent slot and a value of another kind all read as missing.
func vectorAt(m *model.Model, s int32) (writable.Vector, bool) {
	v, _ := m.At(int(s))
	vec, ok := v.(writable.Vector)
	return vec, ok
}

// row returns image row y of m, a model on the layout's schema: the
// in-band entry first, else the frozen halo. ok is false when the row is
// outside the sub-problem (image border, missing halo).
func (l *rowLayout) row(m *model.Model, y int) (writable.Vector, bool) {
	if uint(y) >= uint(len(l.img)) {
		return nil, false
	}
	if v, ok := vectorAt(m, l.img[y]); ok {
		return v, true
	}
	return vectorAt(m, l.halo[y])
}

// rowKey returns RowKey(y), the schema's own string when it has one.
func (l *rowLayout) rowKey(y int) string {
	if s := l.img[y]; s >= 0 {
		return l.schema.Key(int(s))
	}
	return RowKey(y)
}

// newSlab returns the output of one sweep: a row of width pixels for
// every in-band row of the layout, in one allocation. A slab is never
// reused — the models a sweep produces outlive it as checkpoint bases,
// observer samples and PIC partials.
func (l *rowLayout) newSlab(width int) writable.Vector {
	return make(writable.Vector, l.rows*width)
}

// outRow returns where row y's smoothed pixels go: its row of slab,
// sliced with cap == width so nothing appended to it can reach the next
// row, or a fresh row when the schema has no in-band entry for y.
func (l *rowLayout) outRow(slab writable.Vector, y, width int) writable.Vector {
	if p := int(l.pos[y]); p >= 0 {
		return slab[p*width : (p+1)*width : (p+1)*width]
	}
	return make(writable.Vector, width)
}

// bandSet is the band sub-model layouts of one partition count: every
// best-effort iteration cuts the same bands, so their schemas are built
// once per count.
type bandSet struct {
	p     int
	bands []*rowLayout // band g: rows [g·H/p, (g+1)·H/p) plus the halos just outside
}

// bandsOf returns the band layouts for p partitions, building them on
// first sight of p. Concurrent callers may both build; either result is
// the same.
func (a *App) bandsOf(p int) []*rowLayout {
	if bs := a.bands.Load(); bs != nil && bs.p == p {
		return bs.bands
	}
	bs := &bandSet{p: p, bands: make([]*rowLayout, p)}
	for g := range bs.bands {
		lo, hi := g*a.Height/p, (g+1)*a.Height/p
		keys := make([]string, 0, hi-lo+2)
		for y := lo; y < hi; y++ {
			keys = append(keys, RowKey(y))
		}
		for _, y := range [2]int{lo - 1, hi} {
			if y >= 0 && y < a.Height {
				keys = append(keys, haloKey(y))
			}
		}
		bs.bands[g] = a.layoutOf(model.NewSchema(keys))
	}
	a.bands.Store(bs)
	return bs.bands
}

// eachRecord walks the input in split order and hands fn (when not nil)
// every record's split, image row and original pixels. It refuses,
// naming the record, one that is not a row of the image's width, lies
// outside the image or repeats a row — before any task runs, so a
// malformed input is an error on either backend, never a panic in a
// worker.
func (a *App) eachRecord(in *mapred.Input, fn func(split *mapred.Split, key string, y int, orig writable.Vector) error) error {
	seen := make([]bool, a.Height)
	for i := range in.Splits {
		split := &in.Splits[i]
		for _, rec := range split.Records {
			val, ok := rec.Value.(writable.Vector)
			if !ok || len(val) == 0 {
				return fmt.Errorf("smoothing: record %q is not a row", rec.Key)
			}
			y := int(val[0])
			if y < 0 || y >= a.Height || seen[y] {
				return fmt.Errorf("smoothing: record %q: row %d is outside the image or already has a record", rec.Key, y)
			}
			if len(val)-1 != a.Width {
				return fmt.Errorf("smoothing: record %q: row %d has %d pixels, the image is %d wide", rec.Key, y, len(val)-1, a.Width)
			}
			seen[y] = true
			if fn == nil {
				continue
			}
			if err := fn(split, rec.Key, y, val[1:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// smoothRow is one row of a Jacobi sweep on either backend: it checks
// that every model row it reads is as wide as the image row, then runs
// the kernel into out.
func smoothRow(y int, out, orig, cur, up, down writable.Vector, mu float64) error {
	for i, r := range [3]writable.Vector{cur, up, down} {
		if (i == 0 || r != nil) && len(r) < len(orig) {
			return fmt.Errorf("smoothing: row %d reads a model row of %d pixels, the image is %d wide", y, len(r), len(orig))
		}
	}
	sweepRow(out, orig, cur, up, down, mu)
	return nil
}

// sweepRow is the stencil kernel both backends run: it writes into out
// the smoothed pixels of an image row with original pixels orig, current
// pixels cur and vertical neighbour rows up and down (nil where absent:
// the image border, or a band edge without a halo). out and cur, and up
// and down where present, hold at least len(orig) pixels.
//
// It is bit-identical to the per-pixel loop
//
//	sum, n := 0.0, 0.0
//	if up != nil   { sum += up[x]; n++ }
//	if down != nil { sum += down[x]; n++ }
//	if x > 0       { sum += cur[x-1]; n++ }
//	if x < w-1     { sum += cur[x+1]; n++ }
//	out[x] = (orig[x] + float64(mu*sum)) / (1 + float64(mu*n))
//
// on every input (a NaN result may carry another NaN's payload, as the
// loop's own may from one build to the next):
//
//   - each pixel adds the same terms in the same order to the same +0
//     start, so sum = (((0 + up) + down) + left) + right with absent
//     terms skipped;
//   - the four (up, down) presence cases are one loop: an absent
//     neighbour reads as a row of +0 (out itself, cleared, since pixel x
//     reads out[x] only before writing it), and adding +0 changes no bit
//     of a partial sum that starts from +0 — that sum is never -0, and
//     x + +0 is x for every other x, NaN included;
//   - the edge columns are peeled off the loop, and n is counted once
//     per row, so 1 + μ·n is the same expression evaluated once per
//     distinct n;
//   - the division stays a division;
//   - every product that feeds an addition is converted with float64(),
//     which by the Go spec forbids fusing it into a multiply-add.
func sweepRow(out, orig, cur, up, down []float64, mu float64) {
	w := len(orig)
	out, cur = out[:w], cur[:w]
	nv := 2.0 // vertical neighbours present
	if up == nil || down == nil {
		clear(out)
		if up == nil {
			up, nv = out, nv-1
		}
		if down == nil {
			down, nv = out, nv-1
		}
	}
	up, down = up[:w], down[:w]
	if w == 1 {
		out[0] = (orig[0] + float64(mu*(0.0+up[0]+down[0]))) / (1 + float64(mu*nv))
		return
	}
	edge := 1 + float64(mu*(nv+1))
	mid := 1 + float64(mu*(nv+2))
	out[0] = (orig[0] + float64(mu*(0.0+up[0]+down[0]+cur[1]))) / edge
	for x := 1; x < w-1; x++ {
		out[x] = (orig[x] + float64(mu*(0.0+up[x]+down[x]+cur[x-1]+cur[x+1]))) / mid
	}
	out[w-1] = (orig[w-1] + float64(mu*(0.0+up[w-1]+down[w-1]+cur[w-2]))) / edge
}
