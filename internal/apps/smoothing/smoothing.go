// Package smoothing implements the paper's image-smoothing case study:
// an iterative stencil that denoises an image by repeatedly blending
// each pixel with its 4-neighborhood. The update solves
// (1 + μ·n)·p' = p0 + μ·Σ_neighbors p — a Jacobi iteration on the
// diagonally dominant system (I + μL)p = p0, so it converges to a unique
// smoothed image and has exactly the local dependency structure ("the
// image smoothing algorithm is stencil based and clearly the
// dependencies are local", §VI-B) that PIC exploits.
//
// The model is the current image, one row per model entry — a large
// model, so conventional execution pays heavy model-update traffic
// every iteration. Under PIC the image is split into horizontal bands;
// each band smooths locally against frozen halo rows, and the merge
// stitches the bands back together.
package smoothing

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// App is the image smoother. It implements core.App and core.PICApp.
type App struct {
	// Width and Height describe the image.
	Width, Height int
	// Mu is the smoothing strength (the μ of the implicit system).
	Mu float64
	// Tolerance is the convergence bound on per-row displacement.
	Tolerance float64
	// BEThreshold is the best-effort convergence bound (§III-B allows
	// a looser criterion); it defaults to Tolerance.
	BEThreshold float64

	bands atomic.Pointer[bandSet] // Partition's band schemas, for the last partition count
}

// New returns a smoother for width×height images.
func New(width, height int, mu, tolerance float64) *App {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("smoothing: bad shape %dx%d", width, height))
	}
	if mu <= 0 || tolerance <= 0 {
		panic("smoothing: mu and tolerance must be positive")
	}
	return &App{Width: width, Height: height, Mu: mu, Tolerance: tolerance, BEThreshold: tolerance}
}

// Name implements core.App.
func (a *App) Name() string { return "smoothing" }

// RowKey is the model key of current-image row y.
func RowKey(y int) string { return fmt.Sprintf("img%06d", y) }

// haloKey is the sub-model key of a frozen out-of-band row.
func haloKey(y int) string { return fmt.Sprintf("halo%06d", y) }

// origValue encodes an input record: {rowIndex, original pixels...}.
func origValue(y int, pixels linalg.Vector) writable.Vector {
	v := make(writable.Vector, 1+len(pixels))
	v[0] = float64(y)
	copy(v[1:], pixels)
	return v
}

// Records converts the original (noisy) image into input records, one
// per row.
func Records(img *data.Image) []mapred.Record {
	recs := make([]mapred.Record, img.Height)
	for y := 0; y < img.Height; y++ {
		recs[y] = mapred.Record{Key: fmt.Sprintf("row%06d", y), Value: origValue(y, img.Rows[y])}
	}
	return recs
}

// InitialModel starts the iteration from the noisy image itself.
func InitialModel(img *data.Image) *model.Model {
	m := model.New()
	for y := 0; y < img.Height; y++ {
		m.Set(RowKey(y), writable.Vector(img.Rows[y]).Clone())
	}
	return m
}

// ImageOf extracts the current image from a model.
func ImageOf(m *model.Model, width, height int) *data.Image {
	img := data.NewImage(width, height)
	for y := 0; y < height; y++ {
		if row, ok := m.Vector(RowKey(y)); ok {
			copy(img.Rows[y], row)
		}
	}
	return img
}

// Iteration implements core.App: one Jacobi smoothing sweep as a
// map-only job over the original rows. The model's rows are resolved by
// slot once per sweep, and every task writes into the sweep's one
// output slab.
func (a *App) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	if err := a.eachRecord(in, nil); err != nil {
		return nil, err
	}
	mu, width := a.Mu, a.Width
	l := a.layoutOf(m.Schema())
	slab := l.newSlab(width)
	job := &mapred.Job{
		Name:             "smooth-sweep",
		PartitionedModel: true, // each task reads only its rows + halo
		Mapper: mapred.MapperFunc(func(_ string, v writable.Writable, tm *model.Model, emit mapred.Emitter) error {
			// eachRecord checked every record; tm is m or a clone of it
			// (damaged in transit), which shares m's schema.
			val := v.(writable.Vector)
			y, orig := int(val[0]), val[1:]
			cur, ok := l.row(tm, y)
			if !ok {
				return fmt.Errorf("smoothing: model missing row %d", y)
			}
			up, _ := l.row(tm, y-1)
			down, _ := l.row(tm, y+1)
			out := l.outRow(slab, y, width)
			if err := smoothRow(y, out, orig, cur, up, down, mu); err != nil {
				return err
			}
			emit.Emit(l.rowKey(y), out)
			return nil
		}),
	}
	out, err := rt.RunJob(job, in, m)
	if err != nil {
		return nil, err
	}
	next := m.NewLike() // same rows, same halos: the previous version's schema
	for _, rec := range out.Records {
		next.Set(rec.Key, rec.Value)
	}
	// Carry halo rows forward unchanged so local iterations keep their
	// frozen boundary (they are dropped again at merge time).
	m.Range(func(key string, v writable.Writable) bool {
		if len(key) > 4 && key[:4] == "halo" {
			next.Set(key, v)
		}
		return true
	})
	return next, nil
}

// Converged implements core.App.
func (a *App) Converged(prev, next *model.Model) bool {
	return model.VectorDeltaBelow(prev, next, a.Tolerance)
}

// BEConverged implements core.BEConvergedApp: once halo exchanges stop
// moving the stitched image by more than the (looser) best-effort
// bound, the top-off phase polishes the remaining band boundaries.
func (a *App) BEConverged(prev, next *model.Model) bool {
	return model.VectorDeltaBelow(prev, next, a.BEThreshold)
}

// Partition implements core.PICApp: horizontal bands of rows. Each band
// carries its rows of the current image plus frozen halo copies of the
// rows just outside the band. The band schemas are built once per
// partition count; the rows are cloned into them by slot.
func (a *App) Partition(in *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	if p > a.Height {
		return nil, fmt.Errorf("smoothing: %d partitions for %d rows", p, a.Height)
	}
	records := in.Records()
	if len(records) != a.Height {
		return nil, fmt.Errorf("smoothing: input has %d rows, image has %d", len(records), a.Height)
	}
	full := a.layoutOf(m.Schema())
	subs := make([]core.SubProblem, p)
	for g, band := range a.bandsOf(p) {
		lo, hi := g*a.Height/p, (g+1)*a.Height/p
		sm := model.NewOn(band.schema)
		for y := lo; y < hi; y++ {
			row, ok := vectorAt(m, full.img[y])
			if !ok {
				return nil, fmt.Errorf("smoothing: model missing row %d", y)
			}
			sm.SetAt(int(band.img[y]), row.Clone())
		}
		for _, y := range [2]int{lo - 1, hi} {
			if y < 0 || y >= a.Height {
				continue
			}
			row, ok := vectorAt(m, full.img[y])
			if !ok {
				return nil, fmt.Errorf("smoothing: model missing halo row %d", y)
			}
			sm.SetAt(int(band.halo[y]), row.Clone())
		}
		subs[g] = core.SubProblem{Records: records[lo:hi], Model: sm}
	}
	return subs, nil
}

// Merge implements core.PICApp: stitch the bands — the union of their
// in-band rows, dropping halos.
func (a *App) Merge(parts []*model.Model, prev *model.Model) (*model.Model, error) {
	merged := model.New()
	if prev != nil {
		merged = prev.NewLike() // the stitched image has the previous one's rows
	}
	for _, part := range parts {
		var err error
		part.Range(func(key string, v writable.Writable) bool {
			if len(key) > 4 && key[:4] == "halo" {
				return true
			}
			if _, dup := merged.Get(key); dup {
				err = fmt.Errorf("smoothing: duplicate row %q across bands", key)
				return false
			}
			merged.Set(key, writable.Clone(v))
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	if merged.Len() != a.Height {
		return nil, fmt.Errorf("smoothing: merged image has %d rows, want %d", merged.Len(), a.Height)
	}
	return merged, nil
}

// Reference smooths the image sequentially until the same convergence
// criterion holds, returning the fixed point the distributed runs are
// compared against.
func Reference(img *data.Image, mu, tolerance float64, maxIters int) *data.Image {
	cur := data.NewImage(img.Width, img.Height)
	for y := range img.Rows {
		copy(cur.Rows[y], img.Rows[y])
	}
	for it := 0; it < maxIters; it++ {
		next := data.NewImage(img.Width, img.Height)
		var worst float64
		for y := 0; y < img.Height; y++ {
			for x := 0; x < img.Width; x++ {
				sum, n := 0.0, 0.0
				if y > 0 {
					sum += cur.Rows[y-1][x]
					n++
				}
				if y < img.Height-1 {
					sum += cur.Rows[y+1][x]
					n++
				}
				if x > 0 {
					sum += cur.Rows[y][x-1]
					n++
				}
				if x < img.Width-1 {
					sum += cur.Rows[y][x+1]
					n++
				}
				next.Rows[y][x] = (img.Rows[y][x] + float64(mu*sum)) / (1 + float64(mu*n))
			}
			if d := linalg.Vector(next.Rows[y]).Dist2(cur.Rows[y]); d > worst {
				worst = d
			}
		}
		cur = next
		if worst < tolerance {
			break
		}
	}
	return cur
}
