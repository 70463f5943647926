package smoothing

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// VertexProgram implements core.VertexApp: under the BSP backend one
// Jacobi sweep runs as a native two-superstep vertex program, one
// vertex per image row. Superstep 0: every row sends its current pixels
// to its in-band neighbor rows. Superstep 1: every row blends its
// original pixels with the received neighbor rows — falling back to the
// frozen halo rows of the sub-model at band boundaries — and votes to
// halt. The arithmetic is identical to the map-only sweep, so the two
// backends produce byte-identical models.
func (a *App) VertexProgram(in *mapred.Input, m *model.Model) (bsp.Program, error) {
	n := int(in.NumRecords())
	l := a.layoutOf(m.Schema())
	slab := l.newSlab(a.Width)
	p := &smProgram{mu: a.Mu, m: m, rows: l,
		verts: make([]smVertex, 0, n),
		infos: make([]bsp.VertexInfo, 0, n),
		index: make([]int32, a.Height),
	}
	for y := range p.index {
		p.index[y] = -1
	}
	err := a.eachRecord(in, func(split *mapred.Split, key string, y int, orig writable.Vector) error {
		cur, ok := l.row(m, y)
		if !ok {
			return fmt.Errorf("smoothing: model missing row %d", y)
		}
		p.index[y] = int32(len(p.verts))
		p.verts = append(p.verts, smVertex{y: y, orig: orig, cur: cur, out: l.outRow(slab, y, a.Width)})
		p.infos = append(p.infos, bsp.VertexInfo{ID: key, Home: split.Home})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// smVertex is the per-row state of one sweep's program.
type smVertex struct {
	y    int
	orig writable.Vector // original (noisy) pixels
	cur  writable.Vector // current pixels, from the iteration's model
	out  writable.Vector // smoothed pixels, written in superstep 1: the row's slab row
}

type smProgram struct {
	mu    float64
	m     *model.Model // the iteration's (sub-)model, for frozen halos
	rows  *rowLayout   // m's rows by slot
	verts []smVertex
	infos []bsp.VertexInfo
	index []int32 // image row -> vertex, -1 for rows outside the input
}

// Vertices implements bsp.Program.
func (p *smProgram) Vertices() []bsp.VertexInfo { return p.infos }

// rowVertex returns the vertex of image row y, or -1.
func (p *smProgram) rowVertex(y int) int {
	if y < 0 || y >= len(p.index) {
		return -1
	}
	return int(p.index[y])
}

// Compute implements bsp.Program. Tags name the direction as seen by
// the receiver: a row sends itself downward as the receiver's "up" row.
func (p *smProgram) Compute(step, i int, in bsp.Inbox, s bsp.Sender) (bool, error) {
	v := &p.verts[i]
	if step == 0 {
		if below := p.rowVertex(v.y + 1); below >= 0 {
			s.Send(below, "up", v.cur)
		}
		if above := p.rowVertex(v.y - 1); above >= 0 {
			s.Send(above, "down", v.cur)
		}
		return false, nil
	}
	var up, down writable.Vector
	for _, msg := range in.Msgs {
		row, ok := msg.Value.(writable.Vector)
		if !ok {
			return false, fmt.Errorf("smoothing: row %d got non-row message %q", v.y, msg.Tag)
		}
		switch msg.Tag {
		case "up":
			up = row
		case "down":
			down = row
		default:
			return false, fmt.Errorf("smoothing: row %d got unknown message tag %q", v.y, msg.Tag)
		}
	}
	// Band boundaries have no neighbor vertex: read the frozen halo row
	// (or nothing at the image border), exactly as the mapred sweep does.
	if up == nil {
		up, _ = p.rows.row(p.m, v.y-1)
	}
	if down == nil {
		down, _ = p.rows.row(p.m, v.y+1)
	}
	if err := smoothRow(v.y, v.out, v.orig, v.cur, up, down, p.mu); err != nil {
		return false, err
	}
	return true, nil
}

// Model implements bsp.Modeler, mirroring Iteration's model assembly:
// the smoothed rows, plus the frozen halo rows carried forward. prev is
// the model the program was built on, so its rows are where p.rows says.
func (p *smProgram) Model(prev *model.Model) (*model.Model, error) {
	next := prev.NewLike()
	for i := range p.verts {
		v := &p.verts[i]
		if s := p.rows.img[v.y]; s >= 0 {
			next.SetAt(int(s), v.out)
		} else {
			next.Set(RowKey(v.y), v.out)
		}
	}
	prev.Range(func(key string, v writable.Writable) bool {
		if len(key) > 4 && key[:4] == "halo" {
			next.Set(key, v)
		}
		return true
	})
	return next, nil
}

// MergeKey implements core.KeyMerger. Bands are disjoint — every image
// row belongs to exactly one band — so the key merge is identity with a
// disjointness check. Frozen halo keys can legitimately appear in two
// bands (adjacent single-row bands freeze the same out-of-band row);
// the copies are identical, and FinalizeMerge drops them anyway.
func (a *App) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	if len(key) > 4 && key[:4] == "halo" {
		return values[0], nil
	}
	if len(values) != 1 {
		return nil, fmt.Errorf("smoothing: row %q in %d bands, want 1", key, len(values))
	}
	return values[0], nil
}

// MergeKeyWeighted implements core.WeightedKeyMerger: identity merges
// stay identity under pre-combining, so hierarchical rack-level
// pre-merges are exactly as unbiased as the flat merge.
func (a *App) MergeKeyWeighted(key string, values []writable.Writable, weights []int) (writable.Writable, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("smoothing: bad weighted merge for %q: %d values, %d weights", key, len(values), len(weights))
	}
	for _, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("smoothing: weight %d for %q", w, key)
		}
	}
	return a.MergeKey(key, values)
}

// FinalizeMerge implements core.MergeFinalizer: the key-merge paths
// combine whole partial models, so the frozen halo rows ride along;
// drop them and validate the stitched image, as Merge does.
func (a *App) FinalizeMerge(merged, _ *model.Model) (*model.Model, error) {
	var halos []string
	merged.Range(func(key string, _ writable.Writable) bool {
		if len(key) > 4 && key[:4] == "halo" {
			halos = append(halos, key)
		}
		return true
	})
	for _, key := range halos {
		merged.Delete(key)
	}
	if merged.Len() != a.Height {
		return nil, fmt.Errorf("smoothing: merged image has %d rows, want %d", merged.Len(), a.Height)
	}
	return merged, nil
}

var _ core.VertexApp = (*App)(nil)
var _ core.WeightedKeyMerger = (*App)(nil)
var _ core.MergeFinalizer = (*App)(nil)
