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
	p := &smProgram{mu: a.Mu, m: m, byID: make(map[string]*smVertex)}
	for _, split := range in.Splits {
		for _, rec := range split.Records {
			val, ok := rec.Value.(writable.Vector)
			if !ok || len(val) == 0 {
				return nil, fmt.Errorf("smoothing: record %q is not a row", rec.Key)
			}
			y := int(val[0])
			cur, ok := modelRow(m, y)
			if !ok {
				return nil, fmt.Errorf("smoothing: model missing row %d", y)
			}
			v := &smVertex{id: rec.Key, home: split.Home, y: y, orig: val[1:], cur: cur}
			p.verts = append(p.verts, v)
			p.byID[v.id] = v
		}
	}
	return p, nil
}

// smVertex is the per-row state of one sweep's program.
type smVertex struct {
	id   string
	home int
	y    int
	orig writable.Vector // original (noisy) pixels
	cur  writable.Vector // current pixels, from the iteration's model
	out  writable.Vector // smoothed pixels, set in superstep 1
}

type smProgram struct {
	mu    float64
	m     *model.Model // the iteration's (sub-)model, for frozen halos
	verts []*smVertex
	byID  map[string]*smVertex
}

// rowID is the vertex id of row y — the input record key format.
func rowID(y int) string { return fmt.Sprintf("row%06d", y) }

// Vertices implements bsp.Program.
func (p *smProgram) Vertices() []bsp.VertexInfo {
	infos := make([]bsp.VertexInfo, len(p.verts))
	for i, v := range p.verts {
		infos[i] = bsp.VertexInfo{ID: v.id, Home: v.home}
	}
	return infos
}

// Compute implements bsp.Program. Tags name the direction as seen by
// the receiver: a row sends itself downward as the receiver's "up" row.
func (p *smProgram) Compute(step int, id string, msgs []bsp.Message, s bsp.Sender) (bool, error) {
	v, ok := p.byID[id]
	if !ok {
		return false, fmt.Errorf("smoothing: unknown vertex %q", id)
	}
	if step == 0 {
		if _, ok := p.byID[rowID(v.y+1)]; ok {
			s.Send(rowID(v.y+1), "up", v.cur)
		}
		if _, ok := p.byID[rowID(v.y-1)]; ok {
			s.Send(rowID(v.y-1), "down", v.cur)
		}
		return false, nil
	}
	var up, down writable.Vector
	for _, msg := range msgs {
		row, ok := msg.Value.(writable.Vector)
		if !ok {
			return false, fmt.Errorf("smoothing: vertex %q got non-row message %q", id, msg.Tag)
		}
		switch msg.Tag {
		case "up":
			up = row
		case "down":
			down = row
		default:
			return false, fmt.Errorf("smoothing: vertex %q got unknown message tag %q", id, msg.Tag)
		}
	}
	// Band boundaries have no neighbor vertex: read the frozen halo row
	// (or nothing at the image border), exactly as the mapred sweep does.
	if up == nil {
		up, _ = modelRow(p.m, v.y-1)
	}
	if down == nil {
		down, _ = modelRow(p.m, v.y+1)
	}
	cur := v.cur
	out := make(writable.Vector, len(v.orig))
	for x := range v.orig {
		sum, n := 0.0, 0.0
		if up != nil {
			sum += up[x]
			n++
		}
		if down != nil {
			sum += down[x]
			n++
		}
		if x > 0 {
			sum += cur[x-1]
			n++
		}
		if x < len(v.orig)-1 {
			sum += cur[x+1]
			n++
		}
		out[x] = (v.orig[x] + p.mu*sum) / (1 + p.mu*n)
	}
	v.out = out
	return true, nil
}

// Model implements bsp.Modeler, mirroring Iteration's model assembly:
// the smoothed rows, plus the frozen halo rows carried forward.
func (p *smProgram) Model(prev *model.Model) (*model.Model, error) {
	next := prev.NewLike()
	for _, v := range p.verts {
		next.Set(RowKey(v.y), v.out)
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
