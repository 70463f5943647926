// Package linsolve implements the paper's linear-equation-solver case
// study: Jacobi iteration on a weakly diagonally dominant system A·x = b
// (the property the paper notes "guarantees the nearly uncoupled
// property" and even asynchronous convergence, §VI-B).
//
// Each iteration maps over the matrix rows: x_i' = (b_i − Σ_{j≠i}
// a_ij·x_j)/a_ii, with the current solution vector x as the model.
// Under PIC the variables are split into contiguous blocks; each
// sub-problem iterates on its block with the external variables frozen
// at their last merged values — folded into the block's right-hand side
// at partition time — which is exactly the block-Jacobi / additive
// Schwarz structure of the paper's preconditioner analysis (§VI-B).
// The merge concatenates the disjoint block solutions.
package linsolve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// App is the linear-solver application. It implements core.App and
// core.PICApp.
type App struct {
	// Tolerance is the convergence bound on max |Δx_i|.
	Tolerance float64

	a *linalg.Matrix
	b linalg.Vector
}

// New returns a Jacobi solver for A·x = b. The matrix should be weakly
// diagonally dominant or the iteration may diverge.
func New(a *linalg.Matrix, b linalg.Vector, tolerance float64) *App {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic(fmt.Sprintf("linsolve: inconsistent system %dx%d with %d-vector", a.Rows, a.Cols, len(b)))
	}
	if tolerance <= 0 {
		panic("linsolve: tolerance must be positive")
	}
	return &App{Tolerance: tolerance, a: a, b: b}
}

// Name implements core.App.
func (a *App) Name() string { return "linsolve" }

// VarKey returns the model key of variable i.
func VarKey(i int) string { return fmt.Sprintf("x%06d", i) }

// rowKey returns the record key of row i.
func rowKey(i int) string { return fmt.Sprintf("row%06d", i) }

// rowValue encodes one row record: {rowIndex, rhs, columnOffset,
// coefficients...}. columnOffset is the global index of the first
// coefficient — the full problem uses 0; sub-problems use their block's
// start.
func rowValue(row int, rhs float64, colOffset int, coeffs []float64) writable.Vector {
	v := make(writable.Vector, 3+len(coeffs))
	v[0] = float64(row)
	v[1] = rhs
	v[2] = float64(colOffset)
	copy(v[3:], coeffs)
	return v
}

// Records converts the app's system into input records, one per row.
func (a *App) Records() []mapred.Record {
	recs := make([]mapred.Record, a.a.Rows)
	for i := 0; i < a.a.Rows; i++ {
		recs[i] = mapred.Record{Key: rowKey(i), Value: rowValue(i, a.b[i], 0, a.a.Row(i))}
	}
	return recs
}

// InitialModel is the zero vector — the arbitrary starting point of the
// iteration.
func InitialModel(n int) *model.Model {
	m := model.New()
	for i := 0; i < n; i++ {
		m.Set(VarKey(i), writable.Float64(0))
	}
	return m
}

// Solution extracts the solution vector from a model.
func Solution(m *model.Model, n int) linalg.Vector {
	x := make(linalg.Vector, n)
	for i := range x {
		if v, ok := m.Float(VarKey(i)); ok {
			x[i] = v
		}
	}
	return x
}

// Iteration implements core.App: one Jacobi sweep as a map-only job
// (each row update is independent given the model).
func (a *App) Iteration(rt *core.Runtime, in *mapred.Input, m *model.Model) (*model.Model, error) {
	job := &mapred.Job{
		Name: "jacobi-sweep",
		Mapper: mapred.MapperFunc(func(_ string, v writable.Writable, m *model.Model, emit mapred.Emitter) error {
			val := v.(writable.Vector)
			row := int(val[0])
			rhs := val[1]
			off := int(val[2])
			coeffs := val[3:]
			s := rhs
			var diag float64
			for j, c := range coeffs {
				col := off + j
				if col == row {
					diag = c
					continue
				}
				x, ok := m.Float(VarKey(col))
				if !ok {
					return fmt.Errorf("linsolve: model missing %s", VarKey(col))
				}
				s -= float64(c * x)
			}
			if diag == 0 {
				return fmt.Errorf("linsolve: zero diagonal at row %d", row)
			}
			emit.Emit(VarKey(row), writable.Float64(s/diag))
			return nil
		}),
	}
	out, err := rt.RunJob(job, in, m)
	if err != nil {
		return nil, err
	}
	next := m.NewLike()
	for _, rec := range out.Records {
		next.Set(rec.Key, rec.Value)
	}
	if next.Len() != m.Len() {
		return nil, fmt.Errorf("linsolve: sweep produced %d variables, model has %d", next.Len(), m.Len())
	}
	return next, nil
}

// Converged implements core.App.
func (a *App) Converged(prev, next *model.Model) bool {
	return model.FloatDeltaBelow(prev, next, a.Tolerance)
}

// Partition implements core.PICApp: contiguous variable blocks. Each
// block's rows keep only their in-block coefficients; the contribution
// of out-of-block variables, at their current merged values, is folded
// into the block's right-hand side (block Jacobi).
func (a *App) Partition(_ *mapred.Input, m *model.Model, p int) ([]core.SubProblem, error) {
	n := a.a.Rows
	if p > n {
		return nil, fmt.Errorf("linsolve: %d partitions for %d variables", p, n)
	}
	x := Solution(m, n)
	subs := make([]core.SubProblem, p)
	for g := 0; g < p; g++ {
		lo, hi := g*n/p, (g+1)*n/p
		recs := make([]mapred.Record, 0, hi-lo)
		sm := model.New()
		for i := lo; i < hi; i++ {
			rhs := a.b[i]
			row := a.a.Row(i)
			for j := 0; j < n; j++ {
				if j < lo || j >= hi {
					rhs -= float64(row[j] * x[j])
				}
			}
			recs = append(recs, mapred.Record{
				Key:   rowKey(i),
				Value: rowValue(i, rhs, lo, row[lo:hi]),
			})
			sm.Set(VarKey(i), writable.Float64(x[i]))
		}
		subs[g] = core.SubProblem{Records: recs, Model: sm}
	}
	return subs, nil
}

// Merge implements core.PICApp: the blocks are disjoint, so the merged
// model is their concatenation (§III-B: "piece them back together").
func (a *App) Merge(parts []*model.Model, _ *model.Model) (*model.Model, error) {
	return core.ConcatModels(parts)
}

// Golden returns the exact solution by direct elimination — the unique
// reference of Figure 12(c).
func (a *App) Golden() (linalg.Vector, error) {
	return a.a.Solve(a.b)
}

// MergeKey implements core.KeyMerger. Variable blocks are disjoint —
// every variable belongs to exactly one block — so the key merge is
// identity with a disjointness check, matching ConcatModels.
func (a *App) MergeKey(key string, values []writable.Writable) (writable.Writable, error) {
	if len(values) != 1 {
		return nil, fmt.Errorf("linsolve: variable %q in %d blocks, want 1", key, len(values))
	}
	return values[0], nil
}

// MergeKeyWeighted implements core.WeightedKeyMerger: identity merges
// stay identity under pre-combining, so hierarchical rack-level
// pre-merges are exactly as unbiased as the flat merge.
func (a *App) MergeKeyWeighted(key string, values []writable.Writable, weights []int) (writable.Writable, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("linsolve: bad weighted merge for %q: %d values, %d weights", key, len(values), len(weights))
	}
	for _, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("linsolve: weight %d for %q", w, key)
		}
	}
	return a.MergeKey(key, values)
}

var _ core.WeightedKeyMerger = (*App)(nil)
