package core

import (
	"fmt"

	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// Default partition and merge building blocks (the paper's Figure 4
// notes that PIC ships default partitioner classes and default mergers —
// vector concatenation, sum and average — that applications can use
// instead of writing their own).

// DealRecords deals records into p near-equal groups round-robin —
// PIC's "simple random partition" default, made deterministic. Input
// generators in this repository already emit records in randomized
// order, so dealing is an unbiased random partition with reproducible
// results.
func DealRecords(records []mapred.Record, p int) [][]mapred.Record {
	if p <= 0 {
		panic("core: DealRecords needs p ≥ 1")
	}
	out := make([][]mapred.Record, p)
	for i, r := range records {
		out[i%p] = append(out[i%p], r)
	}
	return out
}

// PartitionRecordsBy groups records by an application-supplied
// assignment (e.g. a graph partitioner's vertex→partition map). assign
// must return a value in [0,p).
func PartitionRecordsBy(records []mapred.Record, p int, assign func(mapred.Record) int) ([][]mapred.Record, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: PartitionRecordsBy needs p ≥ 1")
	}
	out := make([][]mapred.Record, p)
	for _, r := range records {
		g := assign(r)
		if g < 0 || g >= p {
			return nil, fmt.Errorf("core: record %q assigned to partition %d of %d", r.Key, g, p)
		}
		out[g] = append(out[g], r)
	}
	return out, nil
}

// CopyModels returns p deep copies of m — the partitioning strategy for
// applications like K-means where every sub-problem refines the whole
// model (§III-B).
func CopyModels(m *model.Model, p int) []*model.Model {
	out := make([]*model.Model, p)
	for i := range out {
		out[i] = m.Clone()
	}
	return out
}

// AverageModels is the default "average corresponding entries" merger:
// for every key, Vector values are averaged component-wise and Float64
// values are averaged, over the partial models containing the key.
// Non-numeric values are taken from the first partial model holding the
// key. It returns an error on vector length disagreements.
func AverageModels(parts []*model.Model) (*model.Model, error) {
	return combineModels(parts, true)
}

// SumModels is the default "sum corresponding entries" merger, with the
// same correspondence rules as AverageModels.
func SumModels(parts []*model.Model) (*model.Model, error) {
	return combineModels(parts, false)
}

func combineModels(parts []*model.Model, average bool) (*model.Model, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merge of zero partial models")
	}
	out := model.New()
	err := walkUnion(parts, func(key string, _ []int, vals []writable.Writable) error {
		n := len(vals)
		switch first := vals[0].(type) {
		case writable.Vector:
			acc := first.Clone()
			for _, v := range vals[1:] {
				nv, ok := v.(writable.Vector)
				if !ok || len(nv) != len(acc) {
					return fmt.Errorf("core: merge key %q: incompatible vectors", key)
				}
				for i := range acc {
					acc[i] += nv[i]
				}
			}
			if average && n > 1 {
				for i := range acc {
					acc[i] /= float64(n)
				}
			}
			out.Set(key, acc)
		case writable.Float64:
			acc := first
			for _, v := range vals[1:] {
				nv, ok := v.(writable.Float64)
				if !ok {
					return fmt.Errorf("core: merge key %q: incompatible kinds", key)
				}
				acc += nv
			}
			if average && n > 1 {
				acc /= writable.Float64(n)
			}
			out.Set(key, acc)
		default:
			// Non-numeric: first writer wins.
			out.Set(key, writable.Clone(first))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ConcatModels is the default merger for disjointly partitioned models
// (§III-B: "piece them back together"): the union of the partial
// models' entries. Duplicate keys are an error — disjoint partitioning
// must produce disjoint models.
func ConcatModels(parts []*model.Model) (*model.Model, error) {
	out := model.New()
	err := walkUnion(parts, func(key string, _ []int, vals []writable.Writable) error {
		if len(vals) > 1 {
			return fmt.Errorf("core: concat merge: duplicate key %q", key)
		}
		out.Set(key, writable.Clone(vals[0]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
