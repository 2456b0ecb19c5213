package mtree

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/model"
)

// Tree implements model.Model. The analysis layer and the serving layer
// both consume trees through that interface; the assertion keeps the
// conformance from silently rotting.
var _ model.Model = (*Tree)(nil)

// Contributions decomposes the leaf model's (unsmoothed) prediction for an
// instance into per-event CPI shares, largest first — the paper's Eq. 4
// arithmetic (e.g. 6.69*L1IM/CPI ≈ 20%). The unsmoothed leaf prediction is
// used so that intercept + sum(Cycles) reproduces it exactly.
func (t *Tree) Contributions(row dataset.Instance) []model.Contribution {
	leaf, _ := t.Classify(row)
	pred := leaf.Model.Predict(row)
	var out []model.Contribution
	for i, a := range leaf.Model.Attrs {
		coef := leaf.Model.Coefs[i]
		if coef == 0 {
			continue
		}
		rate := row[a]
		cyc := coef * rate
		var frac float64
		if pred != 0 {
			frac = cyc / pred
		}
		out = append(out, model.Contribution{
			Attr: a, Name: t.attrName(a), Coef: coef, Rate: rate, Cycles: cyc, Fraction: frac,
		})
	}
	sortContributions(out)
	return out
}

// sortContributions orders shares largest-CPI-contribution first; the
// stable sort keeps coefficient order for ties, so the pointer-walk and
// compiled decompositions agree element for element. The comparator is
// negative exactly when a.Cycles > b.Cycles, so incomparable values
// (NaN) tie, and the generic stable sort — the same insertion-sort and
// symMerge algorithm as sort.SliceStable, minus the reflection-based
// swapper — yields the same order.
func sortContributions(out []model.Contribution) {
	slices.SortStableFunc(out, func(a, b model.Contribution) int {
		switch {
		case a.Cycles > b.Cycles:
			return -1
		case b.Cycles > a.Cycles:
			return 1
		}
		return 0
	})
}

// Describe implements model.Model.
func (t *Tree) Describe() model.Description {
	return model.Description{
		Kind:      "m5-model-tree",
		Target:    t.TargetName,
		AttrNames: t.AttrNames,
		TrainN:    t.TrainN,
		NumLeaves: t.NumLeaves(),
		Trees:     1,
		Machine:   t.Machine,
	}
}
