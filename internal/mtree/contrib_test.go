package mtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/linreg"
	"repro/internal/model"
)

// TestSortContributionsMatchesSliceStable pins the contribution order:
// the generic stable sort must order every input — ties, ±0, ±Inf and
// NaN Cycles included — exactly as the sort.SliceStable reference,
// which stays here as the definition of the order.
func TestSortContributionsMatchesSliceStable(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	cases := map[string][]float64{
		"empty":      {},
		"ties":       {1, 2, 1, 2, 1, 3, 3},
		"signed-0":   {0, negZero, 0, -1, negZero, 1},
		"infinities": {1, -inf, inf, 0, inf, -inf, -1},
		"nan":        {nan, 1, nan, 2, -inf, nan, 0, inf},
		"all-nan":    {nan, nan, nan},
	}
	// Longer mixes cross the 20-element insertion-sort blocks into the
	// merge phase, where tie handling is easiest to get wrong.
	r := rand.New(rand.NewSource(7))
	pool := []float64{0, negZero, 1, -1, 2.5, inf, -inf, nan}
	for n := 21; n <= 130; n += 27 {
		c := make([]float64, n)
		for i := range c {
			c[i] = pool[r.Intn(len(pool))]
		}
		cases[fmt.Sprintf("mix-%d", n)] = c
	}
	for name, cycles := range cases {
		got := make([]model.Contribution, len(cycles))
		for i, c := range cycles {
			got[i] = model.Contribution{Attr: i, Cycles: c}
		}
		want := append([]model.Contribution(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Cycles > want[j].Cycles })
		sortContributions(got)
		for i := range got {
			if got[i].Attr != want[i].Attr {
				t.Fatalf("%s: position %d holds attr %d, reference attr %d", name, i, got[i].Attr, want[i].Attr)
			}
		}
	}
}

// TestContributionsNilWithoutTerms pins the no-term result: a leaf
// whose linear model has no nonzero coefficient decomposes to nil, not
// an empty slice, on both evaluators.
func TestContributionsNilWithoutTerms(t *testing.T) {
	tree := &Tree{
		AttrNames:  []string{"a", "cpi"},
		TargetName: "cpi",
		Root: &Node{SplitAttr: -1, LeafID: 1, Model: &linreg.Model{
			Intercept: 1.5, Attrs: []int{0}, Coefs: []float64{0}, Names: []string{"a"},
		}},
	}
	row := []float64{2, 0}
	if got := tree.Contributions(row); got != nil {
		t.Fatalf("Tree.Contributions = %#v, want nil", got)
	}
	if got := Compile(tree).Contributions(row); got != nil {
		t.Fatalf("CompiledTree.Contributions = %#v, want nil", got)
	}
}
