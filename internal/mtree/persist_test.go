package mtree

import (
	"strings"
	"testing"
)

// TestReadJSONRejectsModelLengthMismatch: a node model whose attrs and
// coefs differ in length cannot be evaluated or re-written in the binary
// format, so the JSON reader must refuse it rather than load it.
func TestReadJSONRejectsModelLengthMismatch(t *testing.T) {
	const tmpl = `{"target":"CPI","attrs":["CPI","L2M","L1IM"],"root":{"split_attr":1,"threshold":0.5,` +
		`"left":{"split_attr":-1,"model":{"intercept":1,"attrs":[1,2],"coefs":[0.5,2]},"n":1,"sd":0,"mean":1,"leaf_id":1},` +
		`"right":{"split_attr":-1,"model":{"intercept":1,"attrs":[1],"coefs":%s},"n":1,"sd":0,"mean":1,"leaf_id":2},` +
		`"model":{"intercept":1},"n":2,"sd":0,"mean":1}}`
	if _, err := ReadJSON(strings.NewReader(strings.Replace(tmpl, "%s", "[3]", 1))); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for _, coefs := range []string{"[0.5,2]", "[]"} {
		_, err := ReadJSON(strings.NewReader(strings.Replace(tmpl, "%s", coefs, 1)))
		if err == nil || !strings.Contains(err.Error(), "node 2: linear model has 1 attrs") {
			t.Errorf("coefs %s: err = %v, want node 2's attrs/coefs mismatch", coefs, err)
		}
	}
}
