package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/mtree"
)

// codecServer serves a tree over perfData's four-column schema
// (CPI, L1IM, L2M, DtlbLdM) as cpi@v1, with a small MaxBatch so
// batches can cross it.
func codecServer(tb testing.TB) *Server {
	tb.Helper()
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(perfData(1200, 5), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		tb.Fatal(err)
	}
	scfg := DefaultConfig()
	scfg.MaxBatch = 8
	return New(reg, scfg)
}

// referenceInput is what decodeFast stands in for: encoding/json with
// unknown fields disallowed, the registry lookup, resolveRows and the
// MaxBatch check.
func referenceInput(s *Server, body []byte) (predictInput, error) {
	var req predictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return predictInput{}, err
	}
	e, err := s.reg.Get(req.Model)
	if err != nil {
		return predictInput{}, err
	}
	rows, err := resolveRows(&req, e)
	if err != nil {
		return predictInput{}, err
	}
	if len(rows) > s.cfg.MaxBatch {
		return predictInput{}, fmt.Errorf("batch of %d rows", len(rows))
	}
	return predictInput{e: e, rows: rows, contributions: req.Contributions}, nil
}

// canonicalBodies take the fast path; fallbackBodies leave the
// canonical subset and go to encoding/json.
var canonicalBodies = []string{
	`{"model":"cpi","row":[1.2,0.01,0.002,0.0003]}`,
	`{"model":"cpi","rows":[[1,0.01,0.002,0.0003],[0,0.02,0.004,0]],"contributions":true}`,
	` { "model" : "cpi@v1" , "contributions" : false , "events" : [ { "L2M" : 0.004 } , { } ] } `,
	`{"model":"cpi","events":[{"L2M":1,"L2M":2,"L1IM":-0}]}`,
	`{"model":"cpi","row":[1e-400,-0,-0.0,1E+2]}`,
	`{"model":"cpi","row":[0,0,0,0]}`,
	`{"model":"cpi","events":[{"L2M":1}]}`,
}

var fallbackBodies = []string{
	`{"Model":"cpi","row":[0,0,0,0]}`,
	`{"MODEL":"cpi","ROWS":[[0,0,0,0]]}`,
	`{"model":"cpi","rows":[[0,0,0,0]],"rows":[[1,1,1,1],[2,2,2,2]]}`,
	`{"model":"cpi","contributions":true,"contributions":false,"row":[0,0,0,0]}`,
	`{"model":"cpi","row":null}`,
	`{"model":"cpi","row":null,"rows":[[0,0,0,0]]}`,
	`{"model":"cpi","events":[null]}`,
	`{"model":"cpi","events":[{"L2M":null}]}`,
	`{"model":"cpi","contributions":null,"row":[0,0,0,0]}`,
	`{"model":"cpi","rows":[]}`,
	`{"model":"cpi","events":[]}`,
	`{"model":"cpi","rows":[[]]}`,
	`{"model":"cpi","row":[1e400,0,0,0]}`,
	`{"model":"cpi","row":[01,0,0,0]}`,
	`{"model":"cpi","row":[1.,0,0,.5]}`,
	`{"model":"cpi","events":[{"NoSuchEvent":1}]}`,
	`{"model":"cpi","events":[{"ZZ1":1,"AA2":2,"MM3":3}]}`,
	`{"model":"cpi","row":[1,2]}`,
	`{"model":"cpi","rows":[[0,0,0,0],[0,0,0,0,0]]}`,
	`{"model":"cpi","row":[0,0,0,0]} trailing`,
	`{"model":"cpi","row":[0,0,0,0]}{}`,
	`{"row":[0,0,0,0],"model":"cpi"}`,
	`{"model":"nope","row":[0,0,0,0]}`,
	`{"model":"","row":[0,0,0,0]}`,
	`{"model":"cpi","row":[0,0,0,0],"bogus":1}`,
	`{"model":"cpi","events":[{},{},{},{},{},{},{},{},{}]}`,
	`{"model":"cpi","row":["1",0,0,0]}`,
}

// FuzzPredictDecodeDifferential pins decodeFast to the encoding/json
// path: whenever the fast decoder accepts a body, the reference accepts
// it too and resolves the same entry, contributions flag and rows, bit
// for bit.
func FuzzPredictDecodeDifferential(f *testing.F) {
	for _, s := range slices.Concat(canonicalBodies, fallbackBodies) {
		f.Add([]byte(s))
	}
	s := codecServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := s.decodeFast(body)
		if !ok {
			return
		}
		want, err := referenceInput(s, body)
		if err != nil {
			t.Fatalf("%q: fast path accepted a body the reference rejects: %v", body, err)
		}
		if got.e != want.e || got.contributions != want.contributions || len(got.rows) != len(want.rows) {
			t.Fatalf("%q: fast (%s, %v, %d rows) vs reference (%s, %v, %d rows)", body,
				got.e.Ref(), got.contributions, len(got.rows), want.e.Ref(), want.contributions, len(want.rows))
		}
		for i := range got.rows {
			if len(got.rows[i]) != len(want.rows[i]) || cap(got.rows[i]) != len(got.rows[i]) {
				t.Fatalf("%q: row %d: width %d (cap %d) vs %d", body, i, len(got.rows[i]), cap(got.rows[i]), len(want.rows[i]))
			}
			for j, v := range got.rows[i] {
				if math.Float64bits(v) != math.Float64bits(want.rows[i][j]) {
					t.Fatalf("%q: row %d col %d: %v vs %v", body, i, j, v, want.rows[i][j])
				}
			}
		}
	})
}

func TestFastPathTakesCanonicalBodies(t *testing.T) {
	s := codecServer(t)
	for _, body := range canonicalBodies {
		if _, ok := s.decodeFast([]byte(body)); !ok {
			t.Errorf("%s: canonical body fell back to encoding/json", body)
		}
	}
	for _, body := range fallbackBodies {
		if _, ok := s.decodeFast([]byte(body)); ok {
			t.Errorf("%s: non-canonical body taken by the fast path", body)
		}
	}
}

// FuzzAppendPredictResponse pins appendPredictResponse to json.Marshal:
// identical bytes plus a newline for every response, and ok=false with
// dst untouched exactly where Marshal fails (a NaN or ±Inf).
func FuzzAppendPredictResponse(f *testing.F) {
	bits := math.Float64bits
	f.Add("cpi@v1", 2, bits(1.41), bits(-0.25), uint8(3), uint8(4), "L2M", 2, bits(0.3), bits(1e-7), bits(1e21), bits(0))
	f.Add("a<b>&c", 0, bits(math.Copysign(0, -1)), bits(123456789), uint8(1), uint8(2), "café\n", -1, bits(-1e-6), bits(5e-324), bits(1e300), bits(2))
	f.Add("m", 1, bits(math.NaN()), bits(0), uint8(2), uint8(0), "", 0, bits(0), bits(0), bits(0), bits(0))
	f.Add("m", 1, bits(1), bits(0), uint8(0), uint8(4), "\xff", 0, bits(1), bits(math.Inf(-1)), bits(0), bits(0))
	f.Add("m", 1, bits(1), bits(0), uint8(2), uint8(3), "x", 7, bits(1), bits(2), bits(3), bits(4))
	f.Fuzz(func(t *testing.T, ref string, n int, p0, p1 uint64, preds, contribs uint8, name string, attr int, c0, c1, c2, c3 uint64) {
		resp := predictResponse{Model: ref, N: n}
		switch preds % 4 {
		case 1:
			resp.Predictions = []float64{}
		case 2:
			resp.Predictions = []float64{math.Float64frombits(p0)}
		case 3:
			resp.Predictions = []float64{math.Float64frombits(p0), math.Float64frombits(p1)}
		}
		c := model.Contribution{Attr: attr, Name: name, Coef: math.Float64frombits(c0),
			Rate: math.Float64frombits(c1), Cycles: math.Float64frombits(c2), Fraction: math.Float64frombits(c3)}
		switch contribs % 5 {
		case 1:
			resp.Contributions = [][]model.Contribution{}
		case 2:
			resp.Contributions = [][]model.Contribution{nil, {c}}
		case 3:
			resp.Contributions = [][]model.Contribution{{}, {c, c}}
		case 4:
			resp.Contributions = [][]model.Contribution{{c}}
		}
		want, wantErr := json.Marshal(&resp)
		prefix := []byte("prev")
		got, ok := appendPredictResponse(prefix, &resp)
		if ok != (wantErr == nil) {
			t.Fatalf("%+v: ok=%v, json.Marshal error %v", resp, ok, wantErr)
		}
		if !ok {
			if string(got) != "prev" {
				t.Fatalf("failed append changed dst: %q", got)
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendPredictResponse\n%s\njson.Marshal\n%s", got[len(prefix):], want)
		}
	})
}

// TestUnknownEventErrorIsDeterministic: with several unknown names in
// one row, the error names the smallest, whatever the map order.
func TestUnknownEventErrorIsDeterministic(t *testing.T) {
	h := codecServer(t).Handler()
	const body = `{"model":"cpi","events":[{"ZZ1":1,"AA2":2,"MM3":3}]}`
	msgs := map[string]int{}
	for i := 0; i < 200; i++ {
		rec := post(h, "/v1/predict", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		msgs[rec.Body.String()]++
	}
	if len(msgs) != 1 {
		t.Fatalf("%d different error bodies for one request: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.Contains(m, `unknown event \"AA2\"`) {
			t.Fatalf("error %s does not name the smallest unknown event AA2", m)
		}
	}
}

// TestPredictReadPathEdges pins the request-body behaviours the
// whole-body read must keep: what encoding/json accepted in a stream
// (a first value followed by anything), case-insensitive and repeated
// keys, the size cap, and classify's contributions rejection.
func TestPredictReadPathEdges(t *testing.T) {
	s := codecServer(t)
	s.cfg.MaxBodyBytes = 1 << 12
	h := s.Handler()
	const row = `"row":[1.2,0.01,0.002,0.0003]`
	ok := post(h, "/v1/predict", `{"model":"cpi",`+row+`}`)
	if ok.Code != http.StatusOK {
		t.Fatalf("status %d: %s", ok.Code, ok.Body)
	}
	same := func(name, path, body string, want []byte) {
		t.Helper()
		if rec := post(h, path, body); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: status %d body %s, want %s", name, rec.Code, rec.Body, want)
		}
	}
	pad := strings.Repeat("x", 1<<12)
	same("garbage after the value", "/v1/predict", `{"model":"cpi",`+row+`} garbage`, ok.Body.Bytes())
	same("garbage past the size cap", "/v1/predict", `{"model":"cpi",`+row+`}`+pad, ok.Body.Bytes())
	same("wrong-case key", "/v1/predict", `{"Model":"cpi",`+row+`}`, ok.Body.Bytes())

	two := post(h, "/v1/predict", `{"model":"cpi","rows":[[1,1,1,1],[2,2,2,2]]}`)
	same("repeated rows key", "/v1/predict", `{"model":"cpi","rows":[[0,0,0,0]],"rows":[[1,1,1,1],[2,2,2,2]]}`, two.Body.Bytes())

	for _, tc := range []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"value crossing the size cap", "/v1/predict", `{"model":"cpi",` + row + `,"pad":"` + pad + `"}`,
			http.StatusRequestEntityTooLarge, ErrCodeTooLarge},
		{"classify with contributions", "/v1/classify", `{"model":"cpi",` + row + `,"contributions":true}`,
			http.StatusBadRequest, ErrCodeBadRequest},
	} {
		rec := post(h, tc.path, tc.body)
		var env errorEnvelope
		if rec.Code != tc.status || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != tc.code {
			t.Errorf("%s: status %d body %s, want %d %s", tc.name, rec.Code, rec.Body, tc.status, tc.code)
		}
	}
}
