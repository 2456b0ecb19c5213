package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/refute"
)

// referenceDecode is the decoder the fast path stands in for:
// encoding/json plus Validate, with DecodeSample's error wrapping.
func referenceDecode(line []byte) (Sample, error) {
	var s Sample
	if err := json.Unmarshal(line, &s); err != nil {
		return Sample{}, fmt.Errorf("stream: malformed sample: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	return s, nil
}

// sameSample compares two decoded samples bit for bit: labels, float
// bits (so -0 and 0 differ), CPI presence and the event key set.
func sameSample(a, b Sample) error {
	if a.Bench != b.Bench || a.Section != b.Section {
		return fmt.Errorf("labels %q/%d vs %q/%d", a.Bench, a.Section, b.Bench, b.Section)
	}
	if (a.CPI == nil) != (b.CPI == nil) {
		return fmt.Errorf("cpi presence %v vs %v", a.CPI != nil, b.CPI != nil)
	}
	if a.CPI != nil && math.Float64bits(*a.CPI) != math.Float64bits(*b.CPI) {
		return fmt.Errorf("cpi %v vs %v", *a.CPI, *b.CPI)
	}
	if (a.Events == nil) != (b.Events == nil) || len(a.Events) != len(b.Events) {
		return fmt.Errorf("events %v vs %v", a.Events, b.Events)
	}
	for k, v := range a.Events {
		w, ok := b.Events[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("event %q: %v vs %v (present %v)", k, v, w, ok)
		}
	}
	return nil
}

var sampleSeeds = []string{
	`{"bench":"mcf","section":12,"events":{"L2M":0.004,"L1IM":0.002},"cpi":1.41}`,
	` { "events" : { "a" : 1 } , "cpi" : 2 } `,
	`{"events":{"a":1}}`,
	`{"events":{}}`,
	`{}`,
	`{"Events":{"a":1}}`,
	`{"EVENTS":{"a":1},"CPI":1}`,
	`{"bench":"mcf","events":{"a":1}}`,
	`{"events":{"L2M":1}}`,
	`{"events":{"a":1},"events":{"b":2}}`,
	`{"events":{"a":1,"a":2}}`,
	`{"events":{"a":1},"cpi":null}`,
	`{"events":{"a":1},"bench":null,"section":null}`,
	`{"events":{"a":1e400}}`,
	`{"events":{"a":1},"cpi":-1e400}`,
	`{"events":{"a":1e-400}}`,
	`{"events":{"a":01}}`,
	`{"events":{"a":-0},"cpi":-0.0}`,
	`{"events":{"a":1.},"cpi":.5}`,
	`{"events":{"a":1E+2,"b":2e-3}}`,
	`{"events":{"a":1},"section":1.5}`,
	`{"events":{"a":1},"section":99999999999999999999}`,
	`{"events":{"a":1},"section":-0}`,
	`{"events":{"a":1}} x`,
	`{"events":{"a":1}}{}`,
	`{"events":{"a":1},}`,
	`{"events":{"a":1},"extra":true}`,
	`{"events":{"a":"1"}}`,
	`{"events":{"a":1},"bench":"<&>"}`,
	"{\"events\":{\"a\":1},\"bench\":\"caf\xc3\xa9\"}",
	"{\"events\":{\"a\":1},\"bench\":\"\xff\"}",
	"{\"events\":{\"a\":1}}\t\r",
	`[1,2,3]`,
	`not json at all`,
	``,
}

// FuzzSampleDecodeDifferential pins the fast-path decoder to
// encoding/json: on every input DecodeSample and the reference agree on
// accept/reject with the same error text, and accept bit-identical
// samples. The fast path alone never accepts a line encoding/json
// rejects, nor decodes it differently.
func FuzzSampleDecodeDifferential(f *testing.F) {
	for _, s := range sampleSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := referenceDecode(line)
		got, gotErr := DecodeSample(line)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, reference %v", line, gotErr, wantErr)
		}
		if err := sameSample(got, want); err != nil {
			t.Fatalf("%q: decoded sample differs: %v", line, err)
		}
		fast, ok := decodeFast(line, interner{})
		if !ok {
			return
		}
		var ref Sample
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("%q: fast path accepted a line encoding/json rejects: %v", line, err)
		}
		if err := sameSample(fast, ref); err != nil {
			t.Fatalf("%q: fast path decodes differently: %v", line, err)
		}
	})
}

func TestFastPathTakesCanonicalLines(t *testing.T) {
	for _, line := range []string{
		`{"bench":"mcf","section":12,"events":{"L2M":0.004,"L1IM":0.002},"cpi":1.41}`,
		` { "events" : { "a" : 1 } , "cpi" : 2 } `,
		`{"events":{"a":-0,"b":1E+2,"c":2e-3}}`,
	} {
		if _, ok := decodeFast([]byte(line), nil); !ok {
			t.Errorf("%s: canonical line fell back to encoding/json", line)
		}
	}
	for _, line := range []string{
		`{"Events":{"a":1}}`, `{"events":{"a":1},"events":{"b":2}}`, `{"events":{"a":1},"cpi":null}`,
		`{"events":{"a":1e400}}`, `{"events":{"a":01}}`, `{"events":{"a":1}} x`,
	} {
		if _, ok := decodeFast([]byte(line), nil); ok {
			t.Errorf("%s: non-canonical line taken by the fast path", line)
		}
	}
}

func TestDecoderInternsNames(t *testing.T) {
	body := `{"bench":"mcf","events":{"L2M":1,"L1IM":2}}` + "\n" + `{"bench":"mcf","events":{"L2M":3,"L1IM":4}}` + "\n"
	dec := NewDecoder(bytes.NewReader([]byte(body)))
	a, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.names) != 3 {
		t.Fatalf("interned %d strings, want 3 (mcf, L2M, L1IM)", len(dec.names))
	}
	if a.Bench != b.Bench || b.Events["L2M"] != 3 || a.Events["L1IM"] != 2 {
		t.Fatalf("decoded %+v then %+v", a, b)
	}
}

// encoderLine is the reference AppendEvent stands in for.
func encoderLine(ev *Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(ev)
	return buf.Bytes(), err
}

// FuzzAppendEvent pins AppendEvent to json.Encoder: identical bytes for
// every event, and an error exactly where the encoder fails (a NaN or
// ±Inf float), leaving dst untouched.
func FuzzAppendEvent(f *testing.F) {
	f.Add("sample", 3, "mcf", 1, uint64(math.Float64bits(1.41)), true, uint64(math.Float64bits(-0.25)), false, "L2M",
		uint64(math.Float64bits(0.3)), "", uint64(0), "", "")
	f.Add("drift", -1, "a<b>&c", 0, uint64(math.Float64bits(1e-7)), false, uint64(0), true, "café ",
		uint64(math.Float64bits(1e21)), "up", uint64(math.Float64bits(-1e-6)), "rel\"\\\n", "suspect")
	f.Add("sample", 0, "", 0, uint64(math.Float64bits(math.Inf(1))), false, uint64(0), false, "", uint64(0), "", uint64(0), "", "")
	f.Add("sample", 0, "", 0, uint64(math.Float64bits(math.NaN())), true, uint64(math.Float64bits(math.Copysign(0, -1))), false, "\xff", uint64(0), "", uint64(1), "", "")
	f.Fuzz(func(t *testing.T, typ string, section int, bench string, phase int, fbits uint64, hasObs bool,
		obsBits uint64, hasRes bool, top string, gbits uint64, dir string, hbits uint64, rel, verdict string) {
		x, y, z := math.Float64frombits(fbits), math.Float64frombits(gbits), math.Float64frombits(hbits)
		ev := Event{
			Type: typ, Section: section, Bench: bench, Phase: phase,
			Predicted: x, TopEvent: top, TopFraction: y,
			PhaseStart: section / 2, Direction: dir, Stat: z, MeanResidual: -x, RunLength: phase * 3,
			Relation: rel, Verdict: refute.Verdict(verdict), Deviation: y * z,
		}
		if hasObs {
			o := math.Float64frombits(obsBits)
			ev.Observed = &o
		}
		if hasRes {
			r := x - y
			ev.Residual = &r
		}
		want, wantErr := encoderLine(&ev)
		prefix := []byte("prev\n")
		got, err := AppendEvent(prefix, &ev)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%+v: AppendEvent error %v, json.Encoder %v", ev, err, wantErr)
		}
		if err != nil {
			if string(got) != "prev\n" {
				t.Fatalf("failed AppendEvent changed dst: %q", got)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendEvent\n%s\njson.Encoder\n%s", got[len(prefix):], want)
		}
	})
}
