package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/mtree"
	"repro/internal/stream"
	"repro/internal/workload"
)

// fixture trains a small tree on a reduced suite, saves it in binary
// format, and builds the reference and a payload from a held-out
// collection, the way a run does.
func fixture(t *testing.T) (*Reference, *Payload) {
	t.Helper()
	cfg := counters.DefaultCollectConfig()
	cfg.Seed = 7
	train, err := counters.CollectSuite(workload.SuiteScaled(0.03), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := mtree.DefaultConfig()
	tcfg.MinLeaf = 20
	tree, err := mtree.Build(train.Data, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	held, err := counters.CollectSuite(workload.SuiteScaled(0.03), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPayload(held)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(p, buf.Bytes(), path)
	if err != nil {
		t.Fatal(err)
	}
	return ref, p
}

func TestReferenceAcceptsServedAnswers(t *testing.T) {
	ref, p := fixture(t)
	bodies, kinds, err := p.Templates()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint8]bool{}
	for i := range bodies {
		if _, err := ref.Expect(int32(i), bodies[i]); err != nil {
			t.Fatalf("template %d (%s): %v", i, kindNames[kinds[i]], err)
		}
		seen[kinds[i]] = true
	}
	if !seen[kindSingle] || !seen[kindClassify] || !seen[kindBatch] {
		t.Errorf("templates cover kinds %v", seen)
	}
}

func TestCheckPredictBodyRejectsWrongAnswers(t *testing.T) {
	ref, p := fixture(t)
	bodies, _, err := p.Templates()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := p.batchTmpl(0, true)
	kind, rows, contrib := p.TemplateRows(tmpl)
	good := serveInProcess(ref.handler, "/v1/predict", bodies[tmpl]).Body.Bytes()
	if err := CheckPredictBody(ref.tree, kind, rows, contrib, good); err != nil {
		t.Fatalf("served answer rejected: %v", err)
	}

	var resp map[string]any
	if err := json.Unmarshal(good, &resp); err != nil {
		t.Fatal(err)
	}
	preds := resp["predictions"].([]any)
	preds[1] = math.Nextafter(preds[1].(float64), math.Inf(1)) // one ulp off
	offByOne, _ := json.Marshal(resp)
	if err := CheckPredictBody(ref.tree, kind, rows, contrib, offByOne); err == nil {
		t.Error("a prediction one ulp off passed")
	}
	delete(resp, "contributions")
	noContrib, _ := json.Marshal(resp)
	if err := CheckPredictBody(ref.tree, kind, rows, contrib, noContrib); err == nil {
		t.Error("missing contributions passed")
	}
	for _, body := range []string{"", "{", "null"} {
		if err := CheckPredictBody(ref.tree, kind, rows, contrib, []byte(body)); err == nil {
			t.Errorf("body %q passed", body)
		}
	}

	ct := p.classifyTmpl(0)
	kind, rows, _ = p.TemplateRows(ct)
	good = serveInProcess(ref.handler, "/v1/classify", bodies[ct]).Body.Bytes()
	if err := CheckPredictBody(ref.tree, kind, rows, false, good); err != nil {
		t.Fatalf("served classification rejected: %v", err)
	}
	leaf, _ := ref.tree.Classify(rows[0])
	wrong := strings.Replace(string(good), `"leaf_id":`+itoa(leaf.LeafID), `"leaf_id":`+itoa(leaf.LeafID+1), 1)
	if err := CheckPredictBody(ref.tree, kind, rows, false, []byte(wrong)); err == nil {
		t.Error("a wrong leaf id passed")
	}
}

func itoa(i int) string { b, _ := json.Marshal(i); return string(b) }

func TestStreamReplayMatchesServedSessions(t *testing.T) {
	ref, p := fixture(t)
	lines, starts, err := p.StreamLines()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(p.Rows) || len(starts) != len(p.Execs) || starts[1] != len(p.Execs[0].Rows) {
		t.Fatalf("%d lines, execution starts %v, for %d rows", len(lines), starts, len(p.Rows))
	}
	// Start at the second execution and go on past the payload's end, so
	// the session crosses executions and wraps.
	start := starts[1]
	n := len(lines)/streamPost + 3
	if !Repeats(len(lines), n-1) || Repeats(len(lines), len(lines)/streamPost-1) {
		t.Fatalf("Repeats wrong around post %d of %d lines", n, len(lines))
	}
	r := &streamReplay{}
	if err := ref.ReplayStream(r, 1, n, lines, start); err != nil {
		t.Fatal(err)
	}
	if len(r.posts) != n || r.events == 0 || r.bytesOut == 0 {
		t.Fatalf("replay of %d posts: %d posts, %d events, %d bytes", n, len(r.posts), r.events, r.bytesOut)
	}
	last := r.posts[n-1].Stats
	if last.Scored != uint64(n*streamPost) || last.Refutation.Violations != 0 {
		t.Errorf("final stats %+v; clean simulator payloads must not violate relations", last)
	}

	// A second session of the same stream, served separately, must
	// answer every post exactly as the replay expects.
	var body []byte
	for k := 0; k < n; k++ {
		body = PostBody(body, lines, start, k)
		w := serveInProcess(ref.handler, "/v1/stream?model="+modelRef+"&session=other", body)
		events, summary := splitSummary(w.Body.Bytes())
		if got := crc32.Checksum(events, castagnoli); got != r.posts[k].EventsCRC {
			t.Fatalf("post %d: events differ from the replay", k)
		}
		if err := CheckStreamSummary(summary, r.posts[k].Stats); err != nil {
			t.Fatalf("post %d: %v", k, err)
		}
	}
}

func TestCheckStreamSummaryRejects(t *testing.T) {
	want := stream.Stats{Accepted: 32, Scored: 32, Windows: 2, Phase: 1}
	good, _ := json.Marshal(map[string]any{"type": "summary", "ingested": streamPost, "stats": want})
	if err := CheckStreamSummary(good, want); err != nil {
		t.Fatalf("matching summary rejected: %v", err)
	}
	other := want
	other.Scored++
	for name, line := range map[string][]byte{
		"empty":        nil,
		"not json":     []byte("{"),
		"wrong type":   mustJSON(map[string]any{"type": "error", "ingested": streamPost, "stats": want}),
		"ingested":     mustJSON(map[string]any{"type": "summary", "ingested": streamPost - 1, "stats": want}),
		"stats differ": mustJSON(map[string]any{"type": "summary", "ingested": streamPost, "stats": other}),
	} {
		if err := CheckStreamSummary(line, want); err == nil {
			t.Errorf("%s summary passed", name)
		}
	}
}

func mustJSON(v any) []byte { b, _ := json.Marshal(v); return b }

func TestCheckStreamResponseCountsEventsByType(t *testing.T) {
	want := []stream.Event{{Type: "sample"}, {Type: "sample"}, {Type: "phase"}}
	events := []byte("{\"type\":\"sample\"}\n{\"type\":\"phase\"}\n{\"type\":\"sample\"}\n")
	summary := mustJSON(map[string]any{"type": "summary", "ingested": streamPost, "stats": stream.Stats{}})
	if err := CheckStreamResponse(events, summary, want, stream.Stats{}); err != nil {
		t.Fatalf("matching response rejected: %v", err)
	}
	if err := CheckStreamResponse(events, summary, want[:2], stream.Stats{}); err == nil {
		t.Error("an extra phase event passed")
	}
	if err := CheckStreamResponse([]byte("garbage\n"), summary, want, stream.Stats{}); err == nil {
		t.Error("an undecodable event line passed")
	}
}

func TestSplitSummaryAndPostBody(t *testing.T) {
	events, summary := splitSummary([]byte("{\"a\":1}\n{\"b\":2}\n{\"type\":\"summary\"}\n"))
	if string(events) != "{\"a\":1}\n{\"b\":2}\n" || string(summary) != `{"type":"summary"}` {
		t.Errorf("split %q / %q", events, summary)
	}
	events, summary = splitSummary([]byte("{\"type\":\"summary\"}\n"))
	if len(events) != 0 || string(summary) != `{"type":"summary"}` {
		t.Errorf("summary-only split %q / %q", events, summary)
	}

	lines := [][]byte{[]byte("a\n"), []byte("b\n"), []byte("c\n")}
	got := string(PostBody(nil, lines, 2, 1)) // samples 18..33 of 3 lines
	var want string
	for j := 18; j < 34; j++ {
		want += string(lines[j%3])
	}
	if got != want {
		t.Errorf("post 1 = %q, want %q", got, want)
	}
}
