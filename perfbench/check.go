package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Reference is the benchmark's own view of the served model: the same
// binary tree file loaded in-process twice, once as the compiled tree
// every answer is checked against and once through the serve registry
// (the object the server itself evaluates), plus an in-process handler
// whose response bytes the live server's must equal.
type Reference struct {
	p       *Payload
	reg     *serve.Registry
	tree    *mtree.CompiledTree
	model   model.Model
	handler http.Handler
	// streamHandler holds the replay sessions, one per execution.
	streamHandler http.Handler
	scfg          stream.Config

	expected map[int32]bodyDigest
}

type bodyDigest struct {
	CRC uint32
	Len int
}

// NewReference loads the model file for checking.
func NewReference(p *Payload, treeBytes []byte, treePath string) (*Reference, error) {
	tree, err := mtree.ReadBinary(treeBytes)
	if err != nil {
		return nil, fmt.Errorf("loading reference tree: %w", err)
	}
	reg := serve.NewRegistry()
	if err := reg.LoadFile(modelName, "v1", treePath); err != nil {
		return nil, err
	}
	e, err := reg.Get(modelRef)
	if err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	scfg := cfg.Stream
	scfg.Jobs = cfg.Jobs
	return &Reference{
		p:             p,
		reg:           reg,
		tree:          tree,
		model:         e.Model,
		handler:       serve.New(reg, cfg).Handler(),
		streamHandler: serve.New(reg, cfg).Handler(),
		scfg:          scfg,
		expected:      make(map[int32]bodyDigest),
	}, nil
}

// serveInProcess runs one request through an in-process handler.
func serveInProcess(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// Expect returns the digest a live response to template t must have. It
// computes it once per template from the in-process handler, after
// checking that handler's answer against the compiled tree.
func (ref *Reference) Expect(t int32, body []byte) (bodyDigest, error) {
	if d, ok := ref.expected[t]; ok {
		return d, nil
	}
	kind, rows, contrib := ref.p.TemplateRows(t)
	rec := serveInProcess(ref.handler, route(kind), body)
	if rec.Code != http.StatusOK {
		return bodyDigest{}, fmt.Errorf("template %d: in-process HTTP %d: %s", t, rec.Code, rec.Body.Bytes())
	}
	if err := CheckPredictBody(ref.tree, kind, rows, contrib, rec.Body.Bytes()); err != nil {
		return bodyDigest{}, fmt.Errorf("template %d: %w", t, err)
	}
	d := bodyDigest{CRC: crc32.Checksum(rec.Body.Bytes(), castagnoli), Len: rec.Body.Len()}
	ref.expected[t] = d
	return d, nil
}

// CheckPredictBody checks a /v1/predict or /v1/classify response body
// against the compiled tree: predictions bit-equal to Predict,
// contributions equal to Contributions, leaf ids equal to Classify's.
// An empty or undecodable body fails.
func CheckPredictBody(tree *mtree.CompiledTree, kind uint8, rows []dataset.Instance, contrib bool, body []byte) error {
	if kind == kindClassify {
		var resp struct {
			N       int `json:"n"`
			Classes []struct {
				LeafID     int     `json:"leaf_id"`
				Prediction float64 `json:"prediction"`
			} `json:"classes"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("undecodable classify body: %w", err)
		}
		if resp.N != len(rows) || len(resp.Classes) != len(rows) {
			return fmt.Errorf("classify answered %d/%d classes for %d rows", resp.N, len(resp.Classes), len(rows))
		}
		for i, row := range rows {
			leaf, _ := tree.Classify(row)
			if got := resp.Classes[i].LeafID; got != leaf.LeafID {
				return fmt.Errorf("row %d: leaf %d, reference %d", i, got, leaf.LeafID)
			}
		}
		return nil
	}
	var resp struct {
		N             int                    `json:"n"`
		Predictions   []float64              `json:"predictions"`
		Contributions [][]model.Contribution `json:"contributions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable predict body: %w", err)
	}
	if resp.N != len(rows) || len(resp.Predictions) != len(rows) {
		return fmt.Errorf("predict answered %d/%d predictions for %d rows", resp.N, len(resp.Predictions), len(rows))
	}
	if contrib != (resp.Contributions != nil) {
		return fmt.Errorf("contributions present=%v, requested=%v", resp.Contributions != nil, contrib)
	}
	for i, row := range rows {
		want := tree.Predict(row)
		if math.Float64bits(resp.Predictions[i]) != math.Float64bits(want) {
			return fmt.Errorf("row %d: prediction %v, reference %v", i, resp.Predictions[i], want)
		}
		if contrib && !reflect.DeepEqual(resp.Contributions[i], tree.Contributions(row)) {
			return fmt.Errorf("row %d: contributions differ from the reference", i)
		}
	}
	return nil
}

// postExpect is what post k of an execution's replay must answer.
type postExpect struct {
	EventsCRC uint32       // of the in-process handler's event lines
	Stats     stream.Stats // the benchmark-side processor's stats after the post
}

// streamReplay replays one session stream's posts through a benchmark-side
// stream.Processor and, in step, through the in-process handler, timing
// the processor's stages for the traced run.
type streamReplay struct {
	proc  *stream.Processor
	posts []postExpect
	// Stage totals over every replayed post.
	decode, ingest, encode time.Duration
	events, bytesOut       int
}

// ReplayStream extends the replay of the session stream that starts at
// execution e, line start, to at least n posts.
func (ref *Reference) ReplayStream(r *streamReplay, e, n int, lines [][]byte, start int) error {
	if r.proc == nil {
		p, err := stream.NewProcessor(ref.model, ref.scfg)
		if err != nil {
			return err
		}
		r.proc = p
	}
	var body []byte
	var out bytes.Buffer
	for k := len(r.posts); k < n; k++ {
		body = PostBody(body, lines, start, k)

		t0 := time.Now()
		dec := stream.NewDecoder(bytes.NewReader(body))
		var samples []stream.Sample
		for {
			s, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("execution %d post %d: %w", e, k, err)
			}
			samples = append(samples, s)
		}
		t1 := time.Now()
		var evs []stream.Event
		for _, s := range samples {
			if err := r.proc.Check(s); err != nil {
				return fmt.Errorf("execution %d post %d: %w", e, k, err)
			}
			got, err := r.proc.IngestChecked(s)
			if err != nil {
				return fmt.Errorf("execution %d post %d: %w", e, k, err)
			}
			evs = append(evs, got...)
		}
		got, err := r.proc.Flush()
		if err != nil {
			return fmt.Errorf("execution %d post %d: %w", e, k, err)
		}
		evs = append(evs, got...)
		t2 := time.Now()
		out.Reset()
		enc := json.NewEncoder(&out)
		for i := range evs {
			if err := enc.Encode(&evs[i]); err != nil {
				return err
			}
		}
		t3 := time.Now()
		if len(samples) != streamPost {
			return fmt.Errorf("execution %d post %d: decoded %d samples", e, k, len(samples))
		}
		r.decode += t1.Sub(t0)
		r.ingest += t2.Sub(t1)
		r.encode += t3.Sub(t2)
		r.events += len(evs)
		r.bytesOut += out.Len()

		rec := serveInProcess(ref.streamHandler, streamPath(fmt.Sprintf("x%d", e)), body)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("execution %d post %d: in-process HTTP %d", e, k, rec.Code)
		}
		events, summary := splitSummary(rec.Body.Bytes())
		stats := r.proc.Stats()
		if err := CheckStreamResponse(events, summary, evs, stats); err != nil {
			return fmt.Errorf("execution %d post %d: in-process handler vs processor replay: %w", e, k, err)
		}
		r.posts = append(r.posts, postExpect{EventsCRC: crc32.Checksum(events, castagnoli), Stats: stats})
	}
	return nil
}

// CheckStreamResponse checks a /v1/stream response (event lines and
// summary line) against a processor replay of the same post: the same
// number of events of each type, a summary that ingested every sample,
// and summary stats equal to the replay's.
func CheckStreamResponse(events, summary []byte, want []stream.Event, wantStats stream.Stats) error {
	got, err := countEvents(events)
	if err != nil {
		return err
	}
	wantCounts := map[string]int{}
	for _, ev := range want {
		wantCounts[ev.Type]++
	}
	if !reflect.DeepEqual(got, wantCounts) {
		return fmt.Errorf("event counts %v, replay %v", got, wantCounts)
	}
	return CheckStreamSummary(summary, wantStats)
}

// CheckStreamSummary checks a stream summary line: type "summary",
// ingested equal to the post's sample count, and stats equal to the
// replay's (compared after the same JSON round trip).
func CheckStreamSummary(summary []byte, wantStats stream.Stats) error {
	var s struct {
		Type     string          `json:"type"`
		Ingested int             `json:"ingested"`
		Stats    json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(summary, &s); err != nil {
		return fmt.Errorf("undecodable stream summary: %w", err)
	}
	if s.Type != "summary" || s.Ingested != streamPost {
		return fmt.Errorf("summary type %q ingested %d, want \"summary\" %d", s.Type, s.Ingested, streamPost)
	}
	var got, want stream.Stats
	if err := json.Unmarshal(s.Stats, &got); err != nil {
		return fmt.Errorf("undecodable summary stats: %w", err)
	}
	b, err := json.Marshal(wantStats)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("summary stats %+v, replay %+v", got, want)
	}
	return nil
}

// countEvents counts NDJSON event lines by type.
func countEvents(b []byte) (map[string]int, error) {
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("undecodable event line: %w", err)
		}
		counts[ev.Type]++
	}
	return counts, sc.Err()
}
