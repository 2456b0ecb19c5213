package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/stream"
)

// streamTrace renders an NDJSON trace with the same generative law as
// perfData: one phase change at boundary (the counter regime flips) and
// an unexplained CPI shift from shiftAt on (a performance regression the
// model cannot account for).
func streamTrace(total, boundary, shiftAt int, shift float64, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := 0; i < total; i++ {
		var l1, l2, dt float64
		if i < boundary {
			l1 = 0.012 + 0.0015*rng.Float64()
			l2 = 0.0008 + 0.0002*rng.Float64()
			dt = 0.0001 + 0.00005*rng.Float64()
		} else {
			l1 = 0.002 + 0.0008*rng.Float64()
			l2 = 0.004 + 0.0003*rng.Float64()
			dt = 0.0006 + 0.0001*rng.Float64()
		}
		cpi := 0.6 + 7*l1
		if l2 > 0.002 {
			cpi = 1.1 + 90*l2 + 40*dt
		}
		cpi += 0.01 * rng.NormFloat64()
		if i >= shiftAt {
			cpi += shift
		}
		s := stream.Sample{Bench: "trace", Section: i,
			Events: map[string]float64{"L1IM": l1, "L2M": l2, "DtlbLdM": dt}, CPI: &cpi}
		_ = enc.Encode(&s)
	}
	return b.String()
}

func streamConfig(jobs int) Config {
	cfg := DefaultConfig()
	cfg.Jobs = jobs
	cfg.Stream.Window = 16
	// Wider alarm threshold than the default so residual noise over a
	// short trace cannot false-fire, while a +0.5 shift still trips in a
	// couple of sections.
	cfg.Stream.PH.Lambda = 0.5
	return cfg
}

// postNDJSON posts a raw NDJSON body to the stream endpoint.
func postNDJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// splitLines cuts an NDJSON document after n lines.
func splitLines(doc string, n int) (string, string) {
	lines := strings.SplitAfter(strings.TrimSuffix(doc, "\n"), "\n")
	return strings.Join(lines[:n], ""), strings.Join(lines[n:], "")
}

// TestStreamEndToEnd is the subsystem's serve-side acceptance test: a
// synthetic two-phase trace with an injected CPI regression goes through
// POST /v1/stream in two chunks (monitor state must persist across
// requests), the response must be byte-identical at -jobs 1 and 8, and
// the phase boundary and drift alarm must land at the right sections.
func TestStreamEndToEnd(t *testing.T) {
	const (
		total    = 130
		boundary = 60
		shiftAt  = 90
	)
	trace := streamTrace(total, boundary, shiftAt, 0.5, 42)
	first, second := splitLines(trace, 70)

	var bodies [][]byte
	for _, jobs := range []int{1, 8} {
		s, _, _ := newTestServer(t, streamConfig(jobs))
		h := s.Handler()
		var buf bytes.Buffer
		for _, chunk := range []string{first, second} {
			rec := postNDJSON(h, "/v1/stream?model=cpi", chunk)
			if rec.Code != http.StatusOK {
				t.Fatalf("jobs %d: status %d: %s", jobs, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("content type %q", ct)
			}
			buf.Write(rec.Body.Bytes())
		}
		bodies = append(bodies, buf.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("stream responses differ between -jobs 1 and -jobs 8")
	}

	var (
		phaseStarts []int
		firstDrift  = -1
		driftDir    string
		summaries   []stream.Stats
	)
	dec := json.NewDecoder(bytes.NewReader(bodies[0]))
	for dec.More() {
		var ev struct {
			Type       string       `json:"type"`
			Section    int          `json:"section"`
			PhaseStart int          `json:"phase_start"`
			Direction  string       `json:"direction"`
			Stats      stream.Stats `json:"stats"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "phase":
			phaseStarts = append(phaseStarts, ev.PhaseStart)
		case "drift":
			if firstDrift < 0 {
				firstDrift, driftDir = ev.Section, ev.Direction
			}
		case "summary":
			summaries = append(summaries, ev.Stats)
		}
	}
	if len(phaseStarts) != 1 {
		t.Fatalf("phase boundaries %v, want exactly one", phaseStarts)
	}
	if got := phaseStarts[0]; got < boundary-4 || got > boundary+4 {
		t.Errorf("phase boundary at %d, want near %d", got, boundary)
	}
	if firstDrift < shiftAt || firstDrift > shiftAt+14 {
		t.Errorf("first drift alarm at section %d, want shortly after %d", firstDrift, shiftAt)
	}
	if driftDir != "up" {
		t.Errorf("drift direction %q, want up", driftDir)
	}
	if len(summaries) != 2 {
		t.Fatalf("%d summary lines, want 2 (one per request)", len(summaries))
	}
	final := summaries[1]
	if final.Scored != total {
		t.Errorf("scored %d sections, want %d", final.Scored, total)
	}
	if final.Depth != 0 {
		t.Errorf("ring depth %d after flush, want 0", final.Depth)
	}
	if final.DriftAlarms < 1 || final.PhaseBoundaries != 1 {
		t.Errorf("final stats %+v", final)
	}
}

// TestStreamMetrics checks the /metrics stream counters after traffic.
func TestStreamMetrics(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig(0))
	h := s.Handler()
	trace := streamTrace(130, 60, 90, 0.5, 42)
	if rec := postNDJSON(h, "/v1/stream?model=cpi", trace); rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	rec := get(h, "/v1/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	st := snap.Streams
	if st.Sessions != 1 {
		t.Errorf("sessions %d, want 1", st.Sessions)
	}
	if st.Scored != 130 || st.Depth != 0 {
		t.Errorf("scored %d depth %d, want 130 and 0", st.Scored, st.Depth)
	}
	if st.PhaseBoundaries != 1 || st.DriftAlarms < 1 {
		t.Errorf("boundaries %d alarms %d, want 1 and >=1", st.PhaseBoundaries, st.DriftAlarms)
	}
	if st.Windows < 1 {
		t.Errorf("windows %d, want >= 1", st.Windows)
	}
}

// TestStreamErrors exercises every rejection path and verifies a
// rejected batch leaves the monitor state untouched.
func TestStreamErrors(t *testing.T) {
	cfg := streamConfig(0)
	cfg.MaxBatch = 8
	s, _, _ := newTestServer(t, cfg)
	h := s.Handler()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"missing model", "/v1/stream", `{"events":{"L2M":1}}`, http.StatusBadRequest},
		{"unknown model", "/v1/stream?model=nope", `{"events":{"L2M":1}}`, http.StatusNotFound},
		{"empty body", "/v1/stream?model=cpi", "", http.StatusBadRequest},
		{"malformed line", "/v1/stream?model=cpi", "{\"events\":{\"L2M\":1}}\nnot json\n", http.StatusBadRequest},
		{"no events", "/v1/stream?model=cpi", `{"bench":"x"}`, http.StatusBadRequest},
		{"unknown event", "/v1/stream?model=cpi", `{"events":{"NoSuchEvent":1}}`, http.StatusBadRequest},
		{"target as event", "/v1/stream?model=cpi", `{"events":{"CPI":1}}`, http.StatusBadRequest},
		{"oversized batch", "/v1/stream?model=cpi", strings.Repeat("{\"events\":{\"L2M\":0.001}}\n", 9), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if rec := postNDJSON(h, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}

	// A malformed-line rejection must name the offending line.
	rec := postNDJSON(h, "/v1/stream?model=cpi", "{\"events\":{\"L2M\":1}}\nnot json\n")
	if !strings.Contains(rec.Body.String(), "line 2") {
		t.Errorf("malformed-line error does not name line 2: %s", rec.Body)
	}

	// A batch that fails validation mid-way must not have advanced the
	// monitors: the all-or-nothing check runs before any ingestion.
	bad := "{\"events\":{\"L2M\":0.001}}\n{\"events\":{\"NoSuchEvent\":1}}\n"
	if rec := postNDJSON(h, "/v1/stream?model=cpi", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d, want 400", rec.Code)
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Scored != 0 || snap.Streams.Accepted != 0 {
		t.Errorf("rejected batches advanced monitor state: %+v", snap.Streams)
	}
}

// TestMethodNotAllowed asserts every endpoint rejects wrong methods with
// 405, a correct Allow header and the API's JSON error shape.
func TestMethodNotAllowed(t *testing.T) {
	s, _, _ := newTestServer(t, DefaultConfig())
	h := s.Handler()
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/predict", "POST"},
		{http.MethodDelete, "/v1/predict", "POST"},
		{http.MethodGet, "/v1/classify", "POST"},
		{http.MethodGet, "/v1/stream", "POST"},
		{http.MethodPost, "/v1/sessions", "GET, HEAD"},
		{http.MethodGet, "/v1/sessions/drain", "POST"},
		{http.MethodGet, "/v1/sessions/restore", "POST"},
		{http.MethodPost, "/v1/models", "GET, HEAD"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPut, "/metrics", "GET, HEAD"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var body errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
			body.Error.Code != ErrCodeMethodNotAllowed || body.Error.Message == "" {
			t.Errorf("%s %s: bad 405 envelope: %s", tc.method, tc.path, rec.Body)
		}
	}
	// HEAD on a GET route is allowed, not 405.
	req := httptest.NewRequest(http.MethodHead, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("HEAD /healthz: status %d, want 200", rec.Code)
	}
}

// TestStreamResponseFlushesIncrementally pins the /v1/stream timeout
// exemption: http.TimeoutHandler's writer buffers everything and does
// not implement http.Flusher, so a Flush reaching the recorder proves
// the route streams its NDJSON directly while the default
// RequestTimeout still guards every other endpoint.
func TestStreamResponseFlushesIncrementally(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig(1))
	h := s.Handler()
	rec := postNDJSON(h, "/v1/stream?model=cpi", streamTrace(40, 20, 100, 0, 7))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !rec.Flushed {
		t.Error("stream response was never flushed: is /v1/stream wrapped in a buffering handler?")
	}
}

// TestStreamSessionsIndependent verifies two models monitor separately.
func TestStreamSessionsIndependent(t *testing.T) {
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.Register(name, "v1", tree, ""); err != nil {
			t.Fatal(err)
		}
	}
	h := New(reg, streamConfig(0)).Handler()
	trace := streamTrace(40, 20, 100, 0, 7)
	for _, name := range []string{"a", "b"} {
		if rec := postNDJSON(h, "/v1/stream?model="+name, trace); rec.Code != http.StatusOK {
			t.Fatalf("model %s: status %d: %s", name, rec.Code, rec.Body)
		}
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Sessions != 2 {
		t.Errorf("sessions %d, want 2", snap.Streams.Sessions)
	}
	if snap.Streams.Scored != 80 {
		t.Errorf("scored %d, want 80", snap.Streams.Scored)
	}
}

// TestNonFiniteAnswersAreErrors pins the non-finite contract: inputs
// that drive the model to ±Inf must yield the non_finite_prediction
// envelope — a 422 on /v1/predict and /v1/classify, an in-band line
// after the event lines on /v1/stream — and count as errors, never a
// 200 with an empty or truncated body.
func TestNonFiniteAnswersAreErrors(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig(1))
	h := s.Handler()
	const huge = `{"L2M":1e308,"L1IM":1e308,"DtlbLdM":1e308}`

	for _, route := range []string{"/v1/predict", "/v1/classify"} {
		rec := post(h, route, `{"model":"cpi","events":[`+huge+`]}`)
		var env errorEnvelope
		if rec.Code != http.StatusUnprocessableEntity ||
			json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != ErrCodeNonFinite {
			t.Errorf("%s: status %d body %q, want 422 %s", route, rec.Code, rec.Body, ErrCodeNonFinite)
		}
	}

	// One finite sample ahead of the bad one: its event line is still
	// delivered, then the error line ends the response.
	em := s.metrics.endpoints["/v1/stream"]
	errsBefore := em.errors.Load()
	body := `{"events":{"L2M":0.001,"L1IM":0.01},"cpi":1}` + "\n" + `{"events":` + huge + `,"cpi":1}` + "\n"
	rec := postNDJSON(h, "/v1/stream?model=cpi", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	var last struct {
		Type  string   `json:"type"`
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil ||
		last.Type != "error" || last.Error.Code != ErrCodeNonFinite || last.Error.Message == "" {
		t.Fatalf("stream: last line %q, want an in-band %s error", lines[len(lines)-1], ErrCodeNonFinite)
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[0], `{"type":"sample","section":0,`) {
		t.Fatalf("stream: the finite sample's event line is missing: %q", rec.Body)
	}
	if got := em.errors.Load() - errsBefore; got != 1 {
		t.Fatalf("stream: error counter moved by %d, want 1", got)
	}
}
