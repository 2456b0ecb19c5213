// Package serve exposes trained CPI models as an HTTP JSON service: the
// paper's train-once / analyze-many oracle packaged behind a network API.
// A Registry maps (name, version) to any model.Model; the Server answers
//
//	POST /v1/predict   single + batch CPI prediction, optional per-event
//	                   contribution breakdown (coef*X/CPI, the paper's Eq. 4)
//	POST /v1/classify  leaf id + decision path — the paper's performance
//	                   classes (single-tree models only)
//	POST /v1/stream    NDJSON sample ingestion into a persistent monitor
//	                   session (phase boundaries + drift alarms), keyed
//	                   by model ref and the ?session= query parameter
//	GET  /v1/sessions  live monitor session listing with per-session stats
//	POST /v1/sessions/drain    remove all sessions and return their
//	                   serialized state (replica handoff, step 1)
//	POST /v1/sessions/restore  install a drained state dump (step 2)
//	GET  /v1/sessions/{id}/refutation  one session's per-relation
//	                   counter-consistency report ("-" = default session,
//	                   model addressed with ?model=)
//	GET  /v1/models    registry listing with model descriptions
//	GET  /v1/models/{ref}  one model's detail: description, evaluator
//	                   kind, source format, registered versions
//	GET  /v1/machines  the march machine-preset registry, with per-machine
//	                   registered-model counts
//	GET  /v1/machines/{name}  one machine's full declarative spec (the
//	                   same JSON document -march-file accepts)
//	GET  /v1/metrics.json  machine-readable counters: per-endpoint
//	                   request/error counts, latency histogram buckets,
//	                   stream stats
//	GET  /healthz      liveness + model count
//	GET  /metrics      the same counters as a text exposition
//
// Every error response shares the envelope
// {"error":{"code","message"}} (see errors.go); clients branch on the
// stable code, never on message wording.
//
// The registry compiles every Compilable model at registration (and
// binary model files load pre-compiled), so the hot path evaluates the
// flat-array forms; prediction-only requests additionally run the
// zero-allocation PredictInto kernel. Both are bit-identical to the
// pointer-walk models, so which path answers is unobservable in the
// response. There is no prediction cache and no per-request worker
// fan-out: a prediction costs less than either would (DESIGN.md §8).
// Request bodies are size-capped
// and handlers time-limited (except the streaming /v1/stream route,
// which flushes incrementally instead — see Handler), making the hot
// path safe to expose.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Config holds the service knobs.
type Config struct {
	// Jobs is the worker count for /v1/stream window scoring (0 = all
	// cores, 1 = serial). Responses are identical at any value.
	Jobs int
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64
	// MaxBatch caps the number of rows per request.
	MaxBatch int
	// RequestTimeout bounds handler time per request; 0 disables. It is
	// applied per route and does not cover /v1/stream, whose incremental
	// NDJSON response and stateful ingestion make a buffered timeout
	// wrapper wrong (see Handler).
	RequestTimeout time.Duration
	// Stream tunes the /v1/stream monitor sessions (window, buffer,
	// backpressure policy, phase and drift detectors). Its Jobs field is
	// ignored: stream scoring follows the service-wide Jobs setting.
	Stream stream.Config
	// SessionShards is the stripe count of the stream session table,
	// rounded up to a power of two (0 = 16).
	SessionShards int
	// SessionTTL evicts stream sessions idle for this long; 0 keeps
	// sessions forever (the pre-TTL behavior).
	SessionTTL time.Duration
	// Clock is the time source for session TTL bookkeeping; nil means
	// time.Now. Tests inject a fake clock to make eviction exact.
	Clock func() time.Time
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		Jobs:           0,
		MaxBodyBytes:   1 << 20, // 1 MiB
		MaxBatch:       4096,
		RequestTimeout: 10 * time.Second,
		Stream:         stream.DefaultConfig(),
		SessionShards:  16,
		SessionTTL:     15 * time.Minute,
	}
}

// Server serves the models in a Registry over HTTP.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *metricsRegistry
	streams *streamSessions
}

var routes = []string{
	"/v1/predict", "/v1/classify", "/v1/stream",
	"/v1/sessions", "/v1/sessions/drain", "/v1/sessions/restore",
	"/v1/sessions/{id}/refutation",
	"/v1/models", "/v1/models/{ref}",
	"/v1/machines", "/v1/machines/{name}", "/v1/metrics.json",
	"/healthz", "/metrics",
}

// routeMethods maps each route to its Allow header value; requests with
// any other method get a JSON 405 instead of a mux-level miss.
var routeMethods = map[string]string{
	"/v1/predict":                  "POST",
	"/v1/classify":                 "POST",
	"/v1/stream":                   "POST",
	"/v1/sessions":                 "GET, HEAD",
	"/v1/sessions/drain":           "POST",
	"/v1/sessions/restore":         "POST",
	"/v1/sessions/{id}/refutation": "GET, HEAD",
	"/v1/models":                   "GET, HEAD",
	"/v1/models/{ref}":             "GET, HEAD",
	"/v1/machines":                 "GET, HEAD",
	"/v1/machines/{name}":          "GET, HEAD",
	"/v1/metrics.json":             "GET, HEAD",
	"/healthz":                     "GET, HEAD",
	"/metrics":                     "GET, HEAD",
}

// New creates a Server over a registry.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{cfg: cfg, reg: reg}
	s.streams = newStreamSessions(shard.Options{
		Shards: cfg.SessionShards,
		TTL:    cfg.SessionTTL,
		Now:    cfg.Clock,
	})
	s.metrics = newMetricsRegistry(routes, reg.Len, reg.ModelsByMachine, s.streams)
	return s
}

// Handler returns the service's HTTP handler: the routed endpoints, each
// wrapped in per-endpoint instrumentation and (except /v1/stream) the
// request timeout.
//
// /v1/stream is deliberately outside http.TimeoutHandler: that wrapper
// buffers the entire response, which would defeat the endpoint's
// incremental NDJSON delivery, and its 503 cannot undo monitor state the
// ingested prefix already advanced — a client retrying the same batch
// after a timeout would double-ingest into a non-idempotent session.
// The route is still bounded by MaxBodyBytes, MaxBatch and the server's
// read timeouts.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	withTimeout := func(h http.Handler) http.Handler {
		if s.cfg.RequestTimeout > 0 {
			return http.TimeoutHandler(h, s.cfg.RequestTimeout, timeoutBody)
		}
		return h
	}
	mux.Handle("POST /v1/predict", withTimeout(s.instrument("/v1/predict", s.handlePredict)))
	mux.Handle("POST /v1/classify", withTimeout(s.instrument("/v1/classify", s.handleClassify)))
	mux.Handle("POST /v1/stream", s.instrument("/v1/stream", s.handleStream))
	mux.Handle("GET /v1/sessions", withTimeout(s.instrument("/v1/sessions", s.handleSessions)))
	mux.Handle("POST /v1/sessions/drain", withTimeout(s.instrument("/v1/sessions/drain", s.handleSessionsDrain)))
	mux.Handle("POST /v1/sessions/restore", withTimeout(s.instrument("/v1/sessions/restore", s.handleSessionsRestore)))
	mux.Handle("GET /v1/sessions/{id}/refutation", withTimeout(s.instrument("/v1/sessions/{id}/refutation", s.handleSessionRefutation)))
	mux.Handle("GET /v1/models", withTimeout(s.instrument("/v1/models", s.handleModels)))
	mux.Handle("GET /v1/models/{ref}", withTimeout(s.instrument("/v1/models/{ref}", s.handleModelDetail)))
	mux.Handle("GET /v1/machines", withTimeout(s.instrument("/v1/machines", s.handleMachines)))
	mux.Handle("GET /v1/machines/{name}", withTimeout(s.instrument("/v1/machines/{name}", s.handleMachineDetail)))
	mux.Handle("GET /v1/metrics.json", withTimeout(s.instrument("/v1/metrics.json", s.handleMetricsJSON)))
	mux.Handle("GET /healthz", withTimeout(s.instrument("/healthz", s.handleHealthz)))
	mux.Handle("GET /metrics", withTimeout(s.instrument("/metrics", s.handleMetrics)))
	// Method-generic fallbacks: the mux routes a wrong-method request
	// here instead of its own text/plain 405, so the rejection carries
	// the API's JSON error shape, an Allow header, and metrics.
	for route, allow := range routeMethods {
		mux.Handle(route, withTimeout(s.instrument(route, methodNotAllowed(allow))))
	}
	return mux
}

// methodNotAllowed rejects with 405 and the route's Allow header.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			"method %s not allowed; allowed: %s", r.Method, allow)
	}
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers behind the
// recorder can push partial NDJSON responses to the client.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the endpoint's request/error counters,
// in-flight gauge and latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	em := s.metrics.endpoints[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		em.inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			em.inFlight.Add(-1)
			em.latency.observe(time.Since(start))
			if rec.status >= 400 {
				em.errors.Add(1)
			}
		}()
		h(rec, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before committing the status: a value JSON cannot carry
	// (a NaN or ±Inf answer; the response types hold nothing else that
	// can fail) must become an error response, not a 200 with an empty
	// body.
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ErrCodeNonFinite,
			"response holds a value JSON cannot carry: %v", err)
		return
	}
	writeBytes(w, status, append(b, '\n'))
}

// writeBytes writes an encoded JSON response body.
func writeBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// writePredictResponse writes a 200 /v1/predict response through the
// append encoder. A NaN or ±Inf answer fails json.Marshal too, so it
// goes to writeJSON, which turns it into the 422 non_finite_prediction.
func writePredictResponse(w http.ResponseWriter, resp *predictResponse) {
	// Presize for ~24 bytes per float and ~140 per contribution term.
	size := 64 + len(resp.Model) + 24*len(resp.Predictions)
	for _, cs := range resp.Contributions {
		size += 8 + 140*len(cs)
	}
	b, ok := appendPredictResponse(make([]byte, 0, size), resp)
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeBytes(w, http.StatusOK, b)
}

// predictRequest addresses a model and carries instances in one of three
// forms: a single full-width row, a batch of rows, or named event maps
// ("events") that the server expands against the model's schema.
type predictRequest struct {
	Model string `json:"model"`
	// Row is one full-width instance (len == model attr count, target
	// column ignored).
	Row []float64 `json:"row,omitempty"`
	// Rows is a batch of full-width instances.
	Rows [][]float64 `json:"rows,omitempty"`
	// Events is a batch of name->rate maps; absent events default to 0.
	Events []map[string]float64 `json:"events,omitempty"`
	// Contributions requests the per-event CPI breakdown per row.
	Contributions bool `json:"contributions,omitempty"`
}

type predictResponse struct {
	Model         string                 `json:"model"`
	N             int                    `json:"n"`
	Predictions   []float64              `json:"predictions"`
	Contributions [][]model.Contribution `json:"contributions,omitempty"`
}

// decodeBody decodes a size-capped JSON body, distinguishing oversized
// bodies (413) from malformed ones (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	return s.decodeJSON(w, r.Body, v)
}

// decodeJSON is decodeBody over a reader already size-capped.
func (s *Server) decodeJSON(w http.ResponseWriter, src io.Reader, v any) bool {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
				"malformed request body: %v", err)
		}
		return false
	}
	return true
}

// readInput reads a /v1/predict or /v1/classify request. A canonical
// body takes decodeFast; any other is decoded by encoding/json from
// the bytes already read followed by the read error, then resolved by
// lookup and resolveRows, which write every rejection — so statuses,
// codes and messages are the same whichever path a body takes.
// classify adds /v1/classify's checks: no contributions, and a model
// with leaf classes.
func (s *Server) readInput(w http.ResponseWriter, r *http.Request, classify bool) (predictInput, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, readErr := readBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	if readErr == nil {
		if in, ok := s.decodeFast(body); ok && !(classify && in.contributions) {
			if classify && !classifiable(w, in.e) {
				return predictInput{}, false
			}
			return in, true
		}
	}
	src := io.Reader(bytes.NewReader(body))
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req predictRequest
	if !s.decodeJSON(w, src, &req) {
		return predictInput{}, false
	}
	if classify && req.Contributions {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, `"contributions" is a /v1/predict option`)
		return predictInput{}, false
	}
	e := s.lookup(w, req.Model)
	if e == nil || (classify && !classifiable(w, e)) {
		return predictInput{}, false
	}
	rows, err := resolveRows(&req, e)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return predictInput{}, false
	}
	if len(rows) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
			"batch of %d rows exceeds limit %d", len(rows), s.cfg.MaxBatch)
		return predictInput{}, false
	}
	return predictInput{e: e, rows: rows, contributions: req.Contributions}, true
}

// resolveRows turns whichever instance form the request used into
// full-width dataset instances validated against the model's schema.
func resolveRows(req *predictRequest, e *Entry) ([]dataset.Instance, error) {
	forms := 0
	if req.Row != nil {
		forms++
	}
	if req.Rows != nil {
		forms++
	}
	if req.Events != nil {
		forms++
	}
	if forms != 1 {
		return nil, fmt.Errorf(`provide exactly one of "row", "rows" or "events"`)
	}
	width := e.width
	var rows []dataset.Instance
	switch {
	case req.Row != nil:
		rows = []dataset.Instance{req.Row}
	case req.Rows != nil:
		rows = make([]dataset.Instance, len(req.Rows))
		for i, r := range req.Rows {
			rows[i] = r
		}
	default:
		rows = make([]dataset.Instance, len(req.Events))
		for i, ev := range req.Events {
			row := make(dataset.Instance, width)
			var unknown []string
			for name, v := range ev {
				j, ok := e.cols[name]
				if !ok {
					unknown = append(unknown, name)
					continue
				}
				row[j] = v
			}
			if len(unknown) > 0 {
				// Name the smallest, so the message does not depend on
				// map iteration order.
				return nil, fmt.Errorf("row %d: unknown event %q", i, slices.Min(unknown))
			}
			rows[i] = row
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no instances in request")
	}
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("row %d has %d values, model schema has %d columns (including target %q)",
				i, len(r), width, e.Model.Describe().Target)
		}
	}
	return rows, nil
}

// lookup resolves the request's model reference, writing the HTTP error
// itself on failure.
func (s *Server) lookup(w http.ResponseWriter, ref string) *Entry {
	if ref == "" {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, `missing "model" reference`)
		return nil
	}
	e, err := s.reg.Get(ref)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "%v", err)
		return nil
	}
	return e
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	in, ok := s.readInput(w, r, false)
	if !ok {
		return
	}
	e, rows := in.e, in.rows
	resp := predictResponse{Model: e.Ref(), N: len(rows), Predictions: make([]float64, len(rows))}
	// Prediction-only requests against a compiled model take the batch
	// kernel: one PredictInto sweep straight into the response instead
	// of per-row interface dispatch. The kernel's output is bit-identical
	// to per-row Predict, so which path runs is unobservable in the
	// response.
	if bp, ok := e.Model.(model.BatchPredictor); ok && !in.contributions {
		bp.PredictInto(resp.Predictions, rows)
		writePredictResponse(w, &resp)
		return
	}
	if in.contributions {
		resp.Contributions = make([][]model.Contribution, len(rows))
	}
	for i, row := range rows {
		if in.contributions {
			resp.Contributions[i] = e.Model.Contributions(row)
		}
		resp.Predictions[i] = e.Model.Predict(row)
	}
	writePredictResponse(w, &resp)
}

// classifier is the optional classification surface: single trees route
// an instance to one leaf (the paper's performance class); ensembles do
// not, and report 422 at /v1/classify.
type classifier interface {
	Classify(row dataset.Instance) (*mtree.Node, []mtree.PathStep)
}

// classifiable reports whether e's model exposes leaf classes, writing
// the 422 itself when it does not.
func classifiable(w http.ResponseWriter, e *Entry) bool {
	if _, ok := e.Model.(classifier); !ok {
		writeError(w, http.StatusUnprocessableEntity, ErrCodeUnsupported,
			"model %s (%s) does not expose leaf classes; classify requires a single tree",
			e.Ref(), e.Model.Describe().Kind)
		return false
	}
	return true
}

type classifyStep struct {
	Event     string  `json:"event"`
	Threshold float64 `json:"threshold"`
	Above     bool    `json:"above"`
}

type classification struct {
	LeafID int `json:"leaf_id"`
	// Path is the decision path from the root; steps with above=true mark
	// the high-event-count tests that define the class.
	Path []classifyStep `json:"path"`
	// Prediction is the leaf model's (unsmoothed) estimate, the quantity
	// the paper's Eq. 4 decomposes.
	Prediction float64 `json:"prediction"`
	// TrainN and TrainMean describe the leaf's training population.
	TrainN    int     `json:"train_n"`
	TrainMean float64 `json:"train_mean"`
}

type classifyResponse struct {
	Model   string           `json:"model"`
	N       int              `json:"n"`
	Classes []classification `json:"classes"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	in, ok := s.readInput(w, r, true)
	if !ok {
		return
	}
	e, rows := in.e, in.rows
	cl := e.Model.(classifier) // readInput checked it
	resp := classifyResponse{Model: e.Ref(), N: len(rows)}
	resp.Classes = make([]classification, len(rows))
	for i, row := range rows {
		leaf, path := cl.Classify(row)
		c := classification{
			LeafID:     leaf.LeafID,
			Prediction: leaf.Model.Predict(row),
			TrainN:     leaf.N,
			TrainMean:  leaf.Mean,
			Path:       make([]classifyStep, len(path)),
		}
		for j, st := range path {
			c.Path[j] = classifyStep{Event: st.Name, Threshold: st.Threshold, Above: st.Above}
		}
		resp.Classes[i] = c
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.List()})
}

// modelDetail is the GET /v1/models/{ref} response: the listing entry
// plus everything a traffic generator needs to shape payloads for the
// model — the schema to synthesize rows against, whether the hot path
// runs the compiled kernel, and whether /v1/classify will answer.
type modelDetail struct {
	EntryInfo
	// Evaluator is "compiled" (flat-array walk + batch kernel) or
	// "plain" (pointer-walk fallback).
	Evaluator string `json:"evaluator"`
	// BatchKernel reports whether prediction-only batches take the
	// zero-allocation PredictInto path.
	BatchKernel bool `json:"batch_kernel"`
	// Classifiable reports whether /v1/classify answers for this model
	// (single trees only).
	Classifiable bool `json:"classifiable"`
	// Format is the source file format ("json", "binary"), or empty for
	// models registered in-process.
	Format string `json:"format,omitempty"`
	// Versions lists every registered version of this name, sorted.
	Versions []string `json:"versions"`
}

func (s *Server) handleModelDetail(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	e, err := s.reg.Get(ref)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "%v", err)
		return
	}
	_, kernel := e.Model.(model.BatchPredictor)
	_, classifiable := e.Model.(classifier)
	evaluator := "plain"
	if kernel {
		evaluator = "compiled"
	}
	writeJSON(w, http.StatusOK, modelDetail{
		EntryInfo: EntryInfo{
			Name:        e.Name,
			Version:     e.Version,
			Latest:      s.reg.Latest(e.Name) == e.Version,
			Path:        e.Path,
			Description: e.Model.Describe(),
		},
		Evaluator:    evaluator,
		BatchKernel:  kernel,
		Classifiable: classifiable,
		Format:       e.Format,
		Versions:     s.reg.Versions(e.Name),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.reg.Len(),
	})
}

// handleMetricsJSON is the machine-readable counter surface: the full
// snapshot including per-endpoint latency histogram buckets, which
// lets a client (cmd/loadgen) cross-validate its own counts against
// the server's.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.snapshot())
}

// handleMetrics renders the same snapshot as a flat text exposition
// (one `name{labels} value` line per counter) for eyeballs and
// scrapers that want text; /v1/metrics.json is the structured form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.metrics.snapshot().renderText())
}
