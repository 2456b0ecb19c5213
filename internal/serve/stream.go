package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/refute"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The /v1/stream endpoint is the service's online surface: clients POST
// NDJSON counter samples and the server runs them through a persistent
// stream.Processor — window scoring over the Jobs worker pool plus the
// phase and drift monitors. Monitor state (phase tracker, Page–Hinkley
// accumulator, EWMA CPI) survives across requests, so a producer can
// POST sections in whatever chunks its collection loop yields and still
// get one coherent monitoring timeline.
//
// Sessions are keyed by (model ref, session id): the ?session= query
// parameter names the timeline, so many producers can monitor through
// the same model concurrently without interleaving their sections.
// Omitting ?session= addresses the model's default session, which keeps
// the pre-session API shape working unchanged. The table behind the
// keys is lock-striped (internal/shard) with TTL eviction, so session
// lookup scales with cores and an abandoned producer's state does not
// pin memory forever.

// streamSession is one live monitor timeline. The processor is not safe
// for concurrent use, so each session serializes its ingestion; other
// sessions — of the same model or not — proceed independently. The
// session lock is held only across ingestion and scoring, never across
// the response write: a slow client drains its response after the lock
// is gone, so it cannot stall the session's next producer (and under
// the old one-session-per-model scheme it stalled every producer of
// the model).
type streamSession struct {
	mu    sync.Mutex
	model string // registry ref, e.g. "cpi@v1"
	id    string // session id, "" for the model's default session
	p     *stream.Processor
}

// streamSessions is the striped session table. The session key is the
// model ref and session id joined by a NUL (refs and ids are
// URL-derived and never contain one), so sessions of one model spread
// across shards like any other keys.
type streamSessions struct {
	tab *shard.Table[*streamSession]
}

func newStreamSessions(opts shard.Options) *streamSessions {
	return &streamSessions{tab: shard.New[*streamSession](opts)}
}

func sessionKey(ref, id string) string {
	return ref + "\x00" + id
}

// get returns the live session for (ref, id), creating it with mk on a
// miss or after TTL eviction.
func (ss *streamSessions) get(ref, id string, mk func() (*stream.Processor, error)) (*streamSession, error) {
	sess, _, err := ss.tab.GetOrCreate(sessionKey(ref, id), func() (*streamSession, error) {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		return &streamSession{model: ref, id: id, p: p}, nil
	})
	return sess, err
}

// streamsSnapshot aggregates every session's monitor counters for the
// /metrics report, plus the session table's per-shard counters — the
// observable proof that traffic spreads across stripes and that TTL
// eviction is reclaiming abandoned sessions.
type streamsSnapshot struct {
	Sessions        int    `json:"sessions"`
	Depth           int    `json:"depth"`
	Accepted        uint64 `json:"accepted"`
	Scored          uint64 `json:"scored"`
	Invalid         uint64 `json:"invalid"`
	Dropped         uint64 `json:"dropped"`
	Windows         uint64 `json:"windows"`
	PhaseBoundaries uint64 `json:"phase_boundaries"`
	DriftAlarms     uint64 `json:"drift_alarms"`
	// Counter-consistency rollup across sessions: per-verdict session
	// counts, total relation violations, and per-relation violation
	// totals (only relations with at least one violation appear).
	RefuteConsistent   int               `json:"refute_consistent_sessions"`
	RefuteSuspect      int               `json:"refute_suspect_sessions"`
	RefuteRefuted      int               `json:"refute_refuted_sessions"`
	RefuteViolations   uint64            `json:"refute_violations"`
	RelationViolations map[string]uint64 `json:"refute_relation_violations,omitempty"`
	// Hits/Misses/Evictions are the session-table totals; Shards breaks
	// them down per stripe.
	Hits      uint64             `json:"hits"`
	Misses    uint64             `json:"misses"`
	Evictions uint64             `json:"evictions"`
	Shards    []shard.ShardStats `json:"shards,omitempty"`
}

func (ss *streamSessions) snapshot() streamsSnapshot {
	var snap streamsSnapshot
	ss.tab.Range(func(_ string, s *streamSession) {
		s.mu.Lock()
		st := s.p.Stats()
		rep := s.p.Refutation()
		s.mu.Unlock()
		snap.Sessions++
		snap.Depth += st.Depth
		snap.Accepted += st.Accepted
		snap.Scored += st.Scored
		snap.Invalid += st.Invalid
		snap.Dropped += st.Dropped
		snap.Windows += st.Windows
		snap.PhaseBoundaries += st.PhaseBoundaries
		snap.DriftAlarms += st.DriftAlarms
		switch rep.Verdict {
		case refute.Suspect:
			snap.RefuteSuspect++
		case refute.Refuted:
			snap.RefuteRefuted++
		default:
			snap.RefuteConsistent++
		}
		for _, rel := range rep.Relations {
			if rel.Violations == 0 {
				continue
			}
			if snap.RelationViolations == nil {
				snap.RelationViolations = make(map[string]uint64)
			}
			snap.RelationViolations[rel.Name] += rel.Violations
			snap.RefuteViolations += rel.Violations
		}
	})
	stats := ss.tab.Stats()
	total := stats.Total()
	snap.Hits, snap.Misses, snap.Evictions = total.Hits, total.Misses, total.Evictions
	snap.Shards = stats.Shards
	return snap
}

// streamConfig derives the processor configuration from the service
// knobs; scoring parallelism follows the service-wide Jobs setting.
func (s *Server) streamConfig() stream.Config {
	cfg := s.cfg.Stream
	cfg.Jobs = s.cfg.Jobs
	return cfg
}

// streamErrorLine builds the in-band NDJSON error object emitted when
// a stream fails after the 200 header is out; it carries the same
// envelope as out-of-band errors so clients classify both the same way.
func streamErrorLine(code string, err error) map[string]any {
	return map[string]any{
		"type":  "error",
		"error": apiError{Code: code, Message: err.Error()},
	}
}

// streamSummary is the final NDJSON line of every /v1/stream response.
type streamSummary struct {
	Type  string `json:"type"`
	Model string `json:"model"`
	// Machine is the model's machine provenance tag (empty when the
	// model carries none), so a monitoring pipeline fanning over
	// cross-architecture models can attribute a session without a
	// second lookup.
	Machine string `json:"machine,omitempty"`
	// Session echoes the ?session= id ("" = the default session).
	Session  string       `json:"session,omitempty"`
	Ingested int          `json:"ingested"`
	Stats    stream.Stats `json:"stats"`
}

// handleStream ingests a POSTed NDJSON sample batch into a monitor
// session and streams back the resulting events, one JSON object per
// line, ending with a "summary" line. The model is addressed with the
// ?model= query parameter and the session timeline with ?session=
// (the body is NDJSON, not an envelope).
//
// The whole batch is decoded and schema-checked before any sample
// reaches the monitors, so a 400 response guarantees no state changed —
// a malformed producer cannot half-poison the phase or drift trackers.
// Schema checking is read-only and runs without the session lock; the
// lock covers only ingestion and scoring. Events are buffered and
// written after the lock is released, so a client that reads its
// response slowly holds up nobody but itself.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r.URL.Query().Get("model"))
	if e == nil {
		return
	}
	sessionID := r.URL.Query().Get("session")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := stream.NewDecoder(r.Body)
	var samples []stream.Sample
	for {
		smp, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
					"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			} else {
				writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
			}
			return
		}
		samples = append(samples, smp)
		if len(samples) > s.cfg.MaxBatch {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
				"batch exceeds %d samples", s.cfg.MaxBatch)
			return
		}
	}
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "no samples in request body")
		return
	}

	sess, err := s.streams.get(e.Ref(), sessionID, func() (*stream.Processor, error) {
		return stream.NewProcessor(e.Model, s.streamConfig())
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	// Check touches only the immutable schema, so it needs no lock even
	// while another request is ingesting into the same session.
	for i := range samples {
		if err := sess.p.Check(samples[i]); err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "sample %d: %v", i, err)
			return
		}
	}

	// Ingest and score under the session lock, buffering the events;
	// the response is written only after the lock is released.
	sess.mu.Lock()
	var events []stream.Event
	var ingestErr error
	for i := range samples {
		// The whole batch passed Check above; IngestChecked skips the
		// per-sample re-validation. Only ring errors can fail here.
		evs, err := sess.p.IngestChecked(samples[i])
		if err != nil {
			ingestErr = err
			break
		}
		events = append(events, evs...)
	}
	if ingestErr == nil {
		// Score the final partial window too: a batch endpoint should
		// answer for every sample it accepted, not leave a remainder
		// buffered.
		evs, err := sess.p.Flush()
		if err != nil {
			ingestErr = err
		} else {
			events = append(events, evs...)
		}
	}
	stats := sess.p.Stats()
	sess.mu.Unlock()

	// Render the event lines into one buffer (a line runs about 200
	// bytes, so 256 apiece is one allocation) and write them at once. An
	// event with a non-finite value (a model extrapolating to ±Inf)
	// cannot be rendered; the lines before it are still delivered.
	buf := make([]byte, 0, 256*len(events))
	var encErr error
	for i := range events {
		if buf, encErr = stream.AppendEvent(buf, &events[i]); encErr != nil {
			break
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf); err != nil {
		return // client gone; stop writing, state is consistent
	}
	// Push completed events to the client now: this route is outside
	// http.TimeoutHandler precisely so incremental delivery works.
	if flusher, ok := w.(http.Flusher); ok && len(buf) > 0 {
		flusher.Flush()
	}
	// Failures after the 200 header is out are reported on the stream.
	// The monitors keep whatever they ingested either way.
	enc := json.NewEncoder(w)
	if encErr != nil {
		s.metrics.endpoints["/v1/stream"].errors.Add(1)
		_ = enc.Encode(streamErrorLine(ErrCodeNonFinite, encErr))
		return
	}
	if ingestErr != nil {
		_ = enc.Encode(streamErrorLine(ErrCodeStreamAborted, ingestErr))
		return
	}
	_ = enc.Encode(streamSummary{
		Type:     "summary",
		Model:    e.Ref(),
		Machine:  e.Model.Describe().Machine,
		Session:  sessionID,
		Ingested: len(samples),
		Stats:    stats,
	})
}
