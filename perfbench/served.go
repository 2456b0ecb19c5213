package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/loadgen"
	"repro/internal/refute"
	"repro/internal/shard"
)

// maxSeqRate bounds how many requests per second the closed loop can
// draw before its sequence wraps around.
const maxSeqRate = 20000

func (s *serverProc) PID() int { return s.cmd.Process.Pid }

// plan draws the run's request sequences from the seed and writes them
// for the generator.
func (r *run) plan(p *Payload, srv *serverProc) (*Plan, error) {
	total := time.Duration(r.seconds) * time.Second
	open := time.Duration(float64(total) * openShare)
	closed := total - open
	seq := newSequencer(r.workload, p, r.seed)
	plan := &Plan{
		BaseURL:   srv.BaseURL,
		ServerPID: srv.PID(),
		Conns:     runtime.NumCPU(),
		Open:      open,
		Closed:    closed,
		Grace:     10 * time.Second,
	}
	plan.WarmSeq = seq.sequence(warmRequests[r.workload], false)
	plan.OpenSeq = seq.schedule(openRate[r.workload], open, r.traced)
	plan.ClosedSeq = seq.sequence(int(maxSeqRate*closed.Seconds()), r.traced)
	var err error
	if r.workload == "stream" {
		if plan.Lines, plan.ExecStart, err = p.StreamLines(); err != nil {
			return nil, err
		}
		for s := 0; s < streamSessions; s++ {
			plan.SessionExec = append(plan.SessionExec, s%len(p.Execs))
		}
	} else {
		if plan.Templates, plan.TmplKind, err = p.Templates(); err != nil {
			return nil, err
		}
	}
	if r.traced {
		plan.SpansPath = filepath.Join(r.traceDir, "generator.spans.jsonl")
	}
	return plan, nil
}

// serverMetrics is the slice of /v1/metrics.json the benchmark reads
// beyond the per-route counters loadgen.FetchMetrics returns.
type serverMetrics struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Streams struct {
		Scored           uint64             `json:"scored"`
		Windows          uint64             `json:"windows"`
		PhaseBoundaries  uint64             `json:"phase_boundaries"`
		DriftAlarms      uint64             `json:"drift_alarms"`
		Dropped          uint64             `json:"dropped"`
		Invalid          uint64             `json:"invalid"`
		RefuteRefuted    int                `json:"refute_refuted_sessions"`
		RefuteViolations uint64             `json:"refute_violations"`
		Hits             uint64             `json:"hits"`
		Misses           uint64             `json:"misses"`
		Evictions        uint64             `json:"evictions"`
		Shards           []shard.ShardStats `json:"shards"`
	} `json:"streams"`
}

func fetchServerMetrics(baseURL string) (*serverMetrics, *loadgen.ServerMetrics, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	routes, err := loadgen.FetchMetrics(client, baseURL)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Get(baseURL + "/v1/metrics.json")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, nil, fmt.Errorf("decoding /v1/metrics.json: %w", err)
	}
	return &m, routes, nil
}

// servedRun is the outcome of the serve phases.
type servedRun struct {
	GenResult
	before, after *serverMetrics
	attempted     int
	failed        int
	// replays holds each execution's benchmark-side stream replay.
	replays []*streamReplay
	// sessionPosts is how many posts each stream session completed.
	sessionPosts []int
}

// serve runs the generator process against the server and checks every
// answer.
func (r *run) serve(plan *Plan, srv *serverProc, ref *Reference) (*servedRun, error) {
	planPath := filepath.Join(r.dir, "plan.gob")
	if err := writeGob(planPath, plan); err != nil {
		return nil, err
	}
	before, routes0, err := fetchServerMetrics(srv.BaseURL)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(r.dir, "gen.gob")
	// The generator shares the host's CPUs with the server. Raised
	// priority lets its timer wake-ups preempt server work, so lateness
	// (still measured) stays the generator's own and does not absorb
	// the server's load; where raising is not permitted, nice warns and
	// runs it at normal priority.
	cmd := exec.CommandContext(r.ctx, "nice", "-n", "-10", r.self, "-role", "gen", "-in", planPath, "-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generator process: %w", err)
	}
	after, routes1, err := fetchServerMetrics(srv.BaseURL)
	if err != nil {
		return nil, err
	}
	sr := &servedRun{before: before, after: after}
	if err := readGob(out, &sr.GenResult); err != nil {
		return nil, err
	}
	if err := r.check(plan, ref, sr); err != nil {
		return nil, err
	}
	r.crossCheckRoutes(sr.Records, routes0, routes1)
	return sr, nil
}

// check verifies every record against the reference and counts
// failures.
func (r *run) check(plan *Plan, ref *Reference, sr *servedRun) error {
	if r.workload == "stream" {
		sr.sessionPosts = make([]int, streamSessions)
		for _, rec := range sr.Records {
			if rec.Post >= 0 && int(rec.Post)+1 > sr.sessionPosts[rec.Sess] {
				sr.sessionPosts[rec.Sess] = int(rec.Post) + 1
			}
		}
		// Sessions that start at the same execution send the same
		// posts, so one replay per starting execution covers them all.
		need := make([]int, len(plan.ExecStart))
		for s, n := range sr.sessionPosts {
			need[plan.SessionExec[s]] = max(need[plan.SessionExec[s]], n)
		}
		sr.replays = make([]*streamReplay, len(plan.ExecStart))
		for e, n := range need {
			sr.replays[e] = &streamReplay{}
			if err := ref.ReplayStream(sr.replays[e], e, n, plan.Lines, plan.ExecStart[e]); err != nil {
				return err
			}
		}
	}
	shown := 0
	var refErr error
	for i := range sr.Records {
		rec := &sr.Records[i]
		sr.attempted++
		var why string
		switch {
		case rec.Status == 0:
			why = "no response: " + rec.Err
		case rec.Status != http.StatusOK:
			why = fmt.Sprintf("HTTP %d", rec.Status)
		case rec.Kind == kindStream:
			exp := sr.replays[plan.SessionExec[rec.Sess]].posts[rec.Post]
			if rec.CRC != exp.EventsCRC {
				why = "stream events differ from the replay"
			} else if err := CheckStreamSummary(rec.Summary, exp.Stats); err != nil {
				why = err.Error()
			}
		default:
			exp, err := ref.Expect(rec.Tmpl, plan.Templates[rec.Tmpl])
			switch {
			case err != nil:
				// The in-process handler runs the server's own code, so
				// its disagreeing with the compiled tree fails the answer.
				why = err.Error()
				if refErr == nil {
					refErr = err
				}
			case exp != (bodyDigest{CRC: rec.CRC, Len: rec.Len}):
				why = "response differs from the reference"
			}
		}
		if why != "" {
			sr.failed++
			if shown < 5 {
				shown++
				fmt.Fprintf(os.Stderr, "perfbench: failed %s request: %s\n", kindNames[rec.Kind], why)
			}
		}
	}
	if refErr != nil {
		r.fail("served answers disagree with the compiled tree: %v", refErr)
	}
	if r.workload == "stream" {
		r.crossCheckStreams(sr, plan)
	}
	return nil
}

// crossCheckRoutes requires the server's per-route request and error
// counter deltas to equal what the generator saw, exactly.
func (r *run) crossCheckRoutes(recs []Record, before, after *loadgen.ServerMetrics) {
	type counts struct{ requests, errors uint64 }
	client := map[string]*counts{}
	for k := uint8(0); k < numKinds; k++ {
		client[route(k)] = &counts{}
	}
	for _, rec := range recs {
		if rec.Status == 0 {
			continue
		}
		c := client[route(rec.Kind)]
		c.requests++
		if rec.Status >= 400 {
			c.errors++
		}
	}
	for route, c := range client {
		req := after.Endpoints[route].Requests - before.Endpoints[route].Requests
		errs := after.Endpoints[route].Errors - before.Endpoints[route].Errors
		if req != c.requests || errs != c.errors {
			r.fail("%s: server counted %d requests / %d errors, client %d / %d", route, req, errs, c.requests, c.errors)
		}
	}
}

// crossCheckStreams requires the server's stream counters to equal the
// sum of the benchmark-side replays over every session.
func (r *run) crossCheckStreams(sr *servedRun, plan *Plan) {
	var want struct {
		scored, windows, bounds, alarms, dropped, invalid, violations uint64
		refuted                                                       int
	}
	for s, n := range sr.sessionPosts {
		if n == 0 {
			continue
		}
		st := sr.replays[plan.SessionExec[s]].posts[n-1].Stats
		want.scored += st.Scored
		want.windows += st.Windows
		want.bounds += st.PhaseBoundaries
		want.alarms += st.DriftAlarms
		want.dropped += st.Dropped
		want.invalid += st.Invalid
		want.violations += st.Refutation.Violations
		if st.Refutation.Verdict == refute.Refuted {
			want.refuted++
		}
	}
	a, b := sr.after.Streams, sr.before.Streams
	got := []uint64{a.Scored - b.Scored, a.Windows - b.Windows, a.PhaseBoundaries - b.PhaseBoundaries,
		a.DriftAlarms - b.DriftAlarms, a.Dropped - b.Dropped, a.Invalid - b.Invalid, a.RefuteViolations - b.RefuteViolations}
	exp := []uint64{want.scored, want.windows, want.bounds, want.alarms, want.dropped, want.invalid, want.violations}
	names := []string{"scored", "windows", "phase_boundaries", "drift_alarms", "dropped", "invalid", "refute_violations"}
	for i := range names {
		if got[i] != exp[i] {
			r.fail("stream %s: server %d, replay %d", names[i], got[i], exp[i])
		}
	}
	if a.RefuteRefuted != want.refuted {
		r.fail("stream refuted sessions: server %d, replay %d", a.RefuteRefuted, want.refuted)
	}
}

// transportRTT is the mean round trip of a trivial request (GET
// /healthz) over one kept-alive connection: the transport stage of the
// request paths' cost models.
func transportRTT(baseURL string) (float64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	const n = 300
	var total time.Duration
	for i := 0; i < n+20; i++ {
		start := time.Now()
		resp, err := client.Get(baseURL + "/healthz")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if i >= 20 { // the first requests open and warm the connection
			total += time.Since(start)
		}
	}
	return total.Seconds() * 1e6 / n, nil
}

// cacheStats is the prediction cache's hit and miss deltas over the
// serve phases, and the share of measured single-row requests that
// re-sent a hot row.
func (sr *servedRun) cacheStats() (hits, misses uint64, hotRowShare float64) {
	var singles, hot int
	for i := range sr.Records {
		if rec := &sr.Records[i]; rec.Phase != phaseWarm && rec.Kind == kindSingle {
			singles++
			if rec.Hot {
				hot++
			}
		}
	}
	hits = sr.after.Cache.Hits - sr.before.Cache.Hits
	misses = sr.after.Cache.Misses - sr.before.Cache.Misses
	return hits, misses, ratio(float64(hot), float64(singles))
}

// repeatedPostShare is the share of the timed phases' stream posts that
// carry a sample their session had already sent, having streamed the
// whole payload of n lines.
func (sr *servedRun) repeatedPostShare(n int) float64 {
	var posts, repeated int
	for i := range sr.Records {
		if rec := &sr.Records[i]; rec.Phase != phaseWarm && rec.Post >= 0 {
			posts++
			if Repeats(n, int(rec.Post)) {
				repeated++
			}
		}
	}
	return ratio(float64(repeated), float64(posts))
}
