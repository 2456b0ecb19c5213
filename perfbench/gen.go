package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Record is one request as the generator saw it. Times are nanoseconds
// since the generator's epoch: Due is when the schedule wanted it sent
// (equal to Dispatch in the closed phases), Dispatch when the
// dispatcher's timer released it, Send when a connection took it and
// Done when the whole response had arrived.
type Record struct {
	Phase  uint8
	Kind   uint8
	Hot    bool
	Traced bool
	Tmpl   int32
	Sess   int16
	Post   int32 // stream: index of this post within its session

	Due, Dispatch, Send, Done int64

	Status int // 0: transport error or never sent
	Err    string
	Len    int
	CRC    uint32 // predict side: whole body; stream: events part
	// Summary is a stream response's final NDJSON line.
	Summary []byte
}

// GenResult is what the generator process hands back.
type GenResult struct {
	Records []Record
	// GenCPU and ServerCPU are the generator's own and the server's CPU
	// time over the open and closed phases.
	GenCPU, ServerCPU time.Duration
	// OpenStart and ClosedStart are when the open and closed phases
	// began, on the records' clock.
	OpenStart, ClosedStart int64
	// OpenPeakRSSMB is the server's peak resident set (VmHWM) at the end
	// of the open loop.
	OpenPeakRSSMB float64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// session serializes one stream session's posts: post k+1 of a session
// is cut and sent only after post k's response arrived, so the server
// sees every session's samples in execution order.
type session struct {
	mu   sync.Mutex
	next int
}

type generator struct {
	plan     *Plan
	client   *http.Client
	epoch    time.Time
	sessions []session
	tracer   *Tracer
}

// runGenerator is the generator process: it replays the plan against
// the server and writes the records.
func runGenerator(planPath, outPath string) error {
	var plan Plan
	if err := readGob(planPath, &plan); err != nil {
		return err
	}
	// The generator's own collections pause its dispatcher and show up
	// as lateness; its live heap is a few MB, so trade memory for fewer.
	debug.SetGCPercent(400)
	g := &generator{
		plan: &plan,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     plan.Conns,
				MaxIdleConnsPerHost: plan.Conns,
				DisableCompression:  true,
			},
		},
		sessions: make([]session, streamSessions),
	}
	g.epoch = time.Now()
	if plan.SpansPath != "" {
		g.tracer = NewTracer(g.epoch)
	}

	var res GenResult
	res.Records = append(res.Records, g.closedLoop(phaseWarm, plan.WarmSeq, 0)...)
	gen0, srv0, err := g.cpuTimes()
	if err != nil {
		return err
	}
	res.OpenStart = g.now()
	res.Records = append(res.Records, g.openLoop(res.OpenStart)...)
	if res.OpenPeakRSSMB, err = peakRSSMB(plan.ServerPID); err != nil {
		return err
	}
	res.ClosedStart = g.now()
	res.Records = append(res.Records, g.closedLoop(phaseClosed, plan.ClosedSeq, plan.Closed)...)
	gen1, srv1, err := g.cpuTimes()
	if err != nil {
		return err
	}
	res.GenCPU, res.ServerCPU = gen1-gen0, srv1-srv0

	if g.tracer != nil {
		if err := writeSpans(plan.SpansPath, g.tracer.Spans()); err != nil {
			return err
		}
	}
	return writeGob(outPath, &res)
}

func (g *generator) now() int64 { return time.Since(g.epoch).Nanoseconds() }

// cpuTimes reads the generator's and the server's consumed CPU time.
func (g *generator) cpuTimes() (self, server time.Duration, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	self = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	server, err = procCPU(g.plan.ServerPID)
	return self, server, err
}

// closedLoop runs Conns callers that each send their next request as
// soon as the previous one completes, for d, cycling through seq; with
// d = 0 they send seq once.
func (g *generator) closedLoop(phase uint8, seq []Req, d time.Duration) []Record {
	deadline := time.Now().Add(d)
	more := func(i int) bool { return time.Now().Before(deadline) }
	if d == 0 {
		more = func(i int) bool { return i < len(seq) }
	}
	var next atomic.Int64
	out := make([][]Record, g.plan.Conns)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var body []byte
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					break
				}
				r := seq[i%len(seq)]
				t := g.now()
				out[c] = append(out[c], g.do(&buf, &body, phase, r, t, t))
			}
		}(c)
	}
	wg.Wait()
	var all []Record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// openLoop sends the open-loop schedule: a dispatcher sleeps until each
// request is due and queues it; Conns connections drain the queue. A
// request's latency runs from when it was due, so time spent queued
// behind a slow response counts against the server.
func (g *generator) openLoop(start int64) []Record {
	seq := g.plan.OpenSeq
	deadline := time.Duration(start) + g.plan.Open + g.plan.Grace
	type item struct {
		r             Req
		due, dispatch int64
	}
	// Sized to the schedule so the dispatcher never blocks: a stalled
	// server must grow the queue, not delay the arrivals.
	queue := make(chan item, len(seq))
	go func() {
		defer close(queue)
		for _, r := range seq {
			due := start + r.Due
			if wait := time.Duration(due - g.now()); wait > 0 {
				time.Sleep(wait)
			}
			queue <- item{r: r, due: due, dispatch: g.now()}
		}
	}()
	out := make([][]Record, g.plan.Conns)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var body []byte
			out[c] = make([]Record, 0, len(seq))
			for it := range queue {
				if time.Duration(g.now()) > deadline {
					rec := g.record(phaseOpen, it.r)
					rec.Due, rec.Dispatch = it.due, it.dispatch
					rec.Err = "dropped: open loop overran its schedule"
					out[c] = append(out[c], rec)
					continue
				}
				out[c] = append(out[c], g.do(&buf, &body, phaseOpen, it.r, it.due, it.dispatch))
			}
		}(c)
	}
	wg.Wait()
	var all []Record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

func (g *generator) record(phase uint8, r Req) Record {
	rec := Record{Phase: phase, Hot: r.Hot, Traced: r.Traced, Tmpl: r.Tmpl, Sess: r.Sess, Post: -1}
	if r.Sess >= 0 {
		rec.Kind = kindStream
	} else {
		rec.Kind = g.plan.TmplKind[r.Tmpl]
	}
	return rec
}

// do sends one request and records it. buf and body are the calling
// connection's reusable response and request buffers.
func (g *generator) do(buf *bytes.Buffer, body *[]byte, phase uint8, r Req, due, dispatch int64) Record {
	rec := g.record(phase, r)
	rec.Due, rec.Dispatch = due, dispatch
	var url string
	var payload []byte
	var contentType string
	switch rec.Kind {
	case kindStream:
		s := &g.sessions[r.Sess]
		s.mu.Lock()
		defer s.mu.Unlock()
		rec.Post = int32(s.next)
		s.next++
		*body = PostBody(*body, g.plan.Lines, g.plan.ExecStart[g.plan.SessionExec[r.Sess]], int(rec.Post))
		payload = *body
		url = g.plan.BaseURL + streamPath("s"+strconv.Itoa(int(r.Sess)))
		contentType = "application/x-ndjson"
	default:
		payload = g.plan.Templates[r.Tmpl]
		url = g.plan.BaseURL + route(rec.Kind)
		contentType = "application/json"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", contentType)
	reqID := ""
	if r.Traced && g.tracer != nil {
		reqID = fmt.Sprintf("%s-%d-%d", kindNames[rec.Kind], phase, dispatch)
		req.Header.Set("X-Request-Id", reqID)
	}
	rec.Send = g.now()
	resp, err := g.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = io.Copy(buf, resp.Body)
		resp.Body.Close()
		rec.Status = resp.StatusCode
	}
	rec.Done = g.now()
	if err != nil {
		rec.Status = 0
		rec.Err = err.Error()
		return rec
	}
	b := buf.Bytes()
	rec.Len = len(b)
	if rec.Kind == kindStream {
		events, summary := splitSummary(b)
		rec.CRC = crc32.Checksum(events, castagnoli)
		rec.Summary = append([]byte(nil), summary...)
	} else {
		rec.CRC = crc32.Checksum(b, castagnoli)
	}
	if reqID != "" {
		at := func(ns int64) time.Time { return g.epoch.Add(time.Duration(ns)) }
		root := g.tracer.Add("request", reqID, 0, at(rec.Due), at(rec.Done))
		g.tracer.Add("generator.late", reqID, root, at(rec.Due), at(rec.Dispatch))
		g.tracer.Add("generator.queue", reqID, root, at(rec.Dispatch), at(rec.Send))
		g.tracer.Add("serve."+kindNames[rec.Kind], reqID, root, at(rec.Send), at(rec.Done))
	}
	return rec
}

// splitSummary splits an NDJSON stream response into its event lines
// and its final (summary) line.
func splitSummary(b []byte) (events, summary []byte) {
	trimmed := bytes.TrimSuffix(b, []byte("\n"))
	i := bytes.LastIndexByte(trimmed, '\n')
	return b[:i+1], trimmed[i+1:]
}
