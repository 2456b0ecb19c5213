package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/stream"
)

const (
	modelName = "cpi"
	modelRef  = "cpi@v1"
)

const (
	// Request kinds. Batch templates with and without contributions are
	// one kind: both are the execution-sized /v1/predict request.
	kindSingle uint8 = iota
	kindClassify
	kindBatch
	kindStream
	numKinds
)

// Run phases.
const (
	phaseWarm uint8 = iota
	phaseOpen
	phaseClosed
)

const (
	streamPost     = 16  // samples per /v1/stream post
	streamSessions = 64  // 4x the server's default 16 session shards
	hotSetSize     = 256 // recent single rows a dashboard re-asks about
)

var kindNames = [numKinds]string{"single", "classify", "batch", "stream"}

// route is the server route a request kind is sent to.
func route(kind uint8) string {
	switch kind {
	case kindClassify:
		return "/v1/classify"
	case kindStream:
		return "/v1/stream"
	}
	return "/v1/predict"
}

// streamPath addresses one stream session of the served model.
func streamPath(session string) string {
	return route(kindStream) + "?model=" + modelRef + "&session=" + session
}

// Req is one planned request. Predict-side requests name a body
// template; stream requests name a session, whose next post body the
// generator cuts from the session's execution at send time.
type Req struct {
	Tmpl   int32
	Sess   int16
	Hot    bool // single-row request re-sending a row from the hot set
	Traced bool
	Due    int64 // open loop: ns after the phase start
}

// Plan is everything the generator process needs: the server address,
// the phase lengths, the request sequences and the payload bodies. The
// coordinator writes it before timing starts.
type Plan struct {
	BaseURL   string
	ServerPID int
	Conns     int
	Open      time.Duration
	Closed    time.Duration
	// Grace bounds how long the open loop may run past its schedule
	// before the requests still unsent count as dropped.
	Grace time.Duration

	WarmSeq, OpenSeq, ClosedSeq []Req

	Templates [][]byte
	TmplKind  []uint8

	// Lines holds every section of the payload as an NDJSON sample line,
	// executions in suite order; ExecStart is the index of each
	// execution's first line. Session s streams Lines from the start of
	// execution SessionExec[s] onwards, wrapping at the end.
	Lines       [][]byte
	ExecStart   []int
	SessionExec []int

	// SpansPath, when set, makes the generator trace the requests marked
	// Traced and write their spans there.
	SpansPath string
}

// Execution is one benchmark's sections from the held-out payload
// collection, in execution order.
type Execution struct {
	Bench string
	Rows  []dataset.Instance
}

// Payload is the held-out collection the requests are cut from.
type Payload struct {
	Attrs  []string
	Target int
	Rows   []dataset.Instance // every section, suite order
	Execs  []Execution
}

// NewPayload groups a collection's rows by the benchmark that produced
// them.
func NewPayload(col *counters.Collection) (*Payload, error) {
	p := &Payload{Target: -1}
	for i, a := range col.Data.Attrs() {
		p.Attrs = append(p.Attrs, a.Name)
		if a.Name == col.Data.TargetName() {
			p.Target = i
		}
	}
	if p.Target < 0 {
		return nil, fmt.Errorf("payload: collection has no target column")
	}
	for i := 0; i < col.Data.Len(); i++ {
		row := col.Data.Row(i)
		p.Rows = append(p.Rows, row)
		b := col.Labels[i].Benchmark
		if n := len(p.Execs); n == 0 || p.Execs[n-1].Bench != b {
			p.Execs = append(p.Execs, Execution{Bench: b})
		}
		e := &p.Execs[len(p.Execs)-1]
		e.Rows = append(e.Rows, row)
	}
	return p, nil
}

// events is a row's named per-instruction event rates, target excluded.
func (p *Payload) events(row dataset.Instance) map[string]float64 {
	ev := make(map[string]float64, len(row)-1)
	for j, v := range row {
		if j != p.Target {
			ev[p.Attrs[j]] = v
		}
	}
	return ev
}

// requestRow is the full-width row the server builds from an events
// body: the events in place, the target column zero.
func (p *Payload) requestRow(row dataset.Instance) dataset.Instance {
	out := append(dataset.Instance(nil), row...)
	out[p.Target] = 0
	return out
}

// predictBody is a /v1/predict or /v1/classify request body.
type predictBody struct {
	Model         string               `json:"model"`
	Rows          [][]float64          `json:"rows,omitempty"`
	Events        []map[string]float64 `json:"events,omitempty"`
	Contributions bool                 `json:"contributions,omitempty"`
}

// Template layout: [0,N) single rows, [N,2N) classify rows, then per
// execution one prediction-only batch and one contributions batch.
func (p *Payload) singleTmpl(i int) int32   { return int32(i) }
func (p *Payload) classifyTmpl(i int) int32 { return int32(len(p.Rows) + i) }
func (p *Payload) batchTmpl(e int, contrib bool) int32 {
	t := 2*len(p.Rows) + 2*e
	if contrib {
		t++
	}
	return int32(t)
}

// TemplateRows returns the rows a predict-side template carries, as the
// server will see them, and whether it asks for contributions.
func (p *Payload) TemplateRows(t int32) (kind uint8, rows []dataset.Instance, contrib bool) {
	n := int32(len(p.Rows))
	switch {
	case t < n:
		return kindSingle, []dataset.Instance{p.requestRow(p.Rows[t])}, false
	case t < 2*n:
		return kindClassify, []dataset.Instance{p.requestRow(p.Rows[t-n])}, false
	default:
		b := t - 2*n
		return kindBatch, p.Execs[b/2].Rows, b%2 == 1
	}
}

// Templates encodes every predict-side request body.
func (p *Payload) Templates() ([][]byte, []uint8, error) {
	total := 2*len(p.Rows) + 2*len(p.Execs)
	bodies := make([][]byte, 0, total)
	kinds := make([]uint8, 0, total)
	for t := int32(0); t < int32(total); t++ {
		kind, rows, contrib := p.TemplateRows(t)
		body := predictBody{Model: modelRef, Contributions: contrib}
		if kind == kindBatch {
			for _, r := range rows {
				body.Rows = append(body.Rows, r)
			}
		} else {
			body.Events = []map[string]float64{p.events(p.Rows[t%int32(len(p.Rows))])}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding template %d: %w", t, err)
		}
		bodies = append(bodies, b)
		kinds = append(kinds, kind)
	}
	return bodies, kinds, nil
}

// StreamLines encodes every section as an NDJSON stream sample
// carrying the observed CPI, one line each, executions in suite order,
// and returns the index of each execution's first line.
func (p *Payload) StreamLines() (lines [][]byte, starts []int, err error) {
	for _, ex := range p.Execs {
		starts = append(starts, len(lines))
		for i, row := range ex.Rows {
			cpi := row[p.Target]
			line, err := json.Marshal(stream.Sample{Bench: ex.Bench, Section: i, Events: p.events(row), CPI: &cpi})
			if err != nil {
				return nil, nil, fmt.Errorf("encoding %s section %d: %w", ex.Bench, i, err)
			}
			lines = append(lines, append(line, '\n'))
		}
	}
	return lines, starts, nil
}

// PostBody cuts post k of a session that streams lines from index
// start: samples start+16k..start+16k+15, wrapping to the first line
// after the last. A session thus runs through one execution after
// another, as a machine's counters would across the programs it runs,
// and repeats a sample only after it has streamed the whole payload.
func PostBody(dst []byte, lines [][]byte, start, k int) []byte {
	dst = dst[:0]
	for j := 0; j < streamPost; j++ {
		dst = append(dst, lines[(start+k*streamPost+j)%len(lines)]...)
	}
	return dst
}

// Repeats reports whether post k of a session over n lines carries a
// sample the session has already sent.
func Repeats(n, k int) bool { return (k+1)*streamPost > n }

// The predict workload's mix puts the median in single-row requests and
// the 99th percentile in the execution-sized batches, which take the
// share single and classify leave.
const (
	singleShare   = 0.70
	classifyShare = 0.20
	hotShare      = 0.5  // of single-row requests, re-sending a hot row
	contribShare  = 0.25 // of batches, asking for contributions
)

// sequencer draws a workload's request sequence from a seeded RNG. Its
// hot set carries over from one phase's sequence to the next.
type sequencer struct {
	workload string
	p        *Payload
	rng      *rand.Rand
	order    []int // cold rows in a seeded shuffled order
	next     int
	hot      []int
	hotPos   int
}

func newSequencer(workload string, p *Payload, seed int64) *sequencer {
	rng := rand.New(rand.NewSource(seed))
	return &sequencer{workload: workload, p: p, rng: rng, order: rng.Perm(len(p.Rows))}
}

func (s *sequencer) draw() Req {
	r := Req{Sess: -1}
	if s.workload == "stream" {
		r.Sess = int16(s.rng.Intn(streamSessions))
		return r
	}
	u := s.rng.Float64()
	switch {
	case u < singleShare:
		if len(s.hot) > 0 && s.rng.Float64() < hotShare {
			r.Tmpl = s.p.singleTmpl(s.hot[s.rng.Intn(len(s.hot))])
			r.Hot = true
			return r
		}
		row := s.order[s.next%len(s.order)]
		s.next++
		if len(s.hot) < hotSetSize {
			s.hot = append(s.hot, row)
		} else {
			s.hot[s.hotPos] = row
			s.hotPos = (s.hotPos + 1) % hotSetSize
		}
		r.Tmpl = s.p.singleTmpl(row)
	case u < singleShare+classifyShare:
		r.Tmpl = s.p.classifyTmpl(s.rng.Intn(len(s.p.Rows)))
	default:
		r.Tmpl = s.p.batchTmpl(s.rng.Intn(len(s.p.Execs)), s.rng.Float64() < contribShare)
	}
	return r
}

// sequence draws n back-to-back requests, all traced or all not.
func (s *sequencer) sequence(n int, traced bool) []Req {
	out := make([]Req, n)
	for i := range out {
		out[i] = s.draw()
		out[i].Traced = traced
	}
	return out
}

// traceBlock is the length of the open loop's alternating blocks in a
// traced run: requests due in odd blocks are traced, those in even
// blocks are not. Tracing is switched per block rather than per
// request, so the generator's span work in a traced block delays that
// block's later sends as a traced run's would, while blocks a second
// apart still share the host's slower drift.
const traceBlock = time.Second

// schedule draws an open-loop Poisson arrival sequence at rate req/s
// over d; when traced, the requests of every other traceBlock carry
// spans.
func (s *sequencer) schedule(rate float64, d time.Duration, traced bool) []Req {
	var out []Req
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		r := s.draw()
		r.Due = int64(t * 1e9)
		r.Traced = traced && r.Due/int64(traceBlock)%2 == 1
		out = append(out, r)
	}
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
