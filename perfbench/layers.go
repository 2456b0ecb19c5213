package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/phases"
	"repro/internal/refute"
	"repro/internal/serve"
	"repro/internal/sim/cpu"
	"repro/internal/sim/trace"
	"repro/internal/stream"
	"repro/internal/workload"
)

// layerRun is the traced run's per-layer report.
type layerRun struct {
	metrics Metrics
	recon   []Reconciliation
}

func (l *layerRun) set(name, unit string, v float64) { l.metrics.set(name, unit, v) }

// minMeasure is how long each isolated microbenchmark repeats its loop.
const minMeasure = 100 * time.Millisecond

// repeat runs pass (one unit of n operations) until minMeasure has
// elapsed and returns the mean time per operation.
func repeat(n int, pass func()) time.Duration {
	start := time.Now()
	ops := 0
	for time.Since(start) < minMeasure {
		pass()
		ops += n
	}
	return time.Since(start) / time.Duration(ops)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// openSamples returns value (in ms) for the open phase's answered
// records that keep selects.
func openSamples(recs []Record, keep func(*Record) bool, value func(*Record) int64) []float64 {
	var out []float64
	for i := range recs {
		rec := &recs[i]
		if rec.Phase == phaseOpen && rec.Status != 0 && keep(rec) {
			out = append(out, ms(value(rec)))
		}
	}
	return out
}

func ofKind(k uint8) func(*Record) bool { return func(r *Record) bool { return r.Kind == k } }
func anyKind(*Record) bool              { return true }
func service(r *Record) int64           { return r.Done - r.Send }

// layers measures every per-layer metric of the traced run.
func (r *run) layers(p *Payload, ref *Reference, plan *Plan, sr *servedRun, pipe *pipelineRun, transportUs float64) (*layerRun, error) {
	l := &layerRun{metrics: Metrics{}}
	recs := sr.Records
	jobs := runtime.NumCPU()

	// Generator.
	late := Percentiles(openSamples(recs, anyKind, func(r *Record) int64 { return r.Dispatch - r.Due }), 0.5, 0.99)
	l.set("gen.late_p50_ms", "ms", late[0].Value)
	l.set("gen.late_p99_ms", "ms", late[1].Value)
	measured := 0
	for i := range recs {
		if recs[i].Phase != phaseWarm && recs[i].Status != 0 {
			measured++
		}
	}
	l.set("gen.cpu_ms_per_req", "ms", ms(sr.GenCPU.Nanoseconds())/float64(measured))
	l.set("serve.cpu_ms_per_req", "ms", ms(sr.ServerCPU.Nanoseconds())/float64(measured))

	// Client view: service time per kind, and waiting.
	meanService := make([]float64, numKinds)
	for k := uint8(0); k < numKinds; k++ {
		s := openSamples(recs, ofKind(k), service)
		q := Percentiles(s, 0.5, 0.99)
		name := "serve." + kindNames[k]
		l.set(name+".service_p50_ms", "ms", zeroIfNaN(q[0].Value))
		l.set(name+".service_p99_ms", "ms", zeroIfNaN(q[1].Value))
		meanService[k] = zeroIfNaN(Mean(s))
	}
	// The open loop's tail: on a shared host it follows hypervisor steal
	// too closely to carry a bound, so it is reported here, not gated.
	l.set("serve.p99_ms", "ms", r.p99.Value)
	wait := Percentiles(openSamples(recs, anyKind, func(r *Record) int64 { return r.Send - r.Due }), 0.99)
	l.set("serve.wait_p99_ms", "ms", wait[0].Value)

	// Handler in-process on the same bodies.
	hs, err := measureHandlers(ref, plan, recs)
	if err != nil {
		return nil, err
	}
	for k := uint8(0); k < numKinds; k++ {
		name := "serve." + kindNames[k]
		h := hs[k]
		var us, allocs, bytes, net float64
		if h.n > 0 {
			us = h.dur.Seconds() * 1e6 / float64(h.n)
			allocs = float64(h.mallocs) / float64(h.n)
			bytes = float64(h.bytes) / float64(h.n)
			net = meanService[k]*1e3 - us
		}
		l.set(name+".handler_us", "us", us)
		l.set(name+".allocs_per_req", "count", allocs)
		l.set(name+".bytes_per_req", "B", bytes)
		l.set(name+".net_us", "us", net)
	}

	// Prediction cache.
	hits, misses, hotRowShare := sr.cacheStats()
	l.set("serve.cache.hits", "count", float64(hits))
	l.set("serve.cache.misses", "count", float64(misses))
	l.set("serve.cache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	l.set("payload.hot_row_share", "ratio", hotRowShare)

	// Compiled tree kernels on the payload rows.
	if err := measureKernels(l, ref, p); err != nil {
		return nil, err
	}

	// The pipeline's stages.
	l.set("counters.collect_s", "s", pipe.CollectS)
	l.set("mtree.build_s", "s", pipe.TrainS)
	l.set("eval.cv_s", "s", pipe.CVS)
	l.set("eval.fold_train_s", "s", Mean(pipe.FoldTrainS))
	l.set("eval.cv_self_s", "s", pipe.CVSelfS)

	// Stream: the benchmark-side replay's stage costs per post.
	var posts int
	var dec, ing, enc time.Duration
	var events, bytesOut int
	for _, rp := range sr.replays {
		posts += len(rp.posts)
		dec, ing, enc = dec+rp.decode, ing+rp.ingest, enc+rp.encode
		events, bytesOut = events+rp.events, bytesOut+rp.bytesOut
	}
	perPost := func(d time.Duration) float64 { return ratio(d.Seconds()*1e6, float64(posts)) }
	l.set("stream.decode_us_per_req", "us", perPost(dec))
	l.set("stream.ingest_us_per_req", "us", perPost(ing))
	l.set("stream.encode_us_per_req", "us", perPost(enc))
	l.set("stream.events_per_req", "count", ratio(float64(events), float64(posts)))
	l.set("stream.bytes_out_per_req", "B", ratio(float64(bytesOut), float64(posts)))
	l.set("payload.repeated_post_share", "ratio", sr.repeatedPostShare(len(plan.Lines)))
	a, b := sr.after.Streams, sr.before.Streams
	l.set("stream.scored", "count", float64(a.Scored-b.Scored))
	l.set("stream.windows", "count", float64(a.Windows-b.Windows))
	l.set("stream.phase_boundaries", "count", float64(a.PhaseBoundaries-b.PhaseBoundaries))
	l.set("stream.drift_alarms", "count", float64(a.DriftAlarms-b.DriftAlarms))
	l.set("stream.dropped", "count", float64(a.Dropped-b.Dropped))
	l.set("stream.invalid", "count", float64(a.Invalid-b.Invalid))
	l.set("refute.violations", "count", float64(a.RefuteViolations-b.RefuteViolations))
	l.set("refute.refuted_sessions", "count", float64(a.RefuteRefuted))
	measureMonitors(l, ref, p, r.workload == "stream")

	// Session table shards.
	var total, top float64
	for i, sh := range a.Shards {
		n := float64(sh.Hits + sh.Misses)
		if i < len(b.Shards) {
			n -= float64(b.Shards[i].Hits + b.Shards[i].Misses)
		}
		total += n
		top = max(top, n)
	}
	l.set("shard.hits", "count", float64(a.Hits-b.Hits))
	l.set("shard.misses", "count", float64(a.Misses-b.Misses))
	l.set("shard.evictions", "count", float64(a.Evictions-b.Evictions))
	l.set("shard.max_shard_share", "ratio", ratio(top, total))

	// Simulator layers and the collection fan-out.
	genNs, stepNs := measureSimulator(r.seed)
	l.set("workload.gen_ns_per_inst", "ns", genNs)
	l.set("sim.step_ns_per_inst", "ns", stepNs)
	var busy, slowest float64
	for _, s := range pipe.BenchBusyS {
		busy += s
		slowest = max(slowest, s)
	}
	modelled := float64(pipe.Insts) * (genNs + stepNs) / 1e9
	l.set("counters.assembly_share", "ratio", (busy-modelled)/busy)
	l.set("counters.sections", "count", float64(pipe.Sections))
	l.set("sim.insts_per_s", "1/s", float64(pipe.Insts)/pipe.CollectS)
	l.set("parallel.collect_efficiency", "ratio", busy/(pipe.CollectS*float64(jobs)))
	l.set("counters.slowest_bench_s", "s", slowest)

	// Tracing overhead: the open loop's traced blocks against its
	// untraced ones.
	traced := Median(openSamples(recs, func(r *Record) bool { return r.Traced }, func(r *Record) int64 { return r.Done - r.Due }))
	plain := Median(openSamples(recs, func(r *Record) bool { return !r.Traced }, func(r *Record) int64 { return r.Done - r.Due }))
	l.set("trace.overhead_pct", "%", 100*(traced-plain)/plain)

	// Stage sums against end-to-end, per path.
	l.set("serve.transport_us", "us", transportUs)
	var predictRecon, streamRecon Reconciliation
	if r.workload == "predict" {
		var n, e2e, handler float64
		for k := kindSingle; k <= kindBatch; k++ {
			c := float64(len(openSamples(recs, ofKind(k), service)))
			n += c
			e2e += c * meanService[k] * 1e3
			handler += c * l.metrics["serve."+kindNames[k]+".handler_us"].Value
		}
		predictRecon = Reconcile("predict", "us", e2e/n,
			Stage{"transport", transportUs}, Stage{"handler", handler / n})
		l.recon = append(l.recon, predictRecon)
	} else {
		streamRecon = Reconcile("stream", "us", meanService[kindStream]*1e3,
			Stage{"decode", perPost(dec)}, Stage{"ingest", perPost(ing)},
			Stage{"encode", perPost(enc)}, Stage{"transport", transportUs})
		l.recon = append(l.recon, streamRecon)
	}
	pipeRecon := Reconcile("pipeline", "s", pipe.PipelineS,
		Stage{"collect", pipe.CollectS}, Stage{"train", pipe.TrainS}, Stage{"cv", pipe.CVS})
	l.recon = append(l.recon, pipeRecon)
	// The path a workload does not take reports zeros.
	setRecon := func(prefix, unit string, rc Reconciliation) {
		l.set(prefix+".sum_"+unit, unit, rc.Sum)
		l.set(prefix+".e2e_"+unit, unit, rc.EndToEnd)
		l.set(prefix+".unexplained_pct", "%", rc.RemainderPct)
	}
	setRecon("stage.predict", "us", predictRecon)
	setRecon("stage.stream", "us", streamRecon)
	setRecon("stage.pipeline", "s", pipeRecon)
	return l, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// handlerCost accumulates one kind's in-process handler measurements.
type handlerCost struct {
	n              int
	dur            time.Duration
	mallocs, bytes uint64
}

// handlerSample bounds how many recorded requests are replayed
// in-process per run.
const handlerSample = 1500

// measureHandlers replays the run's first requests, in the order they
// were sent, through a fresh in-process serve.New(...).Handler(),
// timing each ServeHTTP call and its allocations.
func measureHandlers(ref *Reference, plan *Plan, recs []Record) ([numKinds]handlerCost, error) {
	var out [numKinds]handlerCost
	sent := make([]*Record, 0, len(recs))
	for i := range recs {
		if recs[i].Status != 0 {
			sent = append(sent, &recs[i])
		}
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i].Send < sent[j].Send })
	if len(sent) > handlerSample {
		sent = sent[:handlerSample]
	}
	h := serve.New(ref.reg, serve.DefaultConfig()).Handler()
	var body []byte
	var m0, m1 runtime.MemStats
	for _, rec := range sent {
		var path string
		switch rec.Kind {
		case kindStream:
			body = PostBody(body, plan.Lines, plan.ExecStart[plan.SessionExec[rec.Sess]], int(rec.Post))
			path = streamPath(fmt.Sprintf("s%d", rec.Sess))
		default:
			body = plan.Templates[rec.Tmpl]
			path = route(rec.Kind)
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		w := serveInProcess(h, path, body)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if w.Code != 200 {
			return out, fmt.Errorf("in-process %s: HTTP %d", kindNames[rec.Kind], w.Code)
		}
		c := &out[rec.Kind]
		c.n++
		c.dur += d
		c.mallocs += m1.Mallocs - m0.Mallocs
		c.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return out, nil
}

// measureKernels times the compiled tree's entry points on the payload
// rows, and the batch kernel's share of the batch handler.
func measureKernels(l *layerRun, ref *Reference, p *Payload) error {
	tree := ref.tree
	rows := make([]dataset.Instance, len(p.Rows))
	for i, row := range p.Rows {
		rows[i] = p.requestRow(row)
	}
	var sink float64
	l.set("mtree.predict_ns", "ns", float64(repeat(len(rows), func() {
		for _, row := range rows {
			sink += tree.Predict(row)
		}
	})))
	l.set("mtree.classify_ns", "ns", float64(repeat(len(rows), func() {
		for _, row := range rows {
			leaf, _ := tree.Classify(row)
			sink += float64(leaf.LeafID)
		}
	})))
	l.set("mtree.contributions_ns", "ns", float64(repeat(len(rows), func() {
		for _, row := range rows {
			sink += float64(len(tree.Contributions(row)))
		}
	})))
	dst := make([]float64, 0, len(rows))
	l.set("mtree.predict_into_ns_per_row", "ns", float64(repeat(len(p.Rows), func() {
		for _, ex := range p.Execs {
			tree.PredictInto(dst[:len(ex.Rows)], ex.Rows)
		}
	})))

	// Kernel share: the batch kernel over each execution against the
	// handler answering the same prediction-only batch (cold cache, so
	// the kernel runs on every row).
	bodies, _, err := p.Templates()
	if err != nil {
		return err
	}
	h := serve.New(ref.reg, serve.DefaultConfig()).Handler()
	var kernel, handler time.Duration
	for e, ex := range p.Execs {
		start := time.Now()
		tree.PredictInto(dst[:len(ex.Rows)], ex.Rows)
		kernel += time.Since(start)
		start = time.Now()
		w := serveInProcess(h, route(kindBatch), bodies[p.batchTmpl(e, false)])
		handler += time.Since(start)
		if w.Code != 200 {
			return fmt.Errorf("in-process batch: HTTP %d", w.Code)
		}
	}
	l.set("mtree.kernel_share.batch", "ratio", kernel.Seconds()/handler.Seconds())
	_ = sink
	return nil
}

// measureMonitors times the stream monitors alone on the executions'
// sections: phases.Online.Feed, PageHinkley.Feed on the residuals, and
// refute.Checker.Observe/EndWindow per 16-sample window. They run only
// on the stream workload; on predict they are predicted 0 and reported
// as 0.
func measureMonitors(l *layerRun, ref *Reference, p *Payload, on bool) {
	if !on {
		for _, n := range []string{"phases.feed_ns", "stream.ph_feed_ns", "refute.observe_ns", "refute.end_window_ns"} {
			l.set(n, "ns", 0)
		}
		return
	}
	cfg := ref.scfg
	desc := ref.model.Describe()
	var feats [][]float64
	var resid, cpis []float64
	var rows []dataset.Instance
	for _, ex := range p.Execs {
		for _, row := range ex.Rows {
			in := p.requestRow(row)
			v := make([]float64, 0, len(row)-1)
			for j, x := range in {
				if j != p.Target {
					v = append(v, x)
				}
			}
			feats = append(feats, v)
			rows = append(rows, in)
			cpis = append(cpis, row[p.Target])
			resid = append(resid, row[p.Target]-ref.tree.Predict(in))
		}
	}
	l.set("phases.feed_ns", "ns", float64(repeat(len(feats), func() {
		o := phases.NewOnline(cfg.Phases, cfg.Calibration)
		for _, v := range feats {
			o.Feed(v)
		}
	})))
	l.set("stream.ph_feed_ns", "ns", float64(repeat(len(resid), func() {
		ph := stream.NewPageHinkley(cfg.PH)
		for _, x := range resid {
			ph.Feed(x)
		}
	})))
	var windows int
	var observe, endWindow time.Duration
	for time.Duration(observe+endWindow) < minMeasure {
		c := refute.NewChecker(cfg.Refute, desc.AttrNames, p.Target, desc.Machine)
		for i := 0; i < len(rows); i += streamPost {
			end := min(i+streamPost, len(rows))
			start := time.Now()
			for j := i; j < end; j++ {
				c.Observe(rows[j], cpis[j], true)
			}
			mid := time.Now()
			c.EndWindow()
			observe += mid.Sub(start)
			endWindow += time.Since(mid)
			windows++
		}
	}
	l.set("refute.observe_ns", "ns", float64(observe.Nanoseconds())/float64(windows*streamPost))
	l.set("refute.end_window_ns", "ns", float64(endWindow.Nanoseconds())/float64(windows))
}

// simSampleInsts is how many instructions per benchmark the simulator
// layers are timed on.
const simSampleInsts = 100_000

// measureSimulator times workload generation alone and then the core's
// StepBlock alone on the same instruction stream, over every benchmark
// of the suite, in ns per instruction.
func measureSimulator(seed int64) (genNs, stepNs float64) {
	ccfg := counters.DefaultCollectConfig()
	insts := make([]trace.Inst, simSampleInsts)
	var gen, step time.Duration
	var n int
	for _, b := range workload.Suite() {
		g := workload.NewGenerator(b.Phases[0].Params, seed)
		start := time.Now()
		for i := 0; i < len(insts); i += trace.DefaultBlockLen {
			g.NextBlock(insts[i:min(i+trace.DefaultBlockLen, len(insts))])
		}
		gen += time.Since(start)
		core := cpu.New(ccfg.CPU, ccfg.Geometry, ccfg.Branch)
		start = time.Now()
		for i := 0; i < len(insts); i += trace.DefaultBlockLen {
			core.StepBlock(insts[i:min(i+trace.DefaultBlockLen, len(insts))])
		}
		step += time.Since(start)
		n += len(insts)
	}
	return float64(gen.Nanoseconds()) / float64(n), float64(step.Nanoseconds()) / float64(n)
}
