// Command perfbench is the repository's benchmark: the offline
// collect→train→cross-validate pipeline, then one of the two online
// paths served by cmd/serve, measured from outside the program, with
// every answer checked against a reference the benchmark computes
// itself.
//
// Usage, from the repository root (run.sh first builds both binaries
// into .bench_build):
//
//	bash perfbench/run.sh --workload predict|stream --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// host header (nproc, GOMAXPROCS, Go version, CPU model, commit, source
// digest, seed) and a human-readable report.
//
// # One run
//
//  1. Pipeline, in its own process: collect the full suite on the
//     simulator (scale 1.0, jobs = nproc), build the paper's M5' tree
//     (minimum leaf 430) and 10-fold cross-validate it. The training
//     corpus is the repository's standard collection (workload seed 42)
//     in every run; the run's seed draws the folds. The tree, saved in
//     the binary format, is the served model.
//  2. Payload: a held-out collection (scale 0.6, its seed derived from
//     the run's) supplies every request, so requests carry real,
//     self-consistent counter readings the model has not seen.
//  3. Serve: cmd/serve with default flags loads the tree. setup_s is the
//     median of 51 starts, each from exec to the first healthy /healthz
//     with the model loaded and compiled; the benchmark wakes on the
//     server's "serving" log line rather than a polling timer. The last
//     start serves. One generator process with nproc connections runs
//     an untimed warm-up of a fixed number of requests, an open loop of
//     Poisson arrivals at the workload's fixed rate for 60% of
//     --seconds, and a closed loop of nproc back-to-back callers for the
//     rest; then /v1/metrics.json is read.
//  4. Check: every 2xx body must equal, byte for byte, the in-process
//     handler's answer to the same request, and that answer is itself
//     checked against the compiled tree (predictions bit-equal, leaf ids
//     and contributions equal). A stream answer must equal the
//     in-process handler's replay of the same post and, in event counts
//     and summary stats, a benchmark-side stream.Processor replay.
//     Requests that get no answer, a non-2xx answer or an answer that
//     fails a check count as failed. The server's counters must equal
//     the client's exactly, or the run is not correct: per-route
//     requests and errors (loadgen.FetchMetrics deltas) and, on stream,
//     scored, windows, phase boundaries, drift alarms, dropped, invalid,
//     refutation violations and refuted sessions against the replay.
//
// # Workloads
//
//   - predict, 200 req/s: 70% single-row /v1/predict with named events
//     (half of them re-send one of the 256 most recent rows, as a
//     dashboard asks again about stored sections), 20% single-row
//     /v1/classify, 10% batch /v1/predict scoring every section of one
//     execution (hundreds of rows, above the 128-row fan-out cutoff;
//     one in four asks for contributions). It is the only workload
//     through the prediction cache, small and ~100 KB request decode,
//     and the batch fan-out and contributions paths. The payload's
//     distinct rows outnumber the server's 4,096 cache entries, so cold
//     rows miss; the traced run reports the hot-row share and the hit
//     ratio. p50 falls in the small requests, the tail in the batches.
//   - stream, 300 req/s: 16-sample NDJSON posts to /v1/stream over 64
//     sessions (4x the default 16 session shards). Each session streams
//     the held-out sections with observed CPI, execution after execution
//     in suite order, starting at its own execution (four sessions per
//     execution), as a machine's counters run through the programs it
//     runs; a session repeats a sample only after the whole payload,
//     which the busiest sessions pass in the closed loop. The traced
//     run reports the share of posts that repeat. It is the write path:
//     every post mutates session state (ring, phases, Page–Hinkley,
//     refutation) under the session lock and bypasses the prediction
//     cache; its counter relations hold, and its phases change within
//     executions and at each switch of program.
//
// Both workloads run the same pipeline, where the simulator (workload,
// sim, counters) does nearly all its work; the serve phases barely
// touch it, so a simulator change is predicted to move pipeline_s and
// leave p50_ms and max_rps unchanged.
//
// # End-to-end metrics (--trace 0)
//
// setup_s; p50_ms, the exact median of the open loop's latencies from
// each request's scheduled send time; max_rps, the median over the
// closed loop's one-second windows of completed requests; peak_rss_mb,
// the server's VmHWM at the end of the open loop, after a fixed amount
// of work (the closed loop's amount depends on the host's speed, and
// stream sessions grow with every post); pipeline_s, the wall time of
// collect, build and cross-validate together; cv_rae_pct, the pooled CV
// RAE, deterministic per seed, so any change is a behaviour change;
// pipeline_rss_mb, the pipeline process's peak RSS.
//
// On a shared 2-vCPU host the machine's speed drifts between minutes,
// by 10-30% as a rule and at times by more: the same pipeline took 7.0
// to 12.8 s within one hour, its CPU-seconds moving with its wall time,
// so this is not only hypervisor steal. The gated metrics are the ones whose
// spread over ten seeds stayed within their bounds there. Three others
// live in the traced run instead: the open loop's exact p99 (also
// printed with its sample count in every report; a run fails unless at
// least ten samples lie beyond it), which tracked steal, and the
// separate build and cross-validation times, short enough to read the
// host's momentary speed.
//
// # Per-layer metrics (--trace 1)
//
// The traced run replays the same seed, with tracing on in its
// pipeline, its closed loop and every other one-second block of its
// open loop. trace.overhead_pct is the open loop's p50 over the traced
// blocks against its p50 over the untraced ones: in a traced block the
// generator's span work sits between its sends, as it would in a fully
// traced run, while the neighbouring untraced blocks share the host's
// state. The server has no spans yet; the pipeline's tracing runs the
// untraced code with one span per benchmark, build and fold around it.
// Spans go to
// .bench_build/trace/, one JSONL file per process (name, start, end,
// parent, request id). Layers, and the end-to-end metric each should
// move:
//
//   - gen.*: generator timer lateness and CPU; should move nothing. If
//     they do, the run measured the generator.
//   - serve.cpu_ms_per_req → max_rps. serve.<kind>.service_*,
//     serve.p99_ms and serve.wait_p99_ms split latency into service and
//     waiting → p50_ms.
//   - serve.<kind>.handler_us, allocs_per_req, bytes_per_req (the
//     handler in-process on the same bodies) and net_us (service minus
//     handler) → p50_ms, peak_rss_mb.
//   - serve.cache.* → p50_ms on predict; predicted 0 on stream.
//   - mtree.* (the compiled tree on the payload rows) and
//     mtree.kernel_share.batch → the batch tail on predict.
//   - counters.collect_s, mtree.build_s, eval.cv_s, eval.fold_train_s,
//     eval.cv_self_s → pipeline_s.
//   - stream.* (the benchmark-side replay of the same posts),
//     phases.feed_ns, stream.ph_feed_ns, refute.* → p50_ms, max_rps on
//     stream; predicted 0 on predict. payload.repeated_post_share is the
//     share of stream posts that repeat samples their session already
//     sent.
//   - shard.* → max_rps on stream (session-table lock contention).
//   - workload.gen_ns_per_inst, sim.step_ns_per_inst,
//     counters.assembly_share, parallel.collect_efficiency,
//     counters.slowest_bench_s → pipeline_s; no effect on serving.
//   - stage.<path>.*: each path's stage sum against its end-to-end
//     value (predict: transport + handler; stream: decode + ingest +
//     encode + transport; pipeline: collect + train + CV), the remainder
//     reported rather than forced to zero. The path a workload does not
//     take reports zeros, as do the metrics of request kinds it does not
//     send.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"

	"repro/internal/counters"
	"repro/internal/parallel"
	"repro/internal/workload"
)

const (
	buildDir     = ".bench_build"
	payloadScale = 0.6
	setupStarts  = 51
	openShare    = 0.6
)

// Untimed warm-up requests, about two seconds of each workload's
// closed loop on an uncontended 2-vCPU host. The warm-up is a count,
// not a time, so the open loop starts from the same server state (cache
// contents, stream sessions' positions) however fast the host is.
var warmRequests = map[string]int{
	"predict": 6000,
	"stream":  4000,
}

// Fixed open-loop rates, a fifteenth (predict) and a seventh (stream)
// of max_rps on an uncontended 2-vCPU host. At half of max_rps the open
// loop queued whenever neighbours on a shared host slowed the machine,
// and latency then spread across runs by more than any bound; at these
// rates a slowdown of half still leaves the queue short.
var openRate = map[string]float64{
	"predict": 200,
	"stream":  300,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: predict or stream")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 15, "measured seconds (open loop + closed loop)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		role    = flag.String("role", "", "internal: gen or pipeline")
		in      = flag.String("in", "", "internal: input file")
		out     = flag.String("out", "", "internal: output file")
		tree    = flag.String("tree", "", "internal: pipeline tree output")
		spans   = flag.String("spans", "", "internal: span file")
	)
	flag.Parse()
	var err error
	switch *role {
	case "gen":
		err = runGenerator(*in, *out)
	case "pipeline":
		err = runPipeline(*seed, *tree, *out, *spans)
	case "":
		err = coordinate(*wl, *seed, *seconds, *trace == 1)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

// Result is the final output line.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// run holds one coordinator run's state.
type run struct {
	ctx      context.Context // cancelled by SIGINT or SIGTERM
	workload string
	seed     int64
	seconds  int
	traced   bool
	dir      string // scratch files of this run
	traceDir string
	self     string // this binary, re-executed for the gen and pipeline roles
	serveBin string

	metrics  Metrics // end-to-end
	failures []string
	p99      Quantile // of the open loop's latency
	payload  *Payload
	setups   []float64 // every start's exec-to-healthy seconds
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func coordinate(workload string, seed int64, seconds int, traced bool) error {
	if _, ok := openRate[workload]; !ok {
		return fmt.Errorf("--workload must be predict or stream, not %q", workload)
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// A signal cancels the context, which kills the pipeline or
	// generator process in flight; the deferred stops then end the
	// server before the run exits.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	r := &run{
		ctx: ctx, workload: workload, seed: seed, seconds: seconds, traced: traced, self: self,
		serveBin: filepath.Join(root, buildDir, "bin", "serve"),
		metrics:  Metrics{},
	}
	r.dir = filepath.Join(root, buildDir, "runs", fmt.Sprintf("%s-s%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	if traced {
		r.traceDir = filepath.Join(root, buildDir, "trace", fmt.Sprintf("%s-s%d", workload, seed))
		if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
			return err
		}
	}
	hb, _ := json.Marshal(struct {
		Host     Host   `json:"host"`
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
	}{hostHeader(root, seed), workload, traced})
	fmt.Println(string(hb))

	steal0, total0 := cpuTicks()
	res, err := r.execute()
	if err != nil {
		return err
	}
	steal1, total1 := cpuTicks()
	fmt.Printf("host: CPU steal %.1f%% of the run\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = len(r.failures) == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// execute runs the pipeline, prepares the payload, serves, checks and
// assembles the result.
func (r *run) execute() (*Result, error) {
	jobs := runtime.NumCPU()
	pipe, err := r.pipeline()
	if err != nil {
		return nil, err
	}
	treePath := filepath.Join(r.dir, "tree.bin")
	treeBytes, err := os.ReadFile(treePath)
	if err != nil {
		return nil, err
	}

	// The held-out payload collection: same simulator, a seed the
	// training collection did not use.
	ccfg := counters.DefaultCollectConfig()
	ccfg.Seed = parallel.DeriveSeed(r.seed, 1)
	ccfg.Jobs = jobs
	col, err := counters.CollectSuite(workload.SuiteScaled(payloadScale), ccfg)
	if err != nil {
		return nil, fmt.Errorf("payload collection: %w", err)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	p, err := NewPayload(col)
	if err != nil {
		return nil, err
	}
	r.payload = p
	ref, err := NewReference(p, treeBytes, treePath)
	if err != nil {
		return nil, err
	}

	srv, err := r.startServers(treePath)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	r.metrics.set("setup_s", "s", Median(r.setups))

	plan, err := r.plan(p, srv)
	if err != nil {
		return nil, err
	}
	served, err := r.serve(plan, srv, ref)
	if err != nil {
		return nil, err
	}
	r.metrics.set("peak_rss_mb", "MB", served.OpenPeakRSSMB)
	r.e2e(plan, served)
	var transportUs float64
	if r.traced {
		if transportUs, err = transportRTT(srv.BaseURL); err != nil {
			return nil, err
		}
	}

	res := &Result{Attempted: served.attempted, Failed: served.failed}
	if !r.traced {
		r.metrics.set("pipeline_s", "s", pipe.PipelineS)
		r.metrics.set("cv_rae_pct", "%", 100*pipe.RAE)
		r.metrics.set("pipeline_rss_mb", "MB", pipe.rssMB)
		res.Metrics = r.metrics
		r.report(pipe, served, nil)
		return res, nil
	}
	lay, err := r.layers(p, ref, plan, served, pipe, transportUs)
	if err != nil {
		return nil, err
	}
	r.report(pipe, served, lay)
	res.Metrics = lay.metrics
	return res, nil
}

// pipelineRun is the pipeline process's result plus its peak RSS.
type pipelineRun struct {
	PipelineResult
	rssMB float64
}

// pipeline runs the offline path in its own process.
func (r *run) pipeline() (*pipelineRun, error) {
	out := filepath.Join(r.dir, "pipeline.gob")
	args := []string{"-role", "pipeline", "-seed", strconv.FormatInt(r.seed, 10), "-tree", filepath.Join(r.dir, "tree.bin"), "-out", out}
	if r.traced {
		args = append(args, "-spans", filepath.Join(r.traceDir, "pipeline.spans.jsonl"))
	}
	cmd := exec.CommandContext(r.ctx, r.self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pipeline process: %w", err)
	}
	pr := &pipelineRun{}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		pr.rssMB = float64(ru.Maxrss) / 1024
	}
	if err := readGob(out, &pr.PipelineResult); err != nil {
		return nil, err
	}
	if pr.RAE <= 0 || pr.RAE > 0.5 || pr.Correlation < 0.9 {
		r.fail("pipeline: implausible CV result RAE %.4f correlation %.4f", pr.RAE, pr.Correlation)
	}
	return pr, nil
}

// startServers starts the server setupStarts times, timing each start,
// and keeps the last one running. The coordinator first returns its
// free heap to the OS, so its background scavenger does not compete
// with the starts for the host's CPUs.
func (r *run) startServers(treePath string) (*serverProc, error) {
	debug.FreeOSMemory()
	for i := 1; ; i++ {
		srv, err := startServer(r.serveBin, treePath, filepath.Join(r.dir, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, srv.Setup.Seconds())
		if i == setupStarts {
			return srv, nil
		}
		srv.Stop()
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
	}
}
