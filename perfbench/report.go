package main

import (
	"fmt"
	"sort"
	"time"
)

// rateWindow splits the closed loop for max_rps: the median over
// windows of the completions in each, so a burst of host contention in
// one window cannot set the run's figure.
const rateWindow = time.Second

// e2e sets the end-to-end serve metrics from the raw records: p50_ms
// from the open loop's answered requests, max_rps from the closed
// loop's. The open loop's exact p99, with its sample count, is kept for
// the report and the traced run.
func (r *run) e2e(plan *Plan, sr *servedRun) {
	var lat, ones []float64
	var done []int64
	for i := range sr.Records {
		rec := &sr.Records[i]
		if rec.Status != 200 {
			continue
		}
		switch rec.Phase {
		case phaseOpen:
			lat = append(lat, ms(rec.Done-rec.Due))
		case phaseClosed:
			done = append(done, rec.Done)
			ones = append(ones, 1)
		}
	}
	q := Percentiles(lat, 0.5, 0.99)
	if q[1].Beyond < 10 {
		r.fail("only %d of %d open-loop samples lie beyond p99; need 10", q[1].Beyond, q[1].N)
	}
	r.metrics.set("p50_ms", "ms", q[0].Value)
	r.p99 = q[1]
	var rates []float64
	for _, win := range Windows(done, ones, sr.ClosedStart, int64(rateWindow), int(plan.Closed/rateWindow)) {
		rates = append(rates, float64(len(win))/rateWindow.Seconds())
	}
	r.metrics.set("max_rps", "req/s", Median(rates))
}

// report prints the human-readable summary that precedes the result
// line.
func (r *run) report(pipe *pipelineRun, sr *servedRun, lay *layerRun) {
	fmt.Printf("pipeline: %d sections, %d leaves, %.3fs: collect %.3fs (%.3f CPU-s) train %.3fs cv %.3fs; CV RAE %.2f%% C %.4f\n",
		pipe.Sections, pipe.Leaves, pipe.PipelineS, pipe.CollectS, pipe.CollectCPUS, pipe.TrainS, pipe.CVS, 100*pipe.RAE, pipe.Correlation)
	minRows, maxRows := len(r.payload.Rows), 0
	for _, ex := range r.payload.Execs {
		minRows, maxRows = min(minRows, len(ex.Rows)), max(maxRows, len(ex.Rows))
	}
	fmt.Printf("payload: %d held-out rows in %d executions of %d to %d sections\n",
		len(r.payload.Rows), len(r.payload.Execs), minRows, maxRows)
	q := Percentiles(r.setups, 0, 0.5, 1)
	fmt.Printf("setup: exec to healthy %.3f ms median over %d starts (min %.3f, max %.3f)\n",
		1e3*q[1].Value, len(r.setups), 1e3*q[0].Value, 1e3*q[2].Value)
	perPhase := map[uint8]int{}
	for i := range sr.Records {
		perPhase[sr.Records[i].Phase]++
	}
	fmt.Printf("serve %s: %d warm-up, %d open-loop at %.0f req/s, %d closed-loop; %d attempted, %d failed\n",
		r.workload, perPhase[phaseWarm], perPhase[phaseOpen], openRate[r.workload], perPhase[phaseClosed],
		sr.attempted, sr.failed)
	fmt.Printf("open-loop latency: p50 %.4g ms, p99 %.4g ms over %d samples, %d beyond p99\n",
		r.metrics["p50_ms"].Value, r.p99.Value, r.p99.N, r.p99.Beyond)
	hits, misses, hotRowShare := sr.cacheStats()
	fmt.Printf("prediction cache: %d hits, %d misses (hit ratio %.3f); hot-row share of single-row requests %.3f\n",
		hits, misses, ratio(float64(hits), float64(hits+misses)), hotRowShare)
	if r.workload == "stream" {
		fmt.Printf("stream: %d sessions over %d held-out sections; share of timed posts repeating a sent sample %.3f\n",
			streamSessions, len(r.payload.Rows), sr.repeatedPostShare(len(r.payload.Rows)))
	}
	printMetrics("end-to-end", r.metrics)
	if lay != nil {
		for _, rc := range lay.recon {
			fmt.Println("stage sum:", rc)
		}
		printMetrics("per-layer", lay.metrics)
	}
}

func printMetrics(title string, m Metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s  %-36s %14.6g %s\n", title, n, m[n].Value, m[n].Unit)
	}
}
