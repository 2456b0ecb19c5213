package loadgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/mtree"
	"repro/internal/serve"
)

// perfData builds a small CPI-like dataset (same shape as the serve
// package's fixtures) for an in-process target model.
func perfData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < n; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		y := 0.6 + 7*l1 + 0.02*rng.NormFloat64()
		if l2 > 0.002 {
			y = 1.1 + 90*l2 + 40*dt + 0.02*rng.NormFloat64()
		}
		d.MustAppend(dataset.Instance{y, l1, l2, dt})
	}
	return d
}

// newTarget starts an in-process serve server with a tree registered
// as cpi@v1 and returns its base URL.
func newTarget(t *testing.T) string {
	t.Helper()
	d := perfData(1200, 5)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, serve.DefaultConfig()).Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

var testSchema = loadgen.Schema{
	Attrs:  []string{"CPI", "L1IM", "L2M", "DtlbLdM"},
	Target: "CPI",
}

// testTraceConfig returns a short runnable config.
func testTraceConfig(mode loadgen.Mode) loadgen.TraceConfig {
	cfg := loadgen.DefaultTraceConfig()
	cfg.Mode = mode
	cfg.Seed = 42
	cfg.Duration = 600 * time.Millisecond
	cfg.RPS = 150
	cfg.EndRPS = 300
	cfg.Steps = 3
	cfg.BurstFactor = 3
	cfg.BurstPeriod = 200 * time.Millisecond
	cfg.BurstLen = 50 * time.Millisecond
	cfg.Sessions = 4
	cfg.BatchSize = 16
	cfg.StreamBatch = 8
	cfg.Model = "cpi"
	cfg.Schema = testSchema
	return cfg
}

// TestSynthesizeDeterministic pins the reproducibility contract: same
// seed and config yield a byte-identical trace; a different seed does
// not.
func TestSynthesizeDeterministic(t *testing.T) {
	cfg := testTraceConfig(loadgen.ModeSteady)
	a, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Requests)
	jb, _ := json.Marshal(b.Requests)
	if !bytes.Equal(ja, jb) {
		t.Fatal("same seed and config produced different traces")
	}

	cfg.Seed = 43
	c, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c.Requests)
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestCorruptPayloadProfile pins the corrupt stream profile: every
// synthesized stream sample carries exactly one negative event rate
// (the clean profile carries none), and replaying such a trace drives
// the target server's stream sessions to a refuted verdict with the
// violated non-negativity relations counted in its metrics.
func TestCorruptPayloadProfile(t *testing.T) {
	cfg := testTraceConfig(loadgen.ModeSteady)
	cfg.Mix = loadgen.Mix{Stream: 1}
	cfg.Payload = loadgen.PayloadCorrupt
	tr, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	countNegatives := func(tr *loadgen.Trace) (samples, negatives int, perSampleViolated bool) {
		perSampleViolated = true
		for _, req := range tr.Requests {
			for _, line := range bytes.Split(bytes.TrimSpace(req.Body), []byte("\n")) {
				var s struct {
					Events map[string]float64 `json:"events"`
				}
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatalf("stream sample line %q: %v", line, err)
				}
				samples++
				neg := 0
				for _, v := range s.Events {
					if v < 0 {
						neg++
					}
				}
				negatives += neg
				if neg != 1 {
					perSampleViolated = false
				}
			}
		}
		return
	}
	samples, negatives, each := countNegatives(tr)
	if !each || negatives != samples {
		t.Errorf("corrupt profile: %d negative events over %d samples (want exactly one per sample)",
			negatives, samples)
	}

	cfg.Payload = loadgen.PayloadClean
	clean, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, negatives, _ := countNegatives(clean); negatives != 0 {
		t.Errorf("clean profile produced %d negative events", negatives)
	}

	// Replaying the corrupt trace must refute every session it touches.
	base := newTarget(t)
	rcfg := loadgen.DefaultRunConfig(base)
	if _, err := loadgen.Run(context.Background(), tr, rcfg); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Streams struct {
			Sessions           int               `json:"sessions"`
			Refuted            int               `json:"refute_refuted_sessions"`
			RelationViolations map[string]uint64 `json:"refute_relation_violations"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Streams.Sessions == 0 || m.Streams.Refuted != m.Streams.Sessions {
		t.Errorf("%d of %d sessions refuted, want all", m.Streams.Refuted, m.Streams.Sessions)
	}
	if len(m.Streams.RelationViolations) == 0 {
		t.Error("no per-relation violation counters after a corrupt run")
	}
	for rel := range m.Streams.RelationViolations {
		if !strings.HasPrefix(rel, "nonneg-") {
			t.Errorf("unexpected violated relation %q (corruption only negates events)", rel)
		}
	}
}

// TestSynthesizeShape checks structural invariants across all four
// modes: arrivals inside the window and sorted, payload kinds follow
// the mix, counts in the right ballpark for the offered rate.
func TestSynthesizeShape(t *testing.T) {
	for _, mode := range []loadgen.Mode{loadgen.ModeSteady, loadgen.ModeRamp, loadgen.ModeSweep, loadgen.ModeBurst} {
		cfg := testTraceConfig(mode)
		cfg.Duration = 2 * time.Second
		tr, err := loadgen.Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(tr.Requests) == 0 {
			t.Fatalf("%s: empty trace", mode)
		}
		// Expected count: integral of rate over the window. All modes
		// here offer between RPS and EndRPS*BurstFactor; just sanity
		// check the order of magnitude.
		n := len(tr.Requests)
		if n < 100 || n > 3000 {
			t.Errorf("%s: %d requests for ~2s at 150-300 rps", mode, n)
		}
		kinds := map[string]int{}
		last := time.Duration(-1)
		for _, r := range tr.Requests {
			if r.At < last || r.At >= cfg.Duration {
				t.Fatalf("%s: arrival %v out of order or window", mode, r.At)
			}
			last = r.At
			kinds[r.Kind]++
			if len(r.Body) == 0 {
				t.Fatalf("%s: empty body for %s", mode, r.Kind)
			}
		}
		for _, k := range []string{loadgen.KindPredict, loadgen.KindBatch, loadgen.KindClassify, loadgen.KindStream} {
			if kinds[k] == 0 {
				t.Errorf("%s: mix kind %s absent from %d requests", mode, k, n)
			}
		}
	}

	// Zero-weight kinds must be absent.
	cfg := testTraceConfig(loadgen.ModeSteady)
	cfg.Mix = loadgen.Mix{Predict: 1}
	tr, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		if r.Kind != loadgen.KindPredict {
			t.Fatalf("zero-weight kind %s synthesized", r.Kind)
		}
	}
}

// TestRampIncreasesRate: a ramp trace has more arrivals in its second
// half than its first.
func TestRampIncreasesRate(t *testing.T) {
	cfg := testTraceConfig(loadgen.ModeRamp)
	cfg.Duration = 2 * time.Second
	cfg.RPS = 50
	cfg.EndRPS = 500
	tr, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := cfg.Duration / 2
	first, second := 0, 0
	for _, r := range tr.Requests {
		if r.At < half {
			first++
		} else {
			second++
		}
	}
	if second <= first*2 {
		t.Errorf("ramp 50->500 rps: %d arrivals in first half, %d in second", first, second)
	}
}

// TestRunEndToEnd is the acceptance check: replay a steady mixed trace
// against an in-process server, then require a clean error budget and
// an exact client-vs-server counter match.
func TestRunEndToEnd(t *testing.T) {
	base := newTarget(t)
	tr, err := loadgen.Synthesize(testTraceConfig(loadgen.ModeSteady))
	if err != nil {
		t.Fatal(err)
	}

	before, err := loadgen.FetchMetrics(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.DefaultRunConfig(base)
	cfg.Workers = 16
	rep, err := loadgen.Run(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loadgen.FetchMetrics(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Validate(rep, before, after)

	if rep.Totals.Offered != len(tr.Requests) {
		t.Errorf("offered %d != trace %d", rep.Totals.Offered, len(tr.Requests))
	}
	accounted := rep.Totals.Responses + rep.Totals.TransportErrors +
		rep.Totals.DroppedLate + rep.Totals.RejectedQueue
	if accounted != rep.Totals.Offered {
		t.Errorf("accounting leak: %d accounted of %d offered (%+v)",
			accounted, rep.Totals.Offered, rep.Totals)
	}
	if rep.Totals.Errors != 0 || rep.Totals.TransportErrors != 0 {
		t.Errorf("unexpected errors against a healthy server: %+v (%v)",
			rep.Totals, rep.Endpoints["predict"].ErrorsByCode)
	}
	if rep.Totals.OK == 0 || rep.Totals.AchievedRPS <= 0 {
		t.Errorf("no completed work: %+v", rep.Totals)
	}
	for kind, ep := range rep.Endpoints {
		if ep.OK > 0 && (ep.Latency.P50Ms <= 0 || ep.Latency.P99Ms < ep.Latency.P50Ms ||
			ep.Latency.MaxMs < ep.Latency.P99Ms) {
			t.Errorf("%s: implausible latency %+v", kind, ep.Latency)
		}
	}

	if rep.Validation == nil || !rep.Validation.Exact {
		t.Fatalf("validation not exact: %+v", rep.Validation)
	}
	if !rep.Validation.Consistent {
		t.Fatalf("client and server counters disagree: %+v", rep.Validation.Checks)
	}
	for _, c := range rep.Validation.Checks {
		if c.Counter == "requests" && c.Client == 0 {
			t.Errorf("route %s validated zero requests — vacuous check", c.Route)
		}
	}
}

// TestRunAllModes smoke-tests replay in every mode.
func TestRunAllModes(t *testing.T) {
	base := newTarget(t)
	for _, mode := range []loadgen.Mode{loadgen.ModeSteady, loadgen.ModeRamp, loadgen.ModeSweep, loadgen.ModeBurst} {
		cfg := testTraceConfig(mode)
		cfg.Duration = 300 * time.Millisecond
		cfg.RPS = 80
		cfg.EndRPS = 160
		tr, err := loadgen.Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		rep, err := loadgen.Run(context.Background(), tr, loadgen.DefaultRunConfig(base))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rep.Totals.OK == 0 {
			t.Errorf("%s: no completed requests", mode)
		}
		if rep.Totals.Errors != 0 || rep.Totals.TransportErrors != 0 {
			t.Errorf("%s: errors in smoke run: %+v", mode, rep.Totals)
		}
	}
}

// TestErrorClassification: traffic addressed at a missing model comes
// back classified under the API's "not_found" code, and the counter
// cross-check still matches exactly (the server counted those errors
// too).
func TestErrorClassification(t *testing.T) {
	base := newTarget(t)
	cfg := testTraceConfig(loadgen.ModeSteady)
	cfg.Duration = 300 * time.Millisecond
	cfg.RPS = 100
	cfg.Model = "ghost"
	tr, err := loadgen.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}

	before, err := loadgen.FetchMetrics(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(context.Background(), tr, loadgen.DefaultRunConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	after, err := loadgen.FetchMetrics(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.Validate(rep, before, after)

	if rep.Totals.OK != 0 || rep.Totals.Errors == 0 {
		t.Fatalf("expected all-error run: %+v", rep.Totals)
	}
	if rep.Totals.ErrorBudget != 1 {
		t.Errorf("error budget %v, want 1", rep.Totals.ErrorBudget)
	}
	for kind, ep := range rep.Endpoints {
		if ep.ErrorsByCode["not_found"] != ep.Errors {
			t.Errorf("%s: errors %d but not_found %d (%v)", kind, ep.Errors, ep.ErrorsByCode["not_found"], ep.ErrorsByCode)
		}
	}
	if rep.Validation == nil || !rep.Validation.Consistent || !rep.Validation.Exact {
		t.Fatalf("error traffic must still cross-validate: %+v", rep.Validation)
	}
}

// TestFetchModelInfo exercises the detail-driven payload shaping path.
func TestFetchModelInfo(t *testing.T) {
	base := newTarget(t)
	info, err := loadgen.FetchModelInfo(nil, base, "cpi")
	if err != nil {
		t.Fatal(err)
	}
	if info.Target != "CPI" || len(info.Attrs) != 4 || !info.Classifiable {
		t.Errorf("model info: %+v", info)
	}
	if info.Evaluator != "compiled" {
		t.Errorf("evaluator %q, want compiled", info.Evaluator)
	}
	if _, err := loadgen.FetchModelInfo(nil, base, "ghost"); err == nil {
		t.Error("missing model did not error")
	}

	// The fetched schema must synthesize a runnable trace.
	cfg := testTraceConfig(loadgen.ModeSteady)
	cfg.Schema = loadgen.Schema{Attrs: info.Attrs, Target: info.Target}
	if _, err := loadgen.Synthesize(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseMixAndMode(t *testing.T) {
	m, err := loadgen.ParseMix("predict=6,batch=2,classify=1,stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (loadgen.Mix{Predict: 6, Batch: 2, Classify: 1, Stream: 1}) {
		t.Errorf("mix: %+v", m)
	}
	for _, bad := range []string{"", "predict", "predict=x", "bogus=1", "predict=0,batch=0"} {
		if _, err := loadgen.ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if _, err := loadgen.ParseMode("steady"); err != nil {
		t.Error(err)
	}
	if _, err := loadgen.ParseMode("warp"); err == nil {
		t.Error("ParseMode accepted warp")
	}
}

// TestValidateMismatch exercises the mismatch and inexact paths with
// synthetic snapshots.
func TestValidateMismatch(t *testing.T) {
	rep := &loadgen.Report{
		Endpoints: map[string]*loadgen.EndpointReport{
			"predict": {Route: "/v1/predict", Responses: 5, Errors: 1},
		},
	}
	mk := func(req, errs uint64) *loadgen.ServerMetrics {
		m := &loadgen.ServerMetrics{Endpoints: map[string]struct {
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
		}{}}
		m.Endpoints["/v1/predict"] = struct {
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
		}{Requests: req, Errors: errs}
		return m
	}
	loadgen.Validate(rep, mk(10, 0), mk(14, 1)) // server saw 4, client 5
	if rep.Validation.Consistent {
		t.Error("mismatch not detected")
	}

	rep.Totals.TransportErrors = 1
	loadgen.Validate(rep, mk(0, 0), mk(5, 1))
	if rep.Validation.Exact || rep.Validation.Note == "" {
		t.Error("transport errors must downgrade validation to inexact")
	}
}
