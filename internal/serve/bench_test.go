package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/counters"
	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/stream"
	"repro/internal/workload"
)

// BenchmarkServePredict measures the full request path — JSON decode,
// registry lookup, prediction, JSON encode — for a 64-row batch against
// a single tree and a 10-tree bagged ensemble.
func BenchmarkServePredict(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := ensemble.DefaultConfig()
	ecfg.Trees = 10
	ecfg.Tree = cfg
	bag, err := ensemble.Train(d, ecfg)
	if err != nil {
		b.Fatal(err)
	}

	body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 64))

	run := func(b *testing.B, m model.Model, scfg Config) {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", m, ""); err != nil {
			b.Fatal(err)
		}
		h := New(reg, scfg).Handler()
		if rec := post(h, "/v1/predict", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := post(h, "/v1/predict", body)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}

	scfg := Config{Jobs: 1, MaxBodyBytes: 1 << 22, MaxBatch: 4096}
	b.Run("tree", func(b *testing.B) { run(b, tree, scfg) })
	b.Run("ensemble", func(b *testing.B) { run(b, bag, scfg) })
}

// BenchmarkServePredictBatch measures the batch endpoint with the
// compiled batch kernel against the per-row fallback (a model wrapped
// so it hides Compilable/BatchPredictor), for a large batch where the
// kernel's amortization matters.
func BenchmarkServePredictBatch(b *testing.B) {
	d := perfData(4000, 11)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 8
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ecfg := ensemble.DefaultConfig()
	ecfg.Trees = 10
	ecfg.Tree = cfg
	bag, err := ensemble.Train(d, ecfg)
	if err != nil {
		b.Fatal(err)
	}

	body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 256))
	scfg := Config{Jobs: 1, MaxBodyBytes: 1 << 22, MaxBatch: 4096}

	run := func(b *testing.B, m model.Model) {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", m, ""); err != nil {
			b.Fatal(err)
		}
		h := New(reg, scfg).Handler()
		if rec := post(h, "/v1/predict", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := post(h, "/v1/predict", body)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
		b.ReportMetric(float64(b.N*256)/b.Elapsed().Seconds(), "rows/s")
	}

	b.Run("tree-kernel", func(b *testing.B) { run(b, tree) })
	b.Run("tree-fallback", func(b *testing.B) { run(b, plainModel{tree}) })
	b.Run("ensemble-kernel", func(b *testing.B) { run(b, bag) })
	b.Run("ensemble-fallback", func(b *testing.B) { run(b, plainModel{bag}) })
}

// BenchmarkServeConcurrentPredict measures the request path under
// concurrent clients (run with -cpu 1,4,8 to see core scaling): every
// goroutine posts single-row predictions against the same model, so
// the atomic histogram and the endpoint counters are on the contended
// path. The parallelism under test is request concurrency.
func BenchmarkServeConcurrentPredict(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig()
	scfg.Jobs = 1
	scfg.RequestTimeout = 0
	h := New(reg, scfg).Handler()

	bodies := make([]string, 64)
	for i := range bodies {
		row, _ := json.Marshal(d.Row(i))
		bodies[i] = fmt.Sprintf(`{"model":"cpi","row":%s}`, row)
	}
	if rec := post(h, "/v1/predict", bodies[0]); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec := post(h, "/v1/predict", bodies[i&63])
			i++
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}

// BenchmarkServeConcurrentStream measures /v1/stream under concurrent
// producers of the SAME model, each on its own session (run with
// -cpu 1,4,8). Before sessions were sharded this serialized on the
// model's one session lock — held across the response write — so the
// benchmark pins the scaling the shard table buys.
func BenchmarkServeConcurrentStream(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig()
	scfg.Jobs = 1
	scfg.Stream.Window = 16
	h := New(reg, scfg).Handler()

	// Pre-render the trace as 16-line request chunks.
	const chunkLines = 16
	lines := strings.Split(strings.TrimSuffix(streamTrace(256, 128, 1000, 0, 9), "\n"), "\n")
	var chunks []string
	for i := 0; i+chunkLines <= len(lines); i += chunkLines {
		chunks = append(chunks, strings.Join(lines[i:i+chunkLines], "\n")+"\n")
	}

	var sid atomic.Uint64
	b.ReportAllocs()
	b.SetBytes(int64(len(chunks[0])))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		path := fmt.Sprintf("/v1/stream?model=cpi&session=g%d", sid.Add(1))
		i := 0
		for pb.Next() {
			rec := postNDJSON(h, path, chunks[i%len(chunks)])
			i++
			if rec.Code != http.StatusOK {
				b.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	})
}

// BenchmarkServeStream measures the /v1/stream request path in the
// shape of the repository benchmark's stream workload: 16-sample posts
// round-robin over 64 sessions, each sample carrying the full event
// schema of a real (small) simulator collection plus its observed CPI.
// With a couple of dozen events per sample, the NDJSON decode and the
// event encode weigh against scoring as they do in production.
func BenchmarkServeStream(b *testing.B) {
	const postLines, sessions = 16, 64
	col, reg := suiteModel(b)
	d := col.Data
	scfg := DefaultConfig()
	scfg.Jobs = 1
	h := New(reg, scfg).Handler()

	var lines []string
	attrs, target := d.Attrs(), d.TargetIndex()
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		events := make(map[string]float64, len(row)-1)
		for j, v := range row {
			if j != target {
				events[attrs[j].Name] = v
			}
		}
		cpi := row[target]
		line, err := json.Marshal(stream.Sample{
			Bench: col.Labels[i].Benchmark, Section: col.Labels[i].Section, Events: events, CPI: &cpi})
		if err != nil {
			b.Fatal(err)
		}
		lines = append(lines, string(line)+"\n")
	}
	var posts []string
	for i := 0; i+postLines <= len(lines); i += postLines {
		posts = append(posts, strings.Join(lines[i:i+postLines], ""))
	}
	paths := make([]string, sessions)
	for i := range paths {
		paths[i] = fmt.Sprintf("/v1/stream?model=cpi&session=s%d", i)
	}

	b.ReportAllocs()
	b.SetBytes(int64(len(posts[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := postNDJSON(h, paths[i%sessions], posts[i%len(posts)])
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(b.N*postLines)/b.Elapsed().Seconds(), "samples/s")
}

// suiteModel collects a small simulator suite (a real 21-attribute
// event schema) and registers a tree trained on it as cpi@v1.
func suiteModel(b *testing.B) (*counters.Collection, *Registry) {
	b.Helper()
	col, err := counters.CollectSuite(workload.SuiteScaled(0.05), counters.DefaultCollectConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 20
	tree, err := mtree.Build(col.Data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		b.Fatal(err)
	}
	return col, reg
}

// BenchmarkServePredictShapes measures /v1/predict and /v1/classify in
// the request shapes of the repository benchmark's predict workload, at
// the default Config: execution-sized 260-row "rows" batches with and
// without contributions, and single-row "events" bodies naming every
// event, predicted and classified. Each shape cycles through bodies
// built from different rows.
func BenchmarkServePredictShapes(b *testing.B) {
	col, reg := suiteModel(b)
	d := col.Data
	h := New(reg, DefaultConfig()).Handler()
	attrs, target := d.Attrs(), d.TargetIndex()
	const batchRows = 260
	var batches, contribBatches, singles []string
	for i := 0; i < 8; i++ {
		rows := make([][]float64, batchRows)
		for j := range rows {
			rows[j] = d.Row((i*batchRows + j) % d.Len())
		}
		for _, contrib := range []bool{false, true} {
			body, err := json.Marshal(predictRequest{Model: "cpi", Rows: rows, Contributions: contrib})
			if err != nil {
				b.Fatal(err)
			}
			if contrib {
				contribBatches = append(contribBatches, string(body))
			} else {
				batches = append(batches, string(body))
			}
		}
	}
	for i := 0; i < d.Len(); i++ {
		events := make(map[string]float64, len(attrs)-1)
		for j, v := range d.Row(i) {
			if j != target {
				events[attrs[j].Name] = v
			}
		}
		body, err := json.Marshal(predictRequest{Model: "cpi", Events: []map[string]float64{events}})
		if err != nil {
			b.Fatal(err)
		}
		singles = append(singles, string(body))
	}
	run := func(path string, bodies []string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bodies[0])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := post(h, path, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		}
	}
	b.Run("batch", run("/v1/predict", batches))
	b.Run("batch-contributions", run("/v1/predict", contribBatches))
	b.Run("single-events", run("/v1/predict", singles))
	b.Run("classify", run("/v1/classify", singles))
}
