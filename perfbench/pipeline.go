package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mtree"
	"repro/internal/parallel"
	"repro/internal/workload"
)

const (
	pipelineScale = 1.0 // the full suite, as the paper trains on
	cvFolds       = 10
)

// PipelineResult is what the pipeline process hands back.
type PipelineResult struct {
	// PipelineS is the offline user's wait: collection, build and cross
	// validation, end to end.
	PipelineS             float64
	CollectS, TrainS, CVS float64
	// CollectCPUS is the CPU time the collection consumed.
	CollectCPUS      float64
	RAE, Correlation float64
	Sections, Leaves int
	// Traced runs only: per-benchmark CollectBenchmark spans, per-fold
	// Learner.Train spans, the cross validation's self time (its span
	// minus the time fold trainings cover), and how many simulated
	// instructions the collection retired.
	BenchBusyS []float64
	FoldTrainS []float64
	CVSelfS    float64
	Insts      uint64
}

// runPipeline is the offline user's path in one process: collect the
// suite on the simulator, build the paper's M5' tree, cross-validate
// it, and save the tree (binary format) for the server to load.
func runPipeline(seed int64, treePath, outPath, spansPath string) error {
	jobs := runtime.NumCPU()
	var tr *Tracer
	if spansPath != "" {
		tr = NewTracer(time.Now())
	}
	root := tr.Start("pipeline", 0)
	suite := workload.SuiteScaled(pipelineScale)
	// The training corpus is the repository's standard collection (the
	// default workload seed), the same in every run; the run's seed
	// draws only the cross-validation folds (and, in the coordinator,
	// the held-out payload and the traffic). cv_rae_pct is therefore
	// deterministic per seed and moves only when behaviour changes.
	ccfg := counters.DefaultCollectConfig()
	ccfg.Jobs = jobs
	var res PipelineResult

	span := tr.Start("counters.CollectSuite", root)
	cpu0 := selfCPU()
	start := time.Now()
	var col *counters.Collection
	var err error
	if tr == nil {
		col, err = counters.CollectSuite(suite, ccfg)
	} else {
		col, res.BenchBusyS, err = tracedCollect(tr, span, suite, ccfg)
		for _, b := range suite {
			res.Insts += uint64(b.TotalSections()) * ccfg.SectionLen
		}
	}
	if err != nil {
		return err
	}
	res.CollectS = time.Since(start).Seconds()
	res.CollectCPUS = (selfCPU() - cpu0).Seconds()
	tr.End(span)
	res.Sections = col.Data.Len()

	tcfg := mtree.PaperConfig()
	tcfg.Jobs = jobs
	span = tr.Start("mtree.Build", root)
	t0 := time.Now()
	tree, err := mtree.Build(col.Data, tcfg)
	if err != nil {
		return err
	}
	res.TrainS = time.Since(t0).Seconds()
	tr.End(span)
	tree.Machine = ccfg.Machine
	res.Leaves = tree.NumLeaves()

	span = tr.Start("eval.CrossValidate", root)
	learner := eval.LearnerFunc{N: "M5'", F: func(d *dataset.Dataset) (eval.Regressor, error) {
		fold := tr.Start("eval.Learner.Train", span)
		defer tr.End(fold)
		return mtree.Build(d, tcfg)
	}}
	t0 = time.Now()
	cv, err := eval.CrossValidate(learner, col.Data, cvFolds, seed, parallel.Config{Jobs: jobs})
	if err != nil {
		return err
	}
	res.CVS = time.Since(t0).Seconds()
	res.PipelineS = time.Since(start).Seconds()
	tr.End(span)
	tr.End(root)
	res.CVSelfS = SelfTimes(tr.Spans())[span].Seconds()
	for _, s := range tr.Spans() {
		if s.Name == "eval.Learner.Train" {
			res.FoldTrainS = append(res.FoldTrainS, s.Dur().Seconds())
		}
	}
	res.RAE, res.Correlation = cv.Pooled.RAE, cv.Pooled.Correlation

	f, err := os.Create(treePath)
	if err != nil {
		return err
	}
	if err := tree.WriteBinary(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", treePath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if tr != nil {
		if err := writeSpans(spansPath, tr.Spans()); err != nil {
			return err
		}
	}
	return writeGob(outPath, &res)
}

// tracedCollect is counters.CollectSuite with a span around each
// benchmark's CollectBenchmark call: the same ordered fan-out and
// merge, so the collection is identical to the untraced one.
func tracedCollect(tr *Tracer, parent int, suite []workload.Benchmark, cfg counters.CollectConfig) (*counters.Collection, []float64, error) {
	busy := make([]float64, len(suite))
	cols, err := parallel.Map(parallel.Config{Jobs: cfg.Jobs}, suite,
		func(i int, b workload.Benchmark) (*counters.Collection, error) {
			start := time.Now()
			col, err := counters.CollectBenchmark(b, cfg)
			end := time.Now()
			tr.Add("counters.CollectBenchmark "+b.Name, "", parent, start, end)
			busy[i] = end.Sub(start).Seconds()
			return col, err
		})
	if err != nil {
		return nil, nil, err
	}
	all := &counters.Collection{Data: counters.NewDataset()}
	for i, col := range cols {
		if err := all.Data.Merge(col.Data); err != nil {
			return nil, nil, fmt.Errorf("merging %s: %w", suite[i].Name, err)
		}
		all.Labels = append(all.Labels, col.Labels...)
	}
	return all, busy, nil
}

// writeSpans writes a process's spans to its own JSONL trace file.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfCPU is the process's consumed user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
