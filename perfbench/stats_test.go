package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentilesNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: Percentiles must sort
	}
	q := Percentiles(xs, 0.5, 0.99, 1)
	want := []Quantile{{500, 1000, 500}, {990, 1000, 10}, {1000, 1000, 0}}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("quantile %d = %+v, want %+v", i, q[i], want[i])
		}
	}
	if xs[0] != 1000 {
		t.Error("Percentiles reordered its input")
	}
}

func TestPercentilesSmallSamples(t *testing.T) {
	// With 100 samples only one lies beyond p99: too few to report.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if q := Percentiles(xs, 0.99)[0]; q.Value != 98 || q.Beyond != 1 {
		t.Errorf("p99 of 0..99 = %+v, want value 98 with 1 beyond", q)
	}
	if q := Percentiles([]float64{7}, 0.5, 0.99); q[0].Value != 7 || q[1].Value != 7 {
		t.Errorf("single sample quantiles %+v", q)
	}
	if q := Percentiles(nil, 0.5)[0]; !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("empty sample quantile %+v, want NaN", q)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := Mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean %v", m)
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Mean(nil)) {
		t.Error("empty median/mean should be NaN")
	}
}

func span(id, parent int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		// Overlapping children count once; the part past the parent's
		// end is ignored.
		span(2, 1, 10, 30), span(3, 1, 20, 50), span(4, 1, 90, 120),
		// A grandchild is charged to its own parent only.
		span(5, 2, 12, 18),
		span(6, 0, 200, 210),
	}
	got := SelfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	if id := tr.Start("x", 0); id != 0 {
		t.Errorf("nil tracer Start = %d", id)
	}
	tr.End(0)
	if tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}
}

func TestTracerStartEnd(t *testing.T) {
	tr := NewTracer(time.Now())
	root := tr.Start("root", 0)
	child := tr.Add("child", "req-1", root, time.Now(), time.Now())
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].ID != child || spans[1].Req != "req-1" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[0].Start > spans[1].Start {
		t.Errorf("root %+v does not enclose child %+v", spans[0], spans[1])
	}
}

func TestReconcile(t *testing.T) {
	r := Reconcile("predict", "us", 100, Stage{"transport", 30}, Stage{"handler", 50})
	if r.Sum != 80 || r.Remainder != 20 || r.RemainderPct != 20 {
		t.Errorf("reconciliation %+v", r)
	}
	// Isolated stages that cost more than the whole leave a negative
	// remainder; it is reported, not clamped.
	r = Reconcile("stream", "us", 100, Stage{"decode", 70}, Stage{"ingest", 40})
	if r.Remainder != -10 || r.RemainderPct != -10 {
		t.Errorf("negative remainder %+v", r)
	}
	if r := Reconcile("none", "s", 0); r.RemainderPct != 0 {
		t.Errorf("zero end-to-end gives %v%%", r.RemainderPct)
	}
}

func TestWindows(t *testing.T) {
	at := []int64{5, 10, 19, 20, 35, 40, 41}
	vals := []float64{0, 1, 2, 3, 4, 5, 6}
	// Three windows of width 10 from 10: [10,20) [20,30) [30,40); the
	// samples at 5, 40 and 41 fall outside.
	got := Windows(at, vals, 10, 10, 3)
	want := [][]float64{{1, 2}, {3}, {4}}
	if len(got) != len(want) {
		t.Fatalf("%d windows", len(got))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("window %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("window %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}
