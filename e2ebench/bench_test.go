package main

import (
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tencentrec"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	a := newGenerator(7, "r0").stream(5000)
	b := newGenerator(7, "r0").stream(5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := newGenerator(8, "r0").stream(5000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	if subSeed(7, "f") == subSeed(8, "f") || subSeed(7, "f") == subSeed(7, "p") {
		t.Fatal("sub-seeds collide")
	}
	q1, q2 := newQueryGen(3, 6, 3, 1), newQueryGen(3, 6, 3, 1)
	for i := 0; i < 1000; i++ {
		e1, p1 := q1.next()
		e2, p2 := q2.next()
		if e1 != e2 || p1 != p2 {
			t.Fatalf("query %d differs: %s %s vs %s %s", i, e1, p1, e2, p2)
		}
	}
}

func TestStreamShape(t *testing.T) {
	g := newGenerator(1, "x")
	s := g.stream(50000)
	checks := 0
	for _, a := range s {
		if strings.HasPrefix(a.User, "chk-u-") {
			checks++
		}
	}
	// One check pair (two actions) in about every checkEvery-th slot.
	if n := len(g.checks); n < 50000/checkEvery/2 || n > 50000/checkEvery*2 || checks != 2*n {
		t.Fatalf("%d check pairs, %d check actions in %d slots", n, checks, len(s))
	}
	seen := map[string]bool{}
	for _, c := range g.checks {
		if seen[c.X] || seen[c.Y] || seen[c.User] {
			t.Fatalf("check pair %+v reuses an identifier", c)
		}
		seen[c.X], seen[c.Y], seen[c.User] = true, true, true
	}
}

func TestPercentileSupport(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := newDist(xs)
	if d.n() != 1000 || d.q(0.5) != 500 || d.q(0.99) != 990 {
		t.Fatalf("n %d p50 %v p99 %v", d.n(), d.q(0.5), d.q(0.99))
	}
	// 1000 samples leave exactly 10 beyond p99.
	if got := d.supported(); got != 0.99 {
		t.Fatalf("supported %v, want 0.99", got)
	}
	if got := newDist(xs[:999]).supported(); got >= 0.99 {
		t.Fatalf("999 samples support %v, must be below p99", got)
	}
	if got := newDist(xs[:10]).supported(); got != 0 {
		t.Fatalf("10 samples support %v, want 0", got)
	}
	r := newReport()
	r.setPct("x_p99_ms", newDist(xs[:500]), 0.99, "ms")
	r.setPct("y_p99_ms", d, 0.99, "ms")
	if u := r.unsupported(); !reflect.DeepEqual(u, []string{"x_p99_ms"}) {
		t.Fatalf("unsupported = %v", u)
	}
	if r.info["x_p99_ms"].Samples != 500 {
		t.Fatalf("sample count not reported: %+v", r.info["x_p99_ms"])
	}
}

// fakeInstance serves every GET with the given list.
func fakeInstance(list string) *instance {
	return &instance{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(list))
	})}
}

func TestProbePastLimitFails(t *testing.T) {
	want := []tencentrec.ScoredItem{{Item: "y", Score: 1}}
	p := newPass(t.TempDir(), "fresh", 1, 1, 1, false)
	in := fakeInstance(`[]`)
	late := &probe{c: checkPair{X: "x", Y: "y"}, want: want, due: time.Now().Add(-probeLimit - time.Millisecond)}
	f, done := p.pollProbe(in, late)
	if !done || p.failed.Load() != 1 {
		t.Fatalf("done %v, failed %d; the probe past the limit must fail", done, p.failed.Load())
	}
	if f <= float64(probeLimit.Milliseconds()) {
		t.Fatalf("failed probe freshness %v ms", f)
	}
	recent := &probe{c: checkPair{X: "x", Y: "y"}, want: want, due: time.Now()}
	if _, done := p.pollProbe(in, recent); done || p.failed.Load() != 1 {
		t.Fatal("an unseen probe inside the limit is not outstanding")
	}

	p = newPass(t.TempDir(), "fresh", 1, 1, 1, false)
	seen := &probe{c: checkPair{X: "x", Y: "y"}, want: want, due: time.Now().Add(-50 * time.Millisecond)}
	f, done = p.pollProbe(fakeInstance(`[{"Item":"y","Score":1}]`), seen)
	if !done || p.failed.Load() != 0 || f < 50 {
		t.Fatalf("done %v, failed %d, fresh %v", done, p.failed.Load(), f)
	}
	// A wrong score is not a sighting.
	p = newPass(t.TempDir(), "fresh", 1, 1, 1, false)
	wrong := &probe{c: checkPair{X: "x", Y: "y"}, want: want, due: time.Now()}
	if _, done := p.pollProbe(fakeInstance(`[{"Item":"y","Score":0.5}]`), wrong); done {
		t.Fatal("a mis-scored probe counted as seen")
	}
}

// TestReadLoopSchedule: the read loop sends every query, polls each
// probe until it resolves, never acts before an event's scheduled time,
// and reports one freshness sample per probe.
func TestReadLoopSchedule(t *testing.T) {
	want := []tencentrec.ScoredItem{{Item: "y", Score: 1}}
	p := newPass(t.TempDir(), "fresh", 1, 1, 1, false)
	start := time.Now().Add(5 * time.Millisecond)
	var probes []*probe
	for i := 0; i < 3; i++ {
		due := start.Add(time.Duration(i) * probeEvery)
		probes = append(probes, &probe{c: checkPair{X: "x", Y: "y"}, want: want, due: due, next: due})
	}
	in := fakeInstance(`[{"Item":"y","Score":1}]`)
	pace, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer pace.close()
	qw, fresh, polls, late := p.readLoop(in, pace, newQueryGen(1, 7, 3, 0), probes, start, 0.05)
	if len(qw.lat) != freshQPS/20 || len(late) != len(qw.lat) {
		t.Fatalf("%d queries, %d lateness samples; want %d", len(qw.lat), len(late), freshQPS/20)
	}
	if len(fresh) != len(probes) || polls != len(probes) || p.failed.Load() != 0 {
		t.Fatalf("fresh %v after %d polls, %d failed", fresh, polls, p.failed.Load())
	}
	for i, l := range late {
		if l < 0 {
			t.Fatalf("query %d sent %v ms early", i, -l)
		}
	}
	for _, f := range fresh {
		if f < 0 {
			t.Fatalf("probe polled before its due time: %v ms", f)
		}
	}
}

// TestPacerWaits: a pacer never returns before the time it waits for.
func TestPacerWaits(t *testing.T) {
	pace, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer pace.close()
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond} {
		at := time.Now().Add(d)
		pace.waitUntil(at)
		if early := at.Sub(time.Now()); early > 0 {
			t.Fatalf("waitUntil(+%v) returned %v early", d, early)
		}
		at = time.Now().Add(d)
		pace.sleepUntil(at)
		if early := at.Sub(time.Now()); early > 0 {
			t.Fatalf("sleepUntil(+%v) returned %v early", d, early)
		}
	}
}

func TestChunks(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := chunks(xs, 3)
	if len(got) != 3 || len(got[0])+len(got[1])+len(got[2]) != len(xs) || got[2][len(got[2])-1] != 7 {
		t.Fatalf("chunks %v", got)
	}
}

func TestCheckPairOracleMatchesLibrary(t *testing.T) {
	w := tencentrec.DefaultWeights()
	g := newGenerator(5, "o")
	s := g.stream(20000)
	orc := newOracle()
	orc.observeAll(s)
	lib := tencentrec.NewRecommender(tencentrec.RecommenderConfig{})
	for i, a := range s {
		lib.Observe(tencentrec.NewAction(a.User, a.Item, a.Type, time.Unix(int64(i), 0)))
	}
	for _, c := range g.checks {
		got := orc.expect(c)
		wx, wy := w[c.TX], w[c.TY]
		score := math.Min(wx, wy) / math.Sqrt(wx*wy)
		if len(got) != 1 || got[0].Item != c.Y || math.Abs(got[0].Score-score) > scoreTol {
			t.Fatalf("oracle for %+v = %v, want [%s %v]", c, got, c.Y, score)
		}
		if !sameList(got, lib.SimilarItems(c.X, 10)) {
			t.Fatalf("oracle and library disagree on %s", c.X)
		}
	}
}

// TestBarrierAndChecksOnSystem drives a real System: after the
// completion barrier every check pair is served with the library's
// score, and a tampered expectation is caught.
func TestBarrierAndChecksOnSystem(t *testing.T) {
	p := newPass(t.TempDir(), "replay", 1, 1, 1, false)
	in, err := newInstance(filepath.Join(t.TempDir(), "sys"), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	g := newGenerator(9, "t")
	s := g.stream(3000)
	orc := newOracle()
	orc.observeAll(s)
	first := time.Now()
	last, rate, fresh, err := p.ingest(in, s, g.checks, orc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed time ends at the last counter change, not at the end of
	// the quiet window the barrier waited out after it.
	if !last.After(first) || time.Since(last) < quietWindow {
		t.Fatalf("last counter change %v after the first publish, %v before the barrier returned",
			last.Sub(first), time.Since(last))
	}
	if p.failed.Load() != 0 || len(g.checks) == 0 {
		t.Fatalf("%d of %d operations failed over %d check pairs", p.failed.Load(), p.attempted.Load(), len(g.checks))
	}
	if rate <= 0 || len(fresh) != len(s) {
		t.Fatalf("rate %v, %d freshness samples", rate, len(fresh))
	}
	c := g.checks[0]
	bad := []tencentrec.ScoredItem{{Item: c.Y, Score: orc.expect(c)[0].Score + 0.01}}
	_, list, err := in.similar(c.X)
	if err != nil || sameList(list, bad) {
		t.Fatalf("a mis-scored list passed the check: %v %v", list, err)
	}
}

func TestHistogramDelta(t *testing.T) {
	s0 := parseExposition([]byte(`# TYPE h_seconds histogram
h_seconds_bucket{op="a",le="1"} 1
h_seconds_bucket{op="a",le="+Inf"} 1
h_seconds_sum{op="a"} 0.5
h_seconds_count{op="a"} 1
`))
	s1 := parseExposition([]byte(`h_seconds_bucket{op="a",le="1"} 1
h_seconds_bucket{op="a",le="2"} 1
h_seconds_bucket{op="a",le="4"} 11
h_seconds_bucket{op="a",le="+Inf"} 11
h_seconds_sum{op="a"} 30.5
h_seconds_count{op="a"} 11
h_seconds_bucket{op="b",le="1"} 5
h_seconds_bucket{op="b",le="+Inf"} 5
h_seconds_count{op="b"} 5
c_total{x="1"} 3
c_total{x="2"} 4
`))
	want := map[string]string{"op": "a"}
	d := s1.histogram("h_seconds", want).minus(s0.histogram("h_seconds", want))
	if d.count != 10 || d.sum != 30 {
		t.Fatalf("delta count %v sum %v", d.count, d.sum)
	}
	// All ten new observations sit in (2, 4].
	if q := d.quantile(0.5); q <= 2 || q > 4 {
		t.Fatalf("p50 %v outside (2, 4]", q)
	}
	// Summed over series, op b's full count sits below every bound of a.
	all := s1.histogram("h_seconds", nil)
	if all.count != 16 || all.quantile(0.3) > 1 {
		t.Fatalf("summed histogram count %v p30 %v", all.count, all.quantile(0.3))
	}
	if s1.sum("c_total", nil) != 7 || s1.sum("c_total", map[string]string{"x": "2"}) != 4 {
		t.Fatal("counter sums wrong")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "probe", Start: 0, End: 100},
		{ID: 1, Name: "publish", Parent: "probe", Start: 0, End: 10},
		{ID: 1, Name: "request", Parent: "probe", Start: 50, End: 60},
		{ID: 1, Name: "request", Parent: "probe", Start: 55, End: 70},
		{ID: 2, Name: "request", Start: 0, End: 7},
	}
	st := selfTimes(spans)
	if st["probe"] != [2]int64{70, 1} {
		t.Fatalf("probe self %v, want 70 over 1 span", st["probe"])
	}
	if st["request"] != [2]int64{32, 3} {
		t.Fatalf("request self %v, want 32 over 3 spans", st["request"])
	}
}

// TestMonitorSkipsTracesBeforeWindow: traces sampled during set-up are
// still in the System's ring when a window opens; they must not be
// harvested as the window's.
func TestMonitorSkipsTracesBeforeWindow(t *testing.T) {
	p := newPass(t.TempDir(), "fresh", 1, 1, 1, false)
	in, err := newInstance(filepath.Join(t.TempDir(), "sys"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	g := newGenerator(3, "m")
	orc := newOracle()
	warm := g.stream(200)
	orc.observeAll(warm)
	if _, _, _, err := p.ingest(in, warm, g.checks, orc, 0); err != nil {
		t.Fatal(err)
	}
	nw := len(g.checks)
	m := startLayerMonitor(in)
	more := g.stream(20)
	orc.observeAll(more)
	if _, _, _, err := p.ingest(in, more, g.checks[nw:], orc, len(warm)); err != nil {
		t.Fatal(err)
	}
	m.finish()
	if len(m.traces) == 0 || len(m.traces) > len(more) {
		t.Fatalf("harvested %d traces in a window of %d actions", len(m.traces), len(more))
	}
}

// TestTracesOfEveryWindowKept: trace IDs restart with every System, so
// windows of different rounds must not overwrite each other's traces.
func TestTracesOfEveryWindowKept(t *testing.T) {
	a := newLayerAcc()
	for i := int64(1); i <= 2; i++ {
		m := &layerMonitor{traces: map[uint64][]stageSpan{1: {{stage: "pairCount", start: i * 1e6}}}}
		a.addWindow(nil, nil, 1, 0, m)
	}
	if w := a.queueWaits("pairCount"); len(w) != 2 {
		t.Fatalf("queue waits %v, want one per window", w)
	}
}

// TestAtRefSpeed checks the host-speed rescaling: on a host running at
// half the reference speed a rate doubles and a time halves, and only
// the listed metrics move.
func TestAtRefSpeed(t *testing.T) {
	p := &pass{}
	if f := p.hostFactor(); f != 1 {
		t.Fatalf("factor without samples = %v, want 1", f)
	}
	ref := float64(yardRef) / 1e6
	p.yardMS = []float64{2 * ref, 2 * ref, 9 * ref}
	f := p.hostFactor()
	if f != 2 {
		t.Fatalf("factor = %v, want 2 (the median)", f)
	}
	r := newReport()
	r.set("ingest_actions_per_s", 1000, "actions/s", 1)
	r.set("query_p50_us", 50, "us", 1)
	r.set("peak_heap_mb", 70, "MB", 1)
	raw := atRefSpeed(r, []string{"ingest_actions_per_s", "query_p50_us"}, f)
	if got := r.metrics["ingest_actions_per_s"].Value; got != 2000 {
		t.Fatalf("rate at reference speed = %v, want 2000", got)
	}
	if got := r.metrics["query_p50_us"].Value; got != 25 {
		t.Fatalf("time at reference speed = %v, want 25", got)
	}
	if got := r.metrics["peak_heap_mb"].Value; got != 70 {
		t.Fatalf("unlisted metric moved to %v", got)
	}
	if raw["ingest_actions_per_s"] != 1000 || raw["query_p50_us"] != 50 || len(raw) != 2 {
		t.Fatalf("measured values %v", raw)
	}
	if d := yardstick(); d <= 0 {
		t.Fatalf("yardstick took %v", d)
	}
}
