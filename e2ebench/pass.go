package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// pass is one measurement of a workload: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
type pass struct {
	root, workload string
	seed           int64
	seconds        float64
	setups         int
	traced         bool
	rec            *recorder // nil when untraced
	layers         *layerAcc // nil when untraced
	heap           *heapSampler

	attempted, failed atomic.Int64
	errShown          atomic.Int64

	setupS     []float64
	ingestRate []float64
	fresh      [][]float64 // ms, per replay round or window of fresh's probes
	windows    []queryWindow
	peakHeapMB []float64 // per round, or one for the whole pass

	probes int       // probes resolved, seen or failed
	yardMS []float64 // yardstick times (host.go)

	// Samples reported by traced passes only.
	publishUS []float64
	httpUS    map[string][]float64
	late      []float64 // ms
	libRate   []float64
	stale     [2]float64 // differing entries, entries checked
}

// queryWindow is one stretch of query latencies (µs) and its length.
type queryWindow struct {
	lat     []float64
	seconds float64
}

// split cuts a window into n consecutive windows of equal sample count.
func (w queryWindow) split(n int) []queryWindow {
	var out []queryWindow
	for _, lat := range chunks(w.lat, n) {
		out = append(out, queryWindow{lat: lat, seconds: w.seconds / float64(n)})
	}
	return out
}

func newPass(root, workload string, seed int64, seconds float64, setups int, traced bool) *pass {
	p := &pass{root: root, workload: workload, seed: seed, seconds: seconds, setups: setups,
		traced: traced, httpUS: map[string][]float64{}}
	if traced {
		p.rec = newRecorder()
		p.layers = newLayerAcc()
	}
	return p
}

// traceEvery is the System's tuple sampling rate for this pass: the
// given rate when traced, off otherwise.
func (p *pass) traceEvery(every int) int {
	if p.traced {
		return every
	}
	return -1
}

// op counts one attempted operation and whether it failed.
func (p *pass) op(ok bool, what string, err error) {
	p.attempted.Add(1)
	if ok {
		return
	}
	p.failed.Add(1)
	if p.errShown.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s failed: %v\n", what, err)
	}
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return seed*1_000_003 ^ int64(h.Sum64()>>1)
}

// publish sends one action, stamped with its creation time, and returns
// that time.
func (p *pass) publish(in *instance, a action, id uint64, parent string) time.Time {
	t0 := time.Now()
	err := in.sys.Publish(a.raw(t0))
	t1 := time.Now()
	p.op(err == nil, "publish", err)
	if p.traced {
		p.publishUS = append(p.publishUS, float64(t1.Sub(t0))/1e3)
		p.rec.add(id, "publish", parent, t0, t1)
	}
	return t0
}

// request serves one GET through the front end and accounts for it.
// The caller owns httpUS for the endpoint (one goroutine at a time).
func (p *pass) request(in *instance, endpoint, path string, id uint64, parent string) (int, []byte, time.Time, time.Time) {
	t0 := time.Now()
	code, body := in.get(path)
	t1 := time.Now()
	if code == http.StatusOK {
		p.op(true, "", nil)
	} else {
		p.op(false, "GET "+path, fmt.Errorf("status %d", code))
	}
	if p.traced {
		p.httpUS[endpoint] = append(p.httpUS[endpoint], float64(t1.Sub(t0))/1e3)
		p.rec.add(id, "request", parent, t0, t1)
	}
	return code, body, t0, t1
}

// countChecks accounts one operation per check pair.
func (p *pass) countChecks(ok []bool) {
	for i, good := range ok {
		p.op(good, "check pair", fmt.Errorf("check pair %d missing or mis-scored", i))
	}
}

// ingest publishes a pre-generated stream as fast as Publish returns and
// waits on the completion barrier. before is how many actions the
// System had been sent already. It returns the time of the last counter
// change, where the ingest's elapsed time ends, the throughput (actions
// over first publish to that time), and each action's freshness:
// publish to the barrier that certified it queryable.
func (p *pass) ingest(in *instance, stream []action, checks []checkPair, orc *oracle, before int) (time.Time, float64, []float64, error) {
	id := p.rec.id()
	pubAt := make([]time.Time, len(stream))
	first := time.Now()
	for i, a := range stream {
		pubAt[i] = p.publish(in, a, id, "ingest")
	}
	wait := time.Now()
	last, ok, err := awaitCompletion(in, int64(before+len(stream)), checks, orc)
	end := time.Now()
	p.rec.add(id, "completion", "ingest", wait, end)
	p.rec.add(id, "ingest", "", first, end)
	if err != nil {
		return last, 0, nil, err
	}
	p.countChecks(ok)
	fresh := make([]float64, len(stream))
	for i, t := range pubAt {
		fresh[i] = float64(last.Sub(t)) / 1e6
	}
	return last, float64(len(stream)) / last.Sub(first).Seconds(), fresh, nil
}

// setup opens the System and ingests the warm population to verified
// completion, p.setups times, keeping the last System open. Each setup
// lasts from Open to the warm-up's last counter change.
func (p *pass) setup(traceEvery int, warm []action, checks []checkPair, orc *oracle) (*instance, error) {
	var in *instance
	for k := 0; k < p.setups; k++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = newInstance(runDir(p.root, p.workload, p.seed, k), traceEvery); err != nil {
			return nil, err
		}
		last, _, _, err := p.ingest(in, warm, checks, orc, 0)
		if err != nil {
			in.close()
			return nil, err
		}
		p.setupS = append(p.setupS, last.Sub(t0).Seconds())
		p.sampleHost()
	}
	return in, nil
}

// sweep reads every catalog item's similar list once and compares each
// stored score with the library's current one (topology.stale_score_frac).
// Its reads are a check, not workload traffic: they are counted as
// operations but kept out of the latency samples.
func (p *pass) sweep(in *instance, orc *oracle) {
	for i := 0; i < numItems; i++ {
		item := itemID(i)
		code, body := in.get("/similar?n=10&item=" + item)
		p.op(code == http.StatusOK, "GET /similar", fmt.Errorf("status %d", code))
		if code != http.StatusOK {
			continue
		}
		list, err := decodeList(body)
		if err != nil {
			p.op(false, "decode /similar", err)
			continue
		}
		for _, e := range list {
			p.stale[1]++
			if math.Abs(e.Score-orc.similarity(item, e.Item)) > scoreTol {
				p.stale[0]++
			}
		}
	}
}

// endToEnd reports the end-to-end metrics of an untraced pass.
func (p *pass) endToEnd(r *report) {
	r.set("setup_s", median(p.setupS), "s", len(p.setupS))
	r.set("ingest_actions_per_s", median(p.ingestRate), "actions/s", len(p.ingestRate))
	// Timings are medians over windows: rounds, setups, phases, or
	// stretches of a query stream. A slow stretch on a shared machine
	// moves one window, not the reported value.
	f50s, f99s, minF := windowPcts(p.fresh)
	r.setWindowed("freshness_p50_ms", median(f50s), "ms", len(p.fresh), minF)
	r.setWindowed("freshness_p99_ms", median(f99s), "ms", len(p.fresh), minF)
	lats := make([][]float64, len(p.windows))
	qps := make([]float64, len(p.windows))
	for i, w := range p.windows {
		lats[i] = w.lat
		qps[i] = float64(len(w.lat)) / w.seconds
	}
	// No query p99 here: on fresh it follows the host's CPU steal more
	// than the System (NOTES.md, Steadiness). The traced run reports the
	// tails per endpoint.
	q50s, _, minQ := windowPcts(lats)
	r.setWindowed("query_p50_us", median(q50s), "us", len(p.windows), minQ)
	r.set("query_qps", median(qps), "req/s", len(p.windows))
	r.set("peak_heap_mb", median(p.peakHeapMB), "MB", len(p.peakHeapMB))
}

// windowPcts returns each window's p50 and p99 and the smallest window's
// sample count.
func windowPcts(windows [][]float64) (p50s, p99s []float64, minN int) {
	minN = math.MaxInt
	for _, w := range windows {
		d := newDist(w)
		p50s = append(p50s, d.q(0.50))
		p99s = append(p99s, d.q(0.99))
		minN = min(minN, d.n())
	}
	return p50s, p99s, minN
}

// perLayer reports the per-layer metrics of a traced pass.
func (p *pass) perLayer(r *report) {
	p.layers.report(r)
	pub := newDist(p.publishUS)
	r.setPct("tdaccess.publish_p50_us", pub, 0.50, "us")
	r.setPct("tdaccess.publish_p99_us", pub, 0.99, "us")
	r.set("topology.stale_score_frac", ratio(p.stale[0], p.stale[1]), "ratio", int(p.stale[1]))
	for _, e := range endpoints {
		d := newDist(p.httpUS[e])
		r.setPct("http.latency_p50_us."+e, d, 0.50, "us")
		r.setPct("http.latency_p99_us."+e, d, 0.99, "us")
	}
	r.set("bench.library_actions_per_s", median(p.libRate), "actions/s", len(p.libRate))
	late := newDist(p.late)
	r.setPct("bench.gen_late_p99_ms", late, 0.99, "ms")
	r.set("bench.probe_samples", float64(p.probes), "count", 0)
	var nq int
	for _, w := range p.windows {
		nq += len(w.lat)
	}
	r.set("bench.query_samples", float64(nq), "count", 0)
	self := selfTimes(p.rec.spans)
	meanSelf := func(name string, unit float64) float64 {
		t := self[name]
		return ratio(float64(t[0]), float64(t[1])) / unit
	}
	r.set("trace.self_us.publish", meanSelf("publish", 1e3), "us", int(self["publish"][1]))
	r.set("trace.self_us.request", meanSelf("request", 1e3), "us", int(self["request"][1]))
	r.set("trace.self_ms.probe", meanSelf("probe", 1e6), "ms", int(self["probe"][1]))
	r.set("trace.self_ms.completion", meanSelf("completion", 1e6), "ms", int(self["completion"][1]))
}
