package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one of the benchmark's own spans around a call into the
// System. Spans of one request, probe or round share an ID; Parent names
// the enclosing span of the same ID ("" for the root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced passes run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id allocates a span group identifier.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(id uint64, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// selfTimes returns, per span name, the total self time in nanoseconds
// and the span count. A span's self time is its duration minus the part
// of it covered by its children (spans of the same ID naming it as
// parent).
func selfTimes(spans []span) map[string][2]int64 {
	byID := map[uint64][]span{}
	for _, s := range spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	out := map[string][2]int64{}
	for _, group := range byID {
		// A round's publishes share one ID, so children are indexed by
		// parent name rather than found by scanning the group per span.
		children := map[string][]span{}
		for _, c := range group {
			if c.Parent != "" {
				children[c.Parent] = append(children[c.Parent], c)
			}
		}
		for _, s := range group {
			var kids [][2]int64
			for _, c := range children[s.Name] {
				if c != s {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			t := out[s.Name]
			t[0] += s.End - s.Start - covered(kids)
			t[1]++
			out[s.Name] = t
		}
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	var start int64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !started || x[0] > end {
			if started {
				total += end - start
			}
			start, end, started = x[0], x[1], true
			continue
		}
		end = max(end, x[1])
	}
	if started {
		total += end - start
	}
	return total
}

// writeSpans writes the spans as JSON lines under the checkout, one file
// per workload, replaced on every traced run.
func writeSpans(root, workload string, spans []span) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler tracks the peak Go heap in use.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapNow()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and starts over.
func (h *heapSampler) take() float64 {
	h.observe()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// stageSpan is one topology stage of a sampled tuple trace.
type stageSpan struct {
	stage               string
	enqueue, start, end int64
}

// layerMonitor runs beside a traced measurement window. It samples the
// TDAccess backlog and the topology's queue depths, and harvests the
// System's sampled tuple traces often enough that its 64-trace ring is
// not overwritten between reads.
type layerMonitor struct {
	in         *instance
	stop       chan struct{}
	done       chan struct{}
	backlogMax float64
	queueMax   float64
	traces     map[uint64][]stageSpan
	// before is the highest trace ID sampled before the window opened.
	// Those traces belong to the set-up's ingest and are not harvested.
	before uint64
}

// harvestEvery is the trace harvest period, far shorter than the time
// the sampling rates leave a trace in the ring.
const harvestEvery = 10 * time.Millisecond

func startLayerMonitor(in *instance) *layerMonitor {
	m := &layerMonitor{in: in, stop: make(chan struct{}), done: make(chan struct{}),
		traces: map[uint64][]stageSpan{}}
	for _, tr := range in.sys.Traces() {
		m.before = max(m.before, tr.ID)
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(harvestEvery)
		defer t.Stop()
		for i := 0; ; i++ {
			m.harvest()
			// Gauges every 5th tick: an exposition costs far more than a
			// trace harvest.
			if i%5 == 0 {
				sc := scrapeSystem(in.sys)
				m.backlogMax = max(m.backlogMax, sc.sum("tdaccess_backlog_messages", nil))
				m.queueMax = max(m.queueMax, sc.sum("stream_queue_depth_batches", nil))
			}
			select {
			case <-m.stop:
				m.harvest()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *layerMonitor) harvest() {
	for _, tr := range m.in.sys.Traces() {
		if tr.ID <= m.before || len(tr.Spans) <= len(m.traces[tr.ID]) {
			continue
		}
		ss := make([]stageSpan, len(tr.Spans))
		for i, s := range tr.Spans {
			ss[i] = stageSpan{stage: s.Stage, enqueue: s.Enqueue, start: s.Start, end: s.End}
		}
		m.traces[tr.ID] = ss
	}
}

func (m *layerMonitor) finish() {
	close(m.stop)
	<-m.done
}
