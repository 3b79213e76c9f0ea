package main

import (
	"sort"
)

// components are the CF and DB chain's bolts, the stream layer's units
// of work per action.
var components = []string{"pretreatment", "userHistory", "itemCount", "pairCount", "resultStorage", "dbBolt"}

// tracedStages are the components whose queue waits the sampled tuple
// traces reach. resultStorage is not among them: its input is
// pairCount's combiner flush on a tick, which carries no trace.
var tracedStages = []string{"pretreatment", "userHistory", "itemCount", "pairCount", "dbBolt"}

// storeOps are the TDStore client operations whose latency is reported.
var storeOps = []string{"get", "put", "batch_get", "batch_put"}

// endpoints are the query endpoints the workloads call.
var endpoints = []string{"recommend", "similar", "hot"}

// layerAcc accumulates per-layer registry deltas over the measurement
// windows of a traced pass. Counts add; histograms merge bucket-wise.
type layerAcc struct {
	actions, queries  float64
	consumeLag        hist
	execSec, emitted  map[string]float64
	storeWrites       float64
	storeReads        float64
	ops               map[string]hist
	retries           float64
	hits, misses, neg float64
	servingKeys       float64
	coalesced, hedges float64
	backlogMax        float64
	queueMax          float64
	traces            [][]stageSpan
}

func newLayerAcc() *layerAcc {
	return &layerAcc{execSec: map[string]float64{}, emitted: map[string]float64{},
		ops: map[string]hist{}}
}

// addWindow folds one measurement window: registry scrapes at its start
// and end, the actions ingested and queries served inside it, and the
// monitor that ran beside it.
func (a *layerAcc) addWindow(s0, s1 scrape, actions, queries int, m *layerMonitor) {
	a.actions += float64(actions)
	a.queries += float64(queries)
	d := func(name string, want map[string]string) float64 { return s1.sum(name, want) - s0.sum(name, want) }
	dh := func(name string, want map[string]string) hist {
		return s1.histogram(name, want).minus(s0.histogram(name, want))
	}
	a.consumeLag = a.consumeLag.plus(dh("tdaccess_consume_lag_seconds", nil))
	for _, c := range components {
		w := map[string]string{"component": c}
		a.execSec[c] += dh("stream_execute_seconds", w).sum
		a.emitted[c] += d("stream_emitted_total", w)
	}
	for _, op := range storeWriteOps {
		a.storeWrites += dh("tdstore_op_seconds", map[string]string{"op": op}).count
	}
	// Serving's coalesced batches are store reads too; the rest are the
	// topology's.
	for _, op := range []string{"get", "batch_get"} {
		a.storeReads += dh("tdstore_op_seconds", map[string]string{"op": op}).count
	}
	a.storeReads -= d("serving_batches_total", nil)
	a.servingKeys += d("serving_batch_keys_total", nil)
	for _, op := range storeOps {
		a.ops[op] = a.ops[op].plus(dh("tdstore_op_seconds", map[string]string{"op": op}))
	}
	a.retries += d("tdstore_retries_total", nil)
	a.hits += d("serving_cache_hits_total", nil)
	a.misses += d("serving_cache_misses_total", nil)
	a.neg += d("serving_cache_negative_hits_total", nil)
	a.coalesced += d("serving_coalesced_total", nil)
	a.hedges += d("serving_hedges_total", nil)
	if m != nil {
		a.backlogMax = max(a.backlogMax, m.backlogMax)
		a.queueMax = max(a.queueMax, m.queueMax)
		// Trace IDs restart with every System, so windows' traces are
		// kept apart rather than merged by ID.
		for _, t := range m.traces {
			a.traces = append(a.traces, t)
		}
	}
}

// plus merges two histograms bucket-wise.
func (h hist) plus(o hist) hist {
	byLe := map[float64]float64{}
	for i, le := range h.les {
		byLe[le] += h.counts[i]
	}
	for i, le := range o.les {
		byLe[le] += o.counts[i]
	}
	out := hist{count: h.count + o.count, sum: h.sum + o.sum}
	for le := range byLe {
		out.les = append(out.les, le)
	}
	sort.Float64s(out.les)
	for _, le := range out.les {
		out.counts = append(out.counts, byLe[le])
	}
	return out
}

// queueWaits returns the harvested traces' queue waits (span start minus
// enqueue) of one stage, in milliseconds.
func (a *layerAcc) queueWaits(stage string) []float64 {
	var out []float64
	for _, t := range a.traces {
		for _, s := range t {
			if s.stage == stage {
				out = append(out, float64(s.start-s.enqueue)/1e6)
			}
		}
	}
	return out
}

// report adds the per-layer metrics to r.
func (a *layerAcc) report(r *report) {
	r.setHist("tdaccess.consume_lag_p50_ms", a.consumeLag, 0.50, 1e3, "ms")
	r.setHist("tdaccess.consume_lag_p99_ms", a.consumeLag, 0.99, 1e3, "ms")
	r.set("tdaccess.backlog_max", a.backlogMax, "count", 0)
	for _, c := range components {
		r.set("stream.exec_us_per_action."+c, ratio(a.execSec[c]*1e6, a.actions), "us", int(a.actions))
		r.set("stream.emitted_per_action."+c, ratio(a.emitted[c], a.actions), "ratio", int(a.actions))
	}
	for _, c := range tracedStages {
		w := newDist(a.queueWaits(c))
		r.setPct("stream.queue_wait_p50_ms."+c, w, 0.50, "ms")
		r.setPct("stream.queue_wait_p99_ms."+c, w, 0.99, "ms")
	}
	r.set("stream.queue_depth_max", a.queueMax, "count", 0)
	r.set("topology.store_writes_per_action", ratio(a.storeWrites, a.actions), "ratio", int(a.actions))
	r.set("topology.store_reads_per_action", ratio(a.storeReads, a.actions), "ratio", int(a.actions))
	for _, op := range storeOps {
		r.setHist("tdstore.op_p50_us."+op, a.ops[op], 0.50, 1e6, "us")
		r.setHist("tdstore.op_p99_us."+op, a.ops[op], 0.99, 1e6, "us")
	}
	r.set("tdstore.retries", a.retries, "count", 0)
	lookups := a.hits + a.misses + a.neg
	r.set("serving.cache_hit_ratio", ratio(a.hits, lookups), "ratio", int(lookups))
	r.set("serving.negative_hit_ratio", ratio(a.neg, lookups), "ratio", int(lookups))
	r.set("serving.store_gets_per_query", ratio(a.servingKeys, a.queries), "ratio", int(a.queries))
	r.set("serving.coalesced_per_query", ratio(a.coalesced, a.queries), "ratio", int(a.queries))
	r.set("serving.hedges_per_query", ratio(a.hedges, a.queries), "ratio", int(a.queries))
}
