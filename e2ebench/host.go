package main

import (
	"runtime"
	"strconv"
	"time"
)

// The benchmark shares its machine with other virtual machines, and how
// fast that machine runs a memory-bound, goroutine-heavy program drifts
// by a third or more over minutes (NOTES.md, "Host speed"). Figures of
// work run as fast as the host allows track that drift, so the benchmark
// times a fixed yardstick beside them and reports them at a reference
// host speed: a rate times hostFactor, a time divided by it. The
// yardstick is the benchmark's own code and uses nothing of the System,
// so a change to the System moves the figures and not the yardstick.

// yardRef is the yardstick's median time on the reference host: the
// 2-vCPU machine NOTES.md's figures were measured on. Its value only
// scales the reported figures; comparisons need it fixed.
const yardRef = 35 * time.Millisecond

// yardRuns is how many yardsticks run after each set-up, on the idle
// System: its heap is warm then, so the yardstick's allocations reuse
// memory as the System's do instead of faulting in fresh pages.
const yardRuns = 3

// yardstick runs a fixed three-stage goroutine pipeline, the System's
// kind of work in miniature: a producer hands batches of keyed records
// over a channel to a stage that keeps a short history per key in a map,
// which hands them on to a stage that folds them into per-key sums. It
// allocates as the System does, about 11 MB a run. It returns how long
// the work took.
func yardstick() time.Duration {
	type rec struct {
		key string
		w   float64
	}
	t0 := time.Now()
	a := make(chan []rec, 4)
	b := make(chan []rec, 4)
	done := make(chan struct{})
	go func() {
		hist := make(map[string][]float64, 1<<14)
		for batch := range a {
			out := make([]rec, 0, len(batch))
			for _, r := range batch {
				h := hist[r.key]
				if len(h) > 16 {
					h = h[1:]
				}
				hist[r.key] = append(h, r.w)
				out = append(out, rec{r.key, float64(len(h))})
			}
			b <- out
		}
		close(b)
	}()
	go func() {
		sums := make(map[string]float64, 1<<14)
		for batch := range b {
			for _, r := range batch {
				sums[r.key] += r.w
			}
		}
		close(done)
	}()
	x := uint64(88172645463325252) // xorshift64: the same records every time
	for i := 0; i < 1500; i++ {
		batch := make([]rec, 32)
		for j := range batch {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			batch[j] = rec{"k" + strconv.FormatUint(x%60000, 10), float64(x % 7)}
		}
		a <- batch
	}
	close(a)
	<-done
	return time.Since(t0)
}

// sampleHost times yardRuns yardsticks, each after a collection, so
// that none pays for the garbage of the benchmark or of the one before:
// its time is the host's, not the collector's.
func (p *pass) sampleHost() {
	for i := 0; i < yardRuns; i++ {
		runtime.GC()
		p.yardMS = append(p.yardMS, float64(yardstick())/1e6)
	}
}

// hostFactor is how much slower than the reference host this pass's
// host ran: the yardstick's median time over yardRef, 1 without samples.
func (p *pass) hostFactor() float64 {
	if len(p.yardMS) == 0 {
		return 1
	}
	return median(p.yardMS) / (float64(yardRef) / 1e6)
}

// atRefSpeed rescales a workload's host-bound end-to-end metrics to the
// reference host speed and returns their measured values.
func atRefSpeed(r *report, hostBound []string, factor float64) map[string]float64 {
	raw := map[string]float64{}
	for _, name := range hostBound {
		m := r.metrics[name]
		raw[name] = m.Value
		if perSecond[name] {
			m.Value *= factor
		} else {
			m.Value /= factor
		}
		r.metrics[name] = m
	}
	return raw
}

// perSecond marks the end-to-end metrics that are rates; every other
// host-bound one is a time.
var perSecond = map[string]bool{"ingest_actions_per_s": true, "query_qps": true}
