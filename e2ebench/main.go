// Command e2ebench is the repository's end-to-end benchmark. It opens
// the real tencentrec.System in-process, drives it with a seeded
// generator through its public functions (Publish, Handler requests and
// an exact completion barrier), checks every result against the
// sequential library, and prints each metric by name and unit. The last
// line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 an
// untraced and then a traced pass, each of the full length, run and the
// metrics are the per-layer ones. The line before it describes the run: seed,
// workload parameters, CPU count, Go version and each metric's sample
// count. Run it through run.sh, which builds it inside the checkout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload to its run function, the end-to-end
// metric the traced run compares to estimate tracing overhead, with
// whether higher is better for it, and the end-to-end metrics that time
// work run as fast as the host allows. Those are reported at the
// reference host speed (host.go). Fresh's other figures are paced: its
// rates are the open loops', its freshness is pinned to the serving
// tier's negative-cache TTL, and its query latency follows the host
// less than in proportion (NOTES.md, "Host speed"). They and the heap
// are reported as measured.
var workloads = map[string]struct {
	run          func(*pass) error
	primary      string
	higherBetter bool
	hostBound    []string
}{
	"replay": {runReplay, "ingest_actions_per_s", true, []string{"setup_s", "ingest_actions_per_s",
		"freshness_p50_ms", "freshness_p99_ms", "query_p50_us", "query_qps"}},
	"fresh": {runFresh, "query_p50_us", false, []string{"setup_s"}},
}

// freshSetups is how many times each phase of an untraced fresh run sets
// the System up; setup_s is the median. Replay sets up once per round.
const freshSetups = 3

func main() {
	workload := flag.String("workload", "", "replay or fresh")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; run data goes under .bench_build in it")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, root string) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	defer os.RemoveAll(filepath.Join(root, ".bench_build", "data"))

	rep := newReport()
	var passes []*pass
	// endToEnd reports a pass's end-to-end metrics at the reference host
	// speed and describes the host it ran on.
	endToEnd := func(p *pass, r *report) map[string]any {
		p.endToEnd(r)
		f := p.hostFactor()
		return map[string]any{
			"yardstick_ms": median(p.yardMS), "yardstick_samples": len(p.yardMS),
			"yardstick_ref_ms": float64(yardRef) / 1e6, "factor": f,
			"measured": atRefSpeed(r, w.hostBound, f),
		}
	}
	var host any
	measure := func(secs float64, setups int, tr bool) (*pass, error) {
		p := newPass(root, workload, seed, secs, setups, tr)
		passes = append(passes, p)
		p.heap = startHeapSampler()
		defer p.heap.close()
		err := w.run(p)
		if len(p.peakHeapMB) == 0 {
			p.peakHeapMB = append(p.peakHeapMB, p.heap.take())
		}
		return p, err
	}
	if !traced {
		p, err := measure(seconds, freshSetups, false)
		if err != nil {
			return err
		}
		host = endToEnd(p, rep)
	} else {
		// Both passes run the full length: the untraced one is then an
		// ordinary run to compare against, and replay's sparse trace
		// sampling needs every round of it.
		plain, err := measure(seconds, 1, false)
		if err != nil {
			return err
		}
		tp, err := measure(seconds, 1, true)
		if err != nil {
			return err
		}
		tp.perLayer(rep)
		a, b := newReport(), newReport()
		host = map[string]any{"untraced": endToEnd(plain, a), "traced": endToEnd(tp, b)}
		x, y := a.metrics[w.primary].Value, b.metrics[w.primary].Value
		overhead := ratio(y, x)
		if w.higherBetter {
			overhead = ratio(x, y)
		}
		rep.set("bench.trace_overhead_pct", (overhead-1)*100, "%", 2)
		if err := writeSpans(root, workload, tp.rec.spans); err != nil {
			return err
		}
	}

	var attempted, failed int64
	for _, p := range passes {
		attempted += p.attempted.Load()
		failed += p.failed.Load()
	}
	if traced {
		// A per-layer metric: an end-to-end one must never read 0, and
		// the result line carries the counts in every run.
		rep.set("bench.failed_frac", ratio(float64(failed), float64(attempted)), "ratio", int(attempted))
	}

	desc := map[string]any{
		"benchmark":               "e2ebench",
		"workload":                workload,
		"seed":                    seed,
		"seconds":                 seconds,
		"trace":                   traced,
		"nproc":                   runtime.NumCPU(),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
		"go":                      runtime.Version(),
		"params":                  params(),
		"host":                    host,
		"metrics":                 rep.info,
		"unsupported_percentiles": rep.unsupported(),
		"time":                    time.Now().UTC().Format(time.RFC3339),
	}
	if err := writeJSONLine(os.Stdout, desc); err != nil {
		return err
	}
	return writeJSONLine(os.Stdout, result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	})
}

// params records the workload parameters in the run description.
func params() map[string]any {
	return map[string]any{
		"users": numUsers, "items": numItems, "clusters": numClusters,
		"in_cluster_frac": inClusterFrac, "zipf_s": zipfS, "check_every": checkEvery,
		"flush_interval_ms": flushInterval.Milliseconds(), "quiet_window_ms": quietWindow.Milliseconds(),
		"replay_n": replayN, "replay_warm": replayWarm, "read_back_n": readBackN,
		"fresh_warm": freshWarm, "fresh_rate": freshRate, "fresh_qps": freshQPS,
		"fresh_phase_s": freshPhase.Seconds(), "fresh_setups": freshSetups,
		"probe_every_ms": probeEvery.Milliseconds(), "probe_limit_ms": probeLimit.Milliseconds(),
		"probe_windows": probeWindows, "query_windows": queryWindows, "spin_margin_us": spinMargin.Microseconds(),
		"fresh_mix": "recommend:7,similar:3", "read_back_mix": "recommend:6,similar:3,hot:1",
		"yardsticks_per_setup": yardRuns, "yardstick_ref_ms": float64(yardRef) / 1e6,
	}
}
