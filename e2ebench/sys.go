package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"tencentrec"
)

const (
	// flushInterval is the combiner tick the benchmark runs with.
	flushInterval = 20 * time.Millisecond
	// quietWindow is how long every emission and store-write counter must
	// stay still before the pipeline counts as finished: several flush
	// intervals, so a pending combiner flush cannot hide in it.
	quietWindow = 5 * flushInterval
	// pollEvery is the completion barrier's sampling period; it bounds
	// how late the barrier can place the last counter change.
	pollEvery = 5 * time.Millisecond
	// checkGrace is how long check pairs may stay invisible after the
	// counters settle before they count as missing.
	checkGrace = 2 * time.Second
	// completionTimeout bounds one completion wait, so a wedged pipeline
	// fails the run well inside the benchmark's time limit.
	completionTimeout = 60 * time.Second
	// scoreTol is the largest score difference that counts as equal.
	scoreTol = 1e-9
)

// openSystem opens the real System with SystemConfig defaults except
// the data directory, the benchmark flush interval and tracing
// (traceEvery < 0 disables it).
func openSystem(dir string, traceEvery int) (*tencentrec.System, error) {
	return tencentrec.Open(tencentrec.SystemConfig{
		DataDir:    dir,
		Params:     tencentrec.Params{FlushInterval: flushInterval},
		TraceEvery: traceEvery,
	})
}

// instance is one open System with its HTTP front end.
type instance struct {
	sys *tencentrec.System
	h   http.Handler
	w   watch
	dir string
}

func newInstance(dir string, traceEvery int) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys, err := openSystem(dir, traceEvery)
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, h: sys.Handler(), dir: dir}
	if in.w, err = newWatch(sys); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close stops the System and deletes its files.
func (in *instance) close() error {
	err := in.sys.Close()
	if rmErr := os.RemoveAll(in.dir); err == nil {
		err = rmErr
	}
	return err
}

// get serves one GET through the System's handler in-process and
// returns the status and the body.
func (in *instance) get(path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	in.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// similar fetches an item's similar list through the front end.
func (in *instance) similar(item string) (int, []tencentrec.ScoredItem, error) {
	code, body := in.get("/similar?n=10&item=" + url.QueryEscape(item))
	if code != http.StatusOK {
		return code, nil, nil
	}
	list, err := decodeList(body)
	return code, list, err
}

// decodeList parses a list endpoint's JSON reply.
func decodeList(body []byte) ([]tencentrec.ScoredItem, error) {
	var list []tencentrec.ScoredItem
	err := json.Unmarshal(body, &list)
	return list, err
}

// sameList reports whether a served list equals the library's, item for
// item, with scores within scoreTol.
func sameList(got, want []tencentrec.ScoredItem) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Item != want[i].Item || math.Abs(got[i].Score-want[i].Score) > scoreTol {
			return false
		}
	}
	return true
}

// watch holds the registry instruments the completion barrier polls
// beside the stream's emission counts (executions are not watched: the
// combiners' interval ticks execute forever):
// consumption from TDAccess, and every store write. The handles are the
// registry's own series (registration is idempotent), so a poll is a few
// atomic loads rather than a full exposition.
type watch struct {
	consumed func() int64
	writes   []func() int64
}

// storeWriteOps are the tdstore_op_seconds operations that write.
var storeWriteOps = []string{"put", "batch_put", "incr", "delete"}

// newWatch binds the barrier to the registry's series, first checking
// that the families exist so a renamed instrument fails loudly instead
// of being re-created empty.
func newWatch(sys *tencentrec.System) (watch, error) {
	sc := scrapeSystem(sys)
	for _, fam := range []string{"tdaccess_consumed_total", "tdstore_op_seconds_count"} {
		found := false
		for _, s := range sc {
			found = found || s.name == fam
		}
		if !found {
			return watch{}, fmt.Errorf("metrics registry has no %s series", fam)
		}
	}
	reg := sys.Registry()
	w := watch{consumed: reg.Counter("tdaccess_consumed_total", "").Value}
	for _, op := range storeWriteOps {
		h := reg.Histogram("tdstore_op_seconds", "", "op", op)
		w.writes = append(w.writes, func() int64 { return h.Snapshot().Count })
	}
	return w, nil
}

// progress is one poll of the watched counters.
type progress struct {
	consumed int64
	sig      [2]int64
}

func (in *instance) progress() progress {
	var p progress
	p.consumed = in.w.consumed()
	m := in.sys.Metrics()
	for _, c := range m.Components {
		p.sig[0] += c.Emitted
	}
	for _, h := range in.w.writes {
		p.sig[1] += h()
	}
	return p
}

// awaitCompletion is the benchmark's exact completion barrier, used in
// place of System.Drain (which returns while bolts still hold work). It
// waits until the spout has consumed everything published and every
// component's emissions and every store write have stood
// still for quietWindow, then checks every check pair against the
// library, polling again while one is not yet visible. It returns the
// time of the last counter change: elapsed time ends there, not at the
// end of the quiet window. ok[i] reports check pair i.
func awaitCompletion(in *instance, published int64, checks []checkPair, orc *oracle) (time.Time, []bool, error) {
	deadline := time.Now().Add(completionTimeout)
	var checkDeadline time.Time
	last := time.Now()
	prev := in.progress()
	for {
		time.Sleep(pollEvery)
		now := time.Now()
		p := in.progress()
		if p != prev {
			last = now
			prev = p
		}
		if p.consumed >= published && now.Sub(last) >= quietWindow {
			ok := verifyChecks(in, checks, orc)
			if checkDeadline.IsZero() {
				checkDeadline = now.Add(checkGrace)
			}
			if allTrue(ok) || now.After(checkDeadline) {
				return last, ok, nil
			}
			continue
		}
		if now.After(deadline) {
			return last, nil, fmt.Errorf("completion wait timed out: consumed %d of %d", p.consumed, published)
		}
	}
}

// verifyChecks queries every check pair's X item and compares the list
// with the library's.
func verifyChecks(in *instance, checks []checkPair, orc *oracle) []bool {
	ok := make([]bool, len(checks))
	for i, c := range checks {
		code, list, err := in.similar(c.X)
		ok[i] = code == http.StatusOK && err == nil && sameList(list, orc.expect(c))
	}
	return ok
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// runDir returns a fresh directory for one System under the checkout.
func runDir(root, workload string, seed int64, n int) string {
	return filepath.Join(root, ".bench_build", "data",
		fmt.Sprintf("%s-s%d-p%d-%d", workload, seed, os.Getpid(), n))
}
