package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tencentrec"
)

// Workload sizes. Replay runs rounds of a fixed stream size on a fresh
// System each, so every round does the same work.
const (
	replayN    = 25000
	replayWarm = 2000
	// readBackN is how many queries of the read-back mix each replay
	// round sends once its stream has completed.
	readBackN  = 5000
	freshWarm  = 10000
	freshRate  = 3000 // actions/s
	freshQPS   = 2000 // queries/s
	probeEvery = 20 * time.Millisecond
	probePoll  = time.Millisecond
	probeLimit = time.Second // the paper's sub-second bound
	// freshPhase is the shortest fresh phase: 1,000 probes, enough for
	// a p99 with ten samples beyond it.
	freshPhase = 20 * time.Second
	// probeWindows and queryWindows split each fresh phase's probe and
	// query samples into stretches whose percentiles are reported as
	// medians over the run, so a contended stretch moves one window.
	probeWindows = 4
	queryWindows = 7
)

// Tuple sampling rates of the traced passes (one trace per this many
// spout emissions). The System keeps the 64 most recently sampled traces
// and a trace enters that ring when it is sampled, so a trace sampled
// too soon after it is evicted before its later stages run, and those
// stages' queue waits read short. A replay round's stream therefore
// samples fewer than 64 traces (about 63 of its 25k actions), and fresh
// samples about 190 a second, which keeps a trace in the ring for a
// third of a second, well past its pipeline latency.
const (
	traceReplay = 400
	traceFresh  = 16
)

// queryGen draws the seeded read mix: Zipf(1.1) users and items.
type queryGen struct {
	rng          *rand.Rand
	users, items *rand.Zipf
	mix          []int // cumulative weights over endpoints
}

func newQueryGen(seed int64, recommend, similar, hot int) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	return &queryGen{
		rng:   rng,
		users: rand.NewZipf(rng, zipfS, 1, numUsers-1),
		items: rand.NewZipf(rng, zipfS, 1, numItems-1),
		mix:   []int{recommend, recommend + similar, recommend + similar + hot},
	}
}

// next returns the endpoint and path of the next query.
func (q *queryGen) next() (string, string) {
	x := q.rng.Intn(q.mix[2])
	switch {
	case x < q.mix[0]:
		return "recommend", "/recommend?n=10&user=" + userID(int(q.users.Uint64()))
	case x < q.mix[1]:
		return "similar", "/similar?n=10&item=" + itemID(int(q.items.Uint64()))
	default:
		return "hot", "/hot?n=10&user=" + userID(int(q.users.Uint64()))
	}
}

// runReplay drives rounds of a pre-generated stream published as fast
// as Publish returns, each on a fresh System, with no reads until the
// round has completed.
func runReplay(p *pass) error {
	traceEvery := p.traceEvery(traceReplay)
	start := time.Now()
	var roundDur time.Duration
	for r := 0; r == 0 || time.Since(start)+roundDur/2 < time.Duration(p.seconds*float64(time.Second)); r++ {
		t0 := time.Now()
		p.heap.take()
		tag := "r" + strconv.Itoa(r)
		gen := newGenerator(subSeed(p.seed, tag), tag)
		warm := gen.stream(replayWarm)
		nw := len(gen.checks)
		stream := gen.stream(replayN)
		orc := newOracle()
		orc.observeAll(warm)
		lt := time.Now()
		orc.observeAll(stream)
		p.libRate = append(p.libRate, float64(len(stream))/time.Since(lt).Seconds())

		runtime.GC()
		s0 := time.Now()
		in, err := newInstance(runDir(p.root, p.workload, p.seed, r), traceEvery)
		if err != nil {
			return err
		}
		last, _, _, err := p.ingest(in, warm, gen.checks[:nw], orc, 0)
		if err != nil {
			in.close()
			return err
		}
		p.setupS = append(p.setupS, last.Sub(s0).Seconds())
		p.sampleHost()

		runtime.GC()
		w := p.openWindow(in)
		_, rate, fresh, err := p.ingest(in, stream, gen.checks[nw:], orc, len(warm))
		if err != nil {
			in.close()
			return err
		}
		p.closeWindow(in, w, len(stream), 0)
		p.ingestRate = append(p.ingestRate, rate)
		p.fresh = append(p.fresh, fresh)
		qg := newQueryGen(subSeed(p.seed, "q"+tag), 6, 3, 1)
		// The round's garbage is the benchmark's, not the reads'.
		runtime.GC()
		p.windows = append(p.windows, p.readBack(in, qg, readBackN))
		if p.traced {
			p.sweep(in, orc)
		}
		p.peakHeapMB = append(p.peakHeapMB, p.heap.take())
		if err := in.close(); err != nil {
			return err
		}
		roundDur = time.Since(t0)
	}
	return nil
}

// readBack sends n queries of the mix in a closed loop and returns
// their service times as one window.
func (p *pass) readBack(in *instance, qg *queryGen, n int) queryWindow {
	w := queryWindow{lat: make([]float64, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		ep, path := qg.next()
		_, _, t0, t1 := p.request(in, ep, path, p.rec.id(), "")
		w.lat = append(w.lat, float64(t1.Sub(t0))/1e3)
	}
	w.seconds = time.Since(start).Seconds()
	return w
}

// window is a traced measurement window's opening state.
type window struct {
	s0  scrape
	mon *layerMonitor
}

func (p *pass) openWindow(in *instance) window {
	if !p.traced {
		return window{}
	}
	return window{s0: scrapeSystem(in.sys), mon: startLayerMonitor(in)}
}

func (p *pass) closeWindow(in *instance, w window, actions, queries int) {
	if !p.traced {
		return
	}
	w.mon.finish()
	p.layers.addWindow(w.s0, scrapeSystem(in.sys), actions, queries, w.mon)
}

// probe is one freshness probe: a check pair published at its due time
// and polled through /similar until served with the library's score.
type probe struct {
	c    checkPair
	want []tencentrec.ScoredItem
	due  time.Time
	next time.Time // next poll
	id   uint64
}

// runFresh drives open-loop ingest at freshRate beside an open loop of
// freshQPS queries, with a probe every probeEvery. The run is cut into
// as many phases of at least freshPhase as fit, each on a freshly set-up
// System, so the state a phase builds, and the latency that state
// costs, does not grow with the run's length.
func runFresh(p *pass) error {
	phases := max(1, int(p.seconds/freshPhase.Seconds()))
	for ph := 0; ph < phases; ph++ {
		if err := p.runFreshPhase(ph, p.seconds/float64(phases)); err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) runFreshPhase(ph int, seconds float64) error {
	tag := strconv.Itoa(ph)
	orc := newOracle()
	warmGen := newGenerator(subSeed(p.seed, "w"+tag), "w"+tag)
	warm := warmGen.stream(freshWarm)
	orc.observeAll(warm)
	in, err := p.setup(p.traceEvery(traceFresh), warm, warmGen.checks, orc)
	if err != nil {
		return err
	}
	defer in.close()

	sg := newGenerator(subSeed(p.seed, "f"+tag), "f"+tag)
	stream := sg.stream(int(freshRate * seconds))
	pg := newGenerator(subSeed(p.seed, "p"+tag), "p"+tag)
	probes := make([]*probe, int(seconds/probeEvery.Seconds()))
	lt := time.Now()
	orc.observeAll(stream)
	p.libRate = append(p.libRate, float64(len(stream))/time.Since(lt).Seconds())
	for i := range probes {
		c := pg.newCheck()
		a := c.actions()
		orc.observe(a[0])
		orc.observe(a[1])
		probes[i] = &probe{c: c, want: orc.expect(c), id: p.rec.id()}
	}
	qg := newQueryGen(subSeed(p.seed, "q"+tag), 7, 3, 0)

	// Each loop paces itself with its own timer.
	pubPace, err := newPacer()
	if err != nil {
		return err
	}
	defer pubPace.close()
	readPace, err := newPacer()
	if err != nil {
		return err
	}
	defer readPace.close()

	runtime.GC()
	w := p.openWindow(in)
	start := time.Now().Add(10 * time.Millisecond)
	for i, pr := range probes {
		pr.due = start.Add(time.Duration(i) * probeEvery)
		pr.next = pr.due
	}
	var wg sync.WaitGroup
	var firstPub time.Time
	var pubLate, readLate []float64
	var qw queryWindow
	var fresh []float64
	var polls int
	wg.Add(2)
	go func() {
		defer wg.Done()
		firstPub, pubLate = p.ingestLoop(in, pubPace, stream, probes, start, time.Second/freshRate)
	}()
	go func() {
		defer wg.Done()
		qw, fresh, polls, readLate = p.readLoop(in, readPace, qg, probes, start, seconds)
	}()
	wg.Wait()
	total := len(warm) + len(stream) + 2*len(probes)
	last, ok, err := awaitCompletion(in, int64(total), sg.checks, orc)
	if err != nil {
		return err
	}
	p.countChecks(ok)
	p.closeWindow(in, w, len(stream)+2*len(probes), len(qw.lat)+polls)
	p.ingestRate = append(p.ingestRate, float64(len(stream)+2*len(probes))/last.Sub(firstPub).Seconds())
	p.windows = append(p.windows, qw.split(queryWindows)...)
	p.fresh = append(p.fresh, chunks(fresh, probeWindows)...)
	p.probes += len(fresh)
	p.late = append(append(p.late, pubLate...), readLate...)
	if p.traced {
		p.sweep(in, orc)
	}
	return nil
}

// ingestLoop publishes the stream at a fixed rate and each probe's two
// actions at its due time, open loop: a late publish delays nothing
// scheduled after it. It returns the first publish time and each
// publish's lateness in ms.
func (p *pass) ingestLoop(in *instance, pace *pacer, stream []action, probes []*probe, start time.Time, gap time.Duration) (time.Time, []float64) {
	var late []float64
	var first time.Time
	ai, pi := 0, 0
	for ai < len(stream) || pi < len(probes) {
		actDue := start.Add(time.Duration(ai) * gap)
		isProbe := pi < len(probes) && (ai >= len(stream) || !probes[pi].due.After(actDue))
		due := actDue
		if isProbe {
			due = probes[pi].due
		}
		pace.sleepUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		if isProbe {
			pr := probes[pi]
			a := pr.c.actions()
			t := p.publish(in, a[0], pr.id, "probe")
			p.publish(in, a[1], pr.id, "probe")
			if first.IsZero() {
				first = t
			}
			pi++
			continue
		}
		t := p.publish(in, stream[ai], p.rec.id(), "")
		if first.IsZero() {
			first = t
		}
		ai++
	}
	return first, late
}

// readLoop issues the open-loop queries and polls each probe from its
// due time at most probePoll apart until it is served with the
// library's score or probeLimit passes. Queries and polls run in order
// of their scheduled times, a query first on a tie, and a query waits
// for its time precisely. A query is timed from its due time, or from the
// end of the loop's previous call if that is later: one loop sends
// queries and polls in turn, and time a query spends queued behind the
// benchmark's own calls is not the System's latency. It returns the
// query latencies, each probe's freshness in ms in the order the probes
// resolved, the number of polls, and each query's lateness after its
// due time in ms.
func (p *pass) readLoop(in *instance, pace *pacer, qg *queryGen, probes []*probe, start time.Time, seconds float64) (queryWindow, []float64, int, []float64) {
	nq := int(freshQPS * seconds)
	gap := time.Second / freshQPS
	qw := queryWindow{lat: make([]float64, 0, nq)}
	late := make([]float64, 0, nq)
	fresh := make([]float64, 0, len(probes))
	var open []*probe
	polls, k, next := 0, 0, 0
	var free time.Time // end of the loop's previous call
	for k < nq || next < len(probes) || len(open) > 0 {
		// The earliest scheduled event: the next query (which = -1), the
		// next probe's first poll (which = len(open)) or an open probe's
		// next poll. The query is considered first and wins a tie.
		var at time.Time
		which := -2
		consider := func(t time.Time, w int) {
			if which == -2 || t.Before(at) {
				at, which = t, w
			}
		}
		if k < nq {
			consider(start.Add(time.Duration(k)*gap), -1)
		}
		if next < len(probes) {
			consider(probes[next].due, len(open))
		}
		for i, pr := range open {
			consider(pr.next, i)
		}
		if which < 0 {
			pace.waitUntil(at)
			ep, path := qg.next()
			late = append(late, float64(time.Since(at))/1e6)
			_, _, _, t1 := p.request(in, ep, path, p.rec.id(), "")
			from := at
			if free.After(at) {
				from = free
			}
			qw.lat = append(qw.lat, float64(t1.Sub(from))/1e3)
			qw.seconds = t1.Sub(start).Seconds()
			free = t1
			k++
			continue
		}
		// Polls need no spin: their timing moves freshness by a fraction
		// of the poll period at most.
		pace.sleepUntil(at)
		if which == len(open) {
			open = append(open, probes[next])
			next++
		}
		pr := open[which]
		polls++
		// Probes are due on a grid of probePoll from start, so their
		// polls share wake-ups. A poll more than a period late re-anchors
		// the probe's schedule rather than making it catch up, so a slow
		// stretch is not answered with a burst of polls.
		pr.next = at.Add(probePoll)
		if now := time.Now(); pr.next.Before(now) {
			pr.next = now.Add(probePoll)
		}
		f, done := p.pollProbe(in, pr)
		free = time.Now()
		if done {
			fresh = append(fresh, f)
			open = append(open[:which], open[which+1:]...)
		}
	}
	return qw, fresh, polls, late
}

// pollProbe polls one probe once. A probe served with the library's list
// is done, with its freshness in ms; one unseen past probeLimit is done
// and counts as failed.
func (p *pass) pollProbe(in *instance, pr *probe) (float64, bool) {
	code, body, _, t1 := p.request(in, "similar", "/similar?n=10&item="+url.QueryEscape(pr.c.X), pr.id, "probe")
	fresh := float64(t1.Sub(pr.due)) / 1e6
	if code == http.StatusOK {
		if list, err := decodeList(body); err == nil && sameList(list, pr.want) {
			p.op(true, "probe", nil)
			p.rec.add(pr.id, "probe", "", pr.due, t1)
			return fresh, true
		}
	}
	if t1.Sub(pr.due) > probeLimit {
		p.op(false, "probe", fmt.Errorf("probe %s unseen after %v", pr.c.X, probeLimit))
		p.rec.add(pr.id, "probe", "", pr.due, t1)
		return fresh, true
	}
	return 0, false
}
