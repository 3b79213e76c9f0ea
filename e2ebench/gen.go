package main

import (
	"math/rand"
	"strconv"
	"time"

	"tencentrec"
)

// Generator shape. Users are uniform: Zipf over users makes hot users
// hit the 200-item history cap, after which every action of theirs fans
// out to ~200 pair updates and a run no longer finishes in minutes.
const (
	numUsers      = 50000
	numItems      = 4000
	numClusters   = 8
	clusterItems  = numItems / numClusters
	inClusterFrac = 0.8
	zipfS         = 1.1
	// checkEvery weaves one check pair into about every checkEvery-th
	// stream slot.
	checkEvery = 500
)

// actionTypes are drawn uniformly for every generated action.
var actionTypes = []tencentrec.ActionType{
	tencentrec.ActionBrowse, tencentrec.ActionClick, tencentrec.ActionRead,
	tencentrec.ActionShare, tencentrec.ActionPurchase,
}

// action is one generated user action.
type action struct {
	User, Item string
	Type       tencentrec.ActionType
}

// checkPair is a fresh user rating two fresh items X and Y. Nothing else
// touches X or Y, so /similar?item=X must return exactly [Y] with the
// library's score, however stale the rest of the store may be.
type checkPair struct {
	User, X, Y string
	TX, TY     tencentrec.ActionType
}

func (c checkPair) actions() [2]action {
	return [2]action{
		{User: c.User, Item: c.X, Type: c.TX},
		{User: c.User, Item: c.Y, Type: c.TY},
	}
}

// generator draws the seeded action stream. The System only ever sees
// the generated actions; the seed stays with the benchmark.
type generator struct {
	rng    *rand.Rand
	items  *rand.Zipf // rank over the whole catalog
	inClus *rand.Zipf // rank inside one topical cluster
	// tag keeps check-pair identifiers of different streams of one run
	// apart, so every check pair's user and items are fresh.
	tag    string
	checks []checkPair
}

func newGenerator(seed int64, tag string) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		rng:    rng,
		items:  rand.NewZipf(rng, zipfS, 1, numItems-1),
		inClus: rand.NewZipf(rng, zipfS, 1, clusterItems-1),
		tag:    tag,
	}
}

func userID(u int) string { return "u" + strconv.Itoa(u) }
func itemID(i int) string { return "i" + strconv.Itoa(i) }

// next draws one ordinary action: a uniform user, and an item from the
// user's topical cluster 80% of the time, from the whole catalog
// otherwise, both by Zipf(1.1) rank.
func (g *generator) next() action {
	u := g.rng.Intn(numUsers)
	var item int
	if g.rng.Float64() < inClusterFrac {
		item = int(g.inClus.Uint64())*numClusters + u%numClusters
	} else {
		item = int(g.items.Uint64())
	}
	return action{
		User: userID(u),
		Item: itemID(item),
		Type: actionTypes[g.rng.Intn(len(actionTypes))],
	}
}

// newCheck draws a fresh check pair and records it.
func (g *generator) newCheck() checkPair {
	id := g.tag + "-" + strconv.Itoa(len(g.checks))
	c := checkPair{
		User: "chk-u-" + id,
		X:    "chk-x-" + id,
		Y:    "chk-y-" + id,
		TX:   actionTypes[g.rng.Intn(len(actionTypes))],
		TY:   actionTypes[g.rng.Intn(len(actionTypes))],
	}
	g.checks = append(g.checks, c)
	return c
}

// stream draws n slots, weaving a check pair (two actions) into about
// every checkEvery-th slot.
func (g *generator) stream(n int) []action {
	out := make([]action, 0, n+2*n/checkEvery+2)
	for len(out) < n {
		if g.rng.Intn(checkEvery) == 0 {
			a := g.newCheck().actions()
			out = append(out, a[0], a[1])
			continue
		}
		out = append(out, g.next())
	}
	return out
}

// raw converts an action to the System's wire format, stamped with its
// creation time at the generator.
func (a action) raw(ts time.Time) tencentrec.RawAction {
	return tencentrec.RawAction{User: a.User, Item: a.Item, Action: string(a.Type), TS: ts.UnixNano()}
}

// oracle is the sequential library fed the same actions as the System.
// It scores check pairs and probes and measures how stale the stored
// similar lists are.
type oracle struct {
	lib *tencentrec.Recommender
	// t advances one millisecond per observed action. Windowing is off
	// in the System's configuration, so only the order matters.
	t time.Time
}

func newOracle() *oracle {
	return &oracle{
		lib: tencentrec.NewRecommender(tencentrec.RecommenderConfig{}),
		t:   time.Unix(1_500_000_000, 0),
	}
}

func (o *oracle) observe(a action) {
	o.t = o.t.Add(time.Millisecond)
	o.lib.Observe(tencentrec.NewAction(a.User, a.Item, a.Type, o.t))
}

func (o *oracle) observeAll(as []action) {
	for _, a := range as {
		o.observe(a)
	}
}

// expect returns the similar list /similar?item=c.X must serve.
func (o *oracle) expect(c checkPair) []tencentrec.ScoredItem {
	return o.lib.SimilarItems(c.X, 10)
}

// similarity is the library's current score of an item pair.
func (o *oracle) similarity(p, q string) float64 {
	return o.lib.Similarity(p, q, o.t)
}
