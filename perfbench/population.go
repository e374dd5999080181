package main

import (
	"fmt"
	"math"
	"math/rand"

	"etap/internal/alert"
	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/gazetteer"
	"etap/internal/kb"
	"etap/internal/tenant"
)

// Population sizes and shape. They follow the 100k-subscription,
// 1,000-tenant scenario of the alert package's matching benchmark
// (internal/alert/bench_test.go, buildMatchBench): 100,000
// subscriptions over 2,000 companies, skewed so a few hot companies
// hold most watchers; 1% watch every company, 30% narrow one company
// to one driver, the rest watch one company on every driver; half are
// scoped to a tenant.
const (
	numTenants       = 1000
	numSubscriptions = 100_000
	// watchUniverse is the matching benchmark's company count. The
	// corpus writes about len(corpus.CompanyInventory()) of them; the
	// rest are companies without news in the stream.
	watchUniverse = 2000
	// everyCompanyPct and narrowedPct are the matching benchmark's
	// shares, in percent, of subscriptions that watch every company
	// and of those narrowed to one driver.
	everyCompanyPct = 1
	narrowedPct     = 30
)

// newTenantProfiles draws the ICP profiles: one to four industries,
// sometimes size buckets or a headquarters location, a keyword or two,
// a blended-score floor and a quota.
func newTenantProfiles(rng *rand.Rand) []tenant.Profile {
	out := make([]tenant.Profile, numTenants)
	for i := range out {
		p := tenant.Profile{
			ID:         fmt.Sprintf("tenant-%d", i+1),
			Name:       fmt.Sprintf("bench tenant %d", i+1),
			Industries: pickN(rng, kb.Industries, 1+rng.Intn(4)),
			MinScore:   math.Round(rng.Float64()*60) / 100,
		}
		if rng.Intn(3) == 0 {
			p.SizeBuckets = pickN(rng, kb.SizeBuckets, 2+rng.Intn(2))
		}
		if rng.Intn(10) == 0 {
			p.Locations = pickN(rng, gazetteer.Places, 3)
		}
		if rng.Intn(2) == 0 {
			p.Keywords = pickN(rng, tenantKeywords, 1+rng.Intn(2))
		}
		if rng.Intn(2) == 0 {
			p.Quota = 5 + rng.Intn(46)
		}
		out[i] = p
	}
	return out
}

// tenantKeywords grade ICP fit; drawn from the KB's keyword vocabulary
// and the words trigger sentences use.
var tenantKeywords = []string{
	"cloud", "analytics", "security", "platform", "payments", "network",
	"acquisition", "revenue", "chief", "growth", "merger", "quarter",
}

// pickN returns n distinct members of pool in draw order.
func pickN(rng *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// newSubscriptions draws the subscription population in the shape of
// the matching benchmark. The watch list is the corpus companies plus
// quiet ones up to watchUniverse, ranked in a seeded order; a
// subscription's company is the most popular of three uniform draws
// (the benchmark's min-of-three skew), so wherever a corpus company
// lands in the ranking decides how many watchers it has. Score floors
// are drawn in [0.5, 0.95] (the benchmark fixes 0.5) so the floor rule
// is exercised. Webhooks all point at the loopback sink.
func newSubscriptions(rng *rand.Rand, hookURL string) []alert.Subscription {
	suffixes := []string{"Inc", "Corp", "Ltd", "Group", "Holdings"}
	universe := append([]string(nil), corpus.CompanyInventory()...)
	for i := len(universe); i < watchUniverse; i++ {
		universe = append(universe, fmt.Sprintf("Quiet Company %d", i))
	}
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	skew := func() string {
		i := rng.Intn(len(universe))
		for k := 0; k < 2; k++ {
			if j := rng.Intn(len(universe)); j < i {
				i = j
			}
		}
		return universe[i]
	}
	out := make([]alert.Subscription, numSubscriptions)
	for i := range out {
		s := alert.Subscription{
			ID:         fmt.Sprintf("bsub-%d", i+1),
			Company:    skew(),
			MinScore:   math.Round((0.5+rng.Float64()*0.45)*100) / 100,
			WebhookURL: hookURL,
		}
		if rng.Intn(2) == 0 {
			s.Company += " " + suffixes[rng.Intn(len(suffixes))]
		}
		switch r := rng.Intn(100); {
		case r < everyCompanyPct:
			s.Company = ""
		case r < everyCompanyPct+narrowedPct:
			s.Driver = string(corpus.Drivers[rng.Intn(len(corpus.Drivers))])
		}
		if rng.Intn(2) == 0 {
			s.Tenant = fmt.Sprintf("tenant-%d", 1+rng.Intn(numTenants))
		}
		out[i] = s
	}
	return out
}

// queryWords narrow a company query the way a salesperson would.
var queryWords = []string{
	"acquisition", "acquired", "merger", "ceo", "appointed", "president",
	"revenue", "growth", "quarter", "announced", "chief", "officer",
	"deal", "earnings", "percent", "board", "agreed", "named",
}

// newQueryPool builds the search pool: the default drivers' smart
// queries plus company-phrase queries ("\"<company>\" <word>"), more
// distinct queries than the index's 512-entry result cache holds.
func newQueryPool() []string {
	var pool []string
	for _, d := range core.DefaultDrivers() {
		pool = append(pool, d.SmartQueries...)
	}
	for _, c := range corpus.CompanyInventory() {
		pool = append(pool, fmt.Sprintf("%q", c))
		for _, w := range queryWords {
			pool = append(pool, fmt.Sprintf("%q %s", c, w))
		}
	}
	return pool
}

// newZipf draws indices in [0, n) with a skewed popularity (s = 1.1), so a
// few keys are hot and the tail is long.
func newZipf(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
