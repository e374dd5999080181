package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"etap/internal/corpus"
)

// opKind is one kind of read_mix request.
type opKind int

const (
	opLeads opKind = iota
	opTenant
	opSearch
	opCompanies
	opReview
	numOpKinds
)

var opNames = [numOpKinds]string{"leads", "tenant_leads", "search", "companies", "review"}

// readRoundMix is the make-up of one read_mix round of 200 requests.
var readRoundMix = [numOpKinds]int{
	opLeads:     96, // plain, driver-filtered, min, unreviewed: 24 each
	opTenant:    64,
	opSearch:    32,
	opCompanies: 4,
	opReview:    4,
}

// readOp is one planned request.
type readOp struct {
	kind   opKind
	target string     // request path and query
	q      leadsQuery // /leads filters (leads and tenant ops)
	tenant string
	query  string // search
	k      int
	review string // snippet ID to review
}

// readPlanner draws read_mix requests from the seed.
type readPlanner struct {
	rng       *rand.Rand
	tenant    func() int
	search    func() int
	pool      []string
	tenantIDs []string
	leads     []lead // review candidates, in draw order
	nextRev   int
}

func newReadPlanner(seed int64, pool []string, tenantIDs []string, leads []lead) *readPlanner {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	p := &readPlanner{rng: rng, pool: pool, tenantIDs: tenantIDs}
	p.tenant = newZipf(rng, len(tenantIDs))
	p.search = newZipf(rng, len(pool))
	p.leads = append([]lead(nil), leads...)
	rng.Shuffle(len(p.leads), func(i, j int) { p.leads[i], p.leads[j] = p.leads[j], p.leads[i] })
	return p
}

// round returns one shuffled round of requests.
func (p *readPlanner) round() []readOp {
	var ops []readOp
	drivers := corpus.Drivers
	for k := opKind(0); k < numOpKinds; k++ {
		for i := 0; i < readRoundMix[k]; i++ {
			op := readOp{kind: k}
			switch k {
			case opLeads:
				q := leadsQuery{top: 50}
				switch i % 4 {
				case 1:
					q.driver = string(drivers[p.rng.Intn(len(drivers))])
					q.top = 20
				case 2:
					q.min = 0.99
					q.top = 100
				case 3:
					q.unreviewed = true
				}
				op.q = q
				op.target = "/leads?" + q.values().Encode()
			case opTenant:
				op.tenant = p.tenantIDs[p.tenant()]
				q := leadsQuery{top: 50}
				// Three query shapes per tenant, skewed toward the first.
				switch v := p.rng.Intn(10); {
				case v >= 8:
					q.driver = string(drivers[p.rng.Intn(len(drivers))])
				case v >= 6:
					q.min = 0.9
				}
				op.q = q
				vals := q.values()
				vals.Set("tenant", op.tenant)
				op.target = "/leads?" + vals.Encode()
			case opSearch:
				op.query = p.pool[p.search()]
				op.k = 10
			case opCompanies:
				op.target = "/companies?top=20"
			case opReview:
				if p.nextRev >= len(p.leads) {
					panic("read_mix: ran out of leads to review")
				}
				op.review = p.leads[p.nextRev].SnippetID
				p.nextRev++
				op.target = "/leads/review?id=" + url.QueryEscape(op.review)
			}
			ops = append(ops, op)
		}
	}
	p.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (q leadsQuery) values() url.Values {
	v := url.Values{}
	if q.driver != "" {
		v.Set("driver", q.driver)
	}
	if q.min > 0 {
		v.Set("min", fmt.Sprint(q.min))
	}
	if q.unreviewed {
		v.Set("unreviewed", "1")
	}
	v.Set("top", fmt.Sprint(q.top))
	return v
}

// sampleEvery keeps every n-th response body of each kind for the
// after-run checks.
const sampleEvery = 8

// sampled is one kept response with the reviews that were settled
// when it was served.
type sampled struct {
	op       readOp
	body     []byte
	reviewed int  // reviews completed before the request
	exact    bool // no review was in flight while it was served
}

// readRun records what read_mix sent and saw.
type readRun struct {
	mu       sync.Mutex
	lat      [numOpKinds][]time.Duration
	attempts int
	failed   int
	codes    map[int]int
	searches []searchResult
	samples  []sampled
	wall     time.Duration

	// reviews in completion order; started counts reviews sent.
	reviews []string
	started int
}

func newReadRun() *readRun { return &readRun{codes: map[int]int{}} }

// readPace sizes a read_mix run: readPace × --seconds requests in
// whole rounds, about what this machine serves in that time.
const readPace = 120

// readRounds is the read_mix run's round count, at least one.
// planReads draws a run's requests, rounds after rounds, before the
// measured phase starts.
func planReads(p *readPlanner, rounds int) []readOp {
	var ops []readOp
	for i := 0; i < rounds; i++ {
		ops = append(ops, p.round()...)
	}
	return ops
}

func readRounds(seconds float64) int {
	n := 0
	for _, k := range readRoundMix {
		n += k
	}
	if r := int(readPace * seconds / float64(n)); r > 1 {
		return r
	}
	return 1
}

// runReadMix is the closed loop: nproc clients work through the given
// number of rounds.
func runReadMix(s *stack, queue []readOp, r *readRun) {
	var (
		mu   sync.Mutex
		seen [numOpKinds]int
	)
	start := time.Now()
	next := func() (readOp, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			return readOp{}, false
		}
		op := queue[0]
		queue = queue[1:]
		return op, true
	}
	keep := func(k opKind) bool {
		mu.Lock()
		defer mu.Unlock()
		seen[k]++
		return seen[k]%sampleEvery == 1
	}
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, ok := next()
				if !ok {
					return
				}
				r.do(s, op, keep(op.kind))
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
}

// do runs one request and records it.
func (r *readRun) do(s *stack, op readOp, keep bool) {
	if op.kind == opSearch {
		t := time.Now()
		pages := s.web.Search(op.query, op.k)
		took := time.Since(t)
		res := searchResult{query: op.query}
		for _, pg := range pages {
			res.topURLs = append(res.topURLs, pg.URL)
		}
		r.mu.Lock()
		r.attempts++
		r.lat[opSearch] = append(r.lat[opSearch], took)
		r.searches = append(r.searches, res)
		r.mu.Unlock()
		return
	}
	method := http.MethodGet
	if op.kind == opReview {
		method = http.MethodPost
	}
	r.mu.Lock()
	settled, inflight := len(r.reviews), r.started-len(r.reviews)
	if op.kind == opReview {
		r.started++
	}
	r.mu.Unlock()
	t := time.Now()
	code, body := s.do(method, op.target, nil)
	took := time.Since(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	r.codes[code]++
	if code != http.StatusOK {
		r.failed++
		return
	}
	r.lat[op.kind] = append(r.lat[op.kind], took)
	if op.kind == opReview {
		r.reviews = append(r.reviews, op.review)
		return
	}
	if keep {
		exact := inflight == 0 && len(r.reviews) == settled && r.started == settled
		r.samples = append(r.samples, sampled{op: op, body: append([]byte(nil), body...), reviewed: settled, exact: exact})
	}
}

// checkReadMix verifies the kept responses and every search against
// the benchmark's own model.
func checkReadMix(c *checkErrs, s *stack, r *readRun, model []lead, kbase map[string]*company, profiles map[string]profile, pix *pageIndex, pool []string) {
	counts := map[opKind]int{}
	nonEmpty := map[opKind]int{}
	for _, sm := range r.samples {
		reviewed := map[string]bool{}
		for _, id := range r.reviews[:sm.reviewed] {
			reviewed[id] = true
		}
		switch sm.op.kind {
		case opLeads:
			var page []lead
			if err := json.Unmarshal(sm.body, &page); err != nil {
				c.add("/leads: decoding: %v", err)
				continue
			}
			counts[opLeads]++
			if len(page) > 0 {
				nonEmpty[opLeads]++
			}
			if !sm.exact {
				// A review raced the request; only the order and the
				// cap hold regardless of which side it landed on.
				if len(page) > sm.op.q.top {
					c.add("/leads %+v: %d leads over top", sm.op.q, len(page))
				}
				continue
			}
			checkLeadsPage(c, page, sm.op.q, model, reviewed)
		case opTenant:
			var page []lead
			if err := json.Unmarshal(sm.body, &page); err != nil {
				c.add("/leads?tenant: decoding: %v", err)
				continue
			}
			counts[opTenant]++
			if len(page) > 0 {
				nonEmpty[opTenant]++
			}
			checkTenantPage(c, sm.op.tenant, page, profiles[sm.op.tenant], sm.op.q, kbase, reviewed)
		case opCompanies:
			var page []companyScore
			if err := json.Unmarshal(sm.body, &page); err != nil {
				c.add("/companies: decoding: %v", err)
				continue
			}
			counts[opCompanies]++
			checkCompanies(c, page)
		}
	}
	for _, k := range []opKind{opLeads, opTenant, opCompanies} {
		if nonEmpty[k] == 0 && k != opCompanies || counts[k] == 0 {
			c.add("%s: no non-empty response was checked (%d checked)", opNames[k], counts[k])
		}
	}

	// Every pooled query: full count against brute force, and the
	// top-k order. The timed calls' result lengths must agree too.
	total := map[string]int{}
	hits := 0
	for _, q := range pool {
		res := searchResult{query: q, total: len(s.web.Search(q, 0))}
		for _, pg := range s.web.Search(q, 10) {
			res.topURLs = append(res.topURLs, pg.URL)
		}
		for _, h := range s.web.Index().Search(q, 10) {
			res.idxURLs = append(res.idxURLs, h.DocID)
			res.idxScore = append(res.idxScore, h.Score)
		}
		checkSearch(c, res, pix.count(q))
		total[q] = res.total
		hits += res.total
	}
	if hits == 0 {
		c.add("search: no pooled query has a hit")
	}
	for _, res := range r.searches {
		want := total[res.query]
		if want > 10 {
			want = 10
		}
		if len(res.topURLs) != want {
			c.add("search %s: timed call returned %d pages, want %d", res.query, len(res.topURLs), want)
		}
	}

	// Reviews: the store's reviewed set equals what the run reviewed.
	made := map[string]bool{}
	for _, id := range r.reviews {
		made[id] = true
	}
	checkReviewed(c, storedLeads(s), made)
}
