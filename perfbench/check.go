package main

// Output checkers. Each one recomputes what the program should have
// produced from the benchmark's own copy of the inputs, restating the
// rules instead of calling the code under test, and reports the first
// few differences. None passes on empty input: a check that saw nothing
// to check fails.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"etap/internal/corpus"
	"etap/internal/textproc"
)

// checkErrs collects check failures, keeping the first few of each.
type checkErrs struct{ msgs []string }

func (c *checkErrs) add(format string, args ...any) {
	if len(c.msgs) < 40 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checkErrs) ok() bool { return len(c.msgs) == 0 }

// canon restates the documented company canonicalization: lower-case,
// quote and punctuation marks dropped, trailing corporate-suffix words
// removed without ever emptying the name.
func canon(name string) string {
	name = strings.Map(func(r rune) rune {
		switch r {
		case '.', ',', '\'', '"', '(', ')':
			return -1
		}
		return r
	}, strings.ToLower(name))
	f := strings.Fields(name)
	for len(f) > 1 && companySuffixes[f[len(f)-1]] {
		f = f[:len(f)-1]
	}
	return strings.Join(f, " ")
}

var companySuffixes = map[string]bool{
	"inc": true, "corp": true, "ltd": true, "llc": true, "plc": true,
	"group": true, "holdings": true, "co": true, "company": true,
	"incorporated": true, "corporation": true, "limited": true,
	"systems": true, "technologies": true, "industries": true,
	"partners": true, "solutions": true, "networks": true,
	"capital": true, "labs": true, "software": true, "enterprises": true,
}

// lead is the benchmark's view of one stored lead.
type lead struct {
	SnippetID string
	Text      string
	Driver    string
	Company   string
	Score     float64
	Reviewed  bool    `json:"reviewed"`
	Rank      int     `json:"rank"`
	Blended   float64 `json:"blended"`
}

// docOf returns the document URL of a snippet ID ("<url>#<i>").
func docOf(snippetID string) string {
	if i := strings.LastIndexByte(snippetID, '#'); i >= 0 {
		return snippetID[:i]
	}
	return snippetID
}

// company is the benchmark's copy of one knowledge-base record's
// categorical fields.
type company struct {
	Industry, SizeBucket, HQ string
}

// profile is the benchmark's copy of a tenant ICP's hard filters.
type profile struct {
	Industries, SizeBuckets, Locations []string
	MinScore                           float64
	Quota                              int
}

// admits restates the ICP hard filter: each non-empty criterion list
// must hold the record's value (case-insensitively); with any
// criterion set, a company without a record fails.
func (p profile) admits(c *company) bool {
	in := func(list []string, v string) bool {
		for _, s := range list {
			if strings.EqualFold(s, v) {
				return true
			}
		}
		return false
	}
	if len(p.Industries) > 0 && (c == nil || !in(p.Industries, c.Industry)) {
		return false
	}
	if len(p.SizeBuckets) > 0 && (c == nil || !in(p.SizeBuckets, c.SizeBucket)) {
		return false
	}
	if len(p.Locations) > 0 && (c == nil || !in(p.Locations, c.HQ)) {
		return false
	}
	return true
}

// sub is the benchmark's copy of one subscription.
type sub struct {
	ID, Company, Driver, Tenant string
	MinScore                    float64
}

// pair is one (subscription, snippet, driver) delivery: one snippet
// can carry events of several drivers.
type pair struct{ sub, snippet, driver string }

// expectedDeliveries is the linear scan: for every subscription, every
// fresh lead it matches — same driver when it names one, same
// canonical company, score at least its floor, and for tenant-scoped
// subscriptions an ICP that admits the lead's KB record (a missing
// tenant admits nothing).
func expectedDeliveries(subs []sub, fresh []lead, kbase map[string]*company, tenants map[string]profile) map[pair]bool {
	byCompany := map[string][]lead{}
	for _, l := range fresh {
		byCompany[canon(l.Company)] = append(byCompany[canon(l.Company)], l)
	}
	out := map[pair]bool{}
	for _, s := range subs {
		cands := fresh
		if s.Company != "" {
			cands = byCompany[canon(s.Company)]
		}
		for _, l := range cands {
			if s.Driver != "" && s.Driver != l.Driver {
				continue
			}
			if l.Score < s.MinScore {
				continue
			}
			if s.Tenant != "" {
				p, ok := tenants[s.Tenant]
				if !ok || !p.admits(kbase[canon(l.Company)]) {
					continue
				}
			}
			out[pair{s.ID, l.SnippetID, l.Driver}] = true
		}
	}
	return out
}

// checkDeliveries wants every expected pair delivered exactly once and
// nothing else.
func checkDeliveries(c *checkErrs, want map[pair]bool, got []pair) {
	if len(want) == 0 {
		c.add("deliveries: the scan expects no delivery at all, so the check would be vacuous")
		return
	}
	seen := make(map[pair]int, len(got))
	for _, p := range got {
		seen[p]++
		switch {
		case !want[p]:
			c.add("deliveries: %s got %s (%s), which it does not match", p.sub, p.snippet, p.driver)
		case seen[p] == 2:
			c.add("deliveries: %s got %s (%s) more than once", p.sub, p.snippet, p.driver)
		}
	}
	missing := 0
	for p := range want {
		if seen[p] == 0 {
			if missing < 5 {
				c.add("deliveries: %s never got %s (%s)", p.sub, p.snippet, p.driver)
			}
			missing++
		}
	}
	if missing > 5 {
		c.add("deliveries: %d expected deliveries missing in all", missing)
	}
}

// checkNoRepeats wants no stored lead to repeat an earlier lead's
// driver, canonical company and text, and every lead to come from a
// document the benchmark sent.
func checkNoRepeats(c *checkErrs, leads []lead, sent map[string]bool) {
	if len(leads) == 0 {
		c.add("leads: the store holds no streamed lead")
		return
	}
	seen := map[string]string{}
	for _, l := range leads {
		key := l.Driver + "\x00" + canon(l.Company) + "\x00" + l.Text
		if first, dup := seen[key]; dup {
			c.add("leads: %s repeats %s (driver, company and text)", l.SnippetID, first)
		}
		seen[key] = l.SnippetID
		if !sent[docOf(l.SnippetID)] {
			c.add("leads: %s comes from no document the benchmark sent", l.SnippetID)
		}
	}
}

// checkStored wants every fresh event kept by the store under its own
// snippet ID with its own driver and score. internal/store keys leads
// by snippet ID alone, so when two drivers fire on one snippet it keeps
// the first driver's lead with the last driver's score and drops the
// other lead (see CHANGES.md, FOUND). Such snippets are not reported
// here: their documents are returned, and the caller counts the probe
// that shows this fault in every run as a failed operation. Any other
// difference is a failure.
func checkStored(c *checkErrs, fresh, stored []lead) map[string]bool {
	if len(fresh) == 0 {
		c.add("store: no fresh event to look up, so the check would be vacuous")
		return nil
	}
	byID := make(map[string]lead, len(stored))
	for _, l := range stored {
		byID[l.SnippetID] = l
	}
	drivers := map[string]map[string]bool{}
	for _, e := range fresh {
		if drivers[e.SnippetID] == nil {
			drivers[e.SnippetID] = map[string]bool{}
		}
		drivers[e.SnippetID][e.Driver] = true
	}
	faulted := map[string]bool{}
	for _, e := range fresh {
		l, ok := byID[e.SnippetID]
		if ok && l.Driver == e.Driver && l.Score == e.Score && l.Text == e.Text {
			continue
		}
		if len(drivers[e.SnippetID]) > 1 {
			faulted[docOf(e.SnippetID)] = true
			continue
		}
		if !ok {
			c.add("store: fresh event %s (%s) was not stored", e.SnippetID, e.Driver)
		} else {
			c.add("store: fresh event %s (%s, %.4f) stored as %s, %.4f", e.SnippetID, e.Driver, e.Score, l.Driver, l.Score)
		}
	}
	return faulted
}

// quality is one driver's extraction precision and recall against the
// generator's ground truth.
type quality struct {
	driver                            string
	leads, trueLeads                  int
	triggers, recalledTriggers        int
	precision, recall, pFloor, rFloor float64
}

// scoreExtraction scores stored leads against ground truth. A lead is
// correct when its snippet holds a trigger sentence of its driver
// (corpus.Document.ContainsTrigger); a trigger sentence is recalled
// when some lead of its driver from the same document contains it.
func scoreExtraction(docs map[string]*corpus.Document, leads []lead) []quality {
	byDoc := map[string][]lead{}
	for _, l := range leads {
		byDoc[docOf(l.SnippetID)] = append(byDoc[docOf(l.SnippetID)], l)
	}
	var out []quality
	for _, d := range corpus.Drivers {
		q := quality{driver: string(d)}
		for url, doc := range docs {
			for _, l := range byDoc[url] {
				if l.Driver != string(d) {
					continue
				}
				q.leads++
				if doc.ContainsTrigger(l.Text, d) {
					q.trueLeads++
				}
			}
			for _, s := range doc.Sentences {
				if s.Driver != d {
					continue
				}
				q.triggers++
				for _, l := range byDoc[url] {
					if l.Driver == string(d) && strings.Contains(l.Text, s.Text) {
						q.recalledTriggers++
						break
					}
				}
			}
		}
		q.precision = ratio(float64(q.trueLeads), float64(q.leads))
		q.recall = ratio(float64(q.recalledTriggers), float64(q.triggers))
		q.pFloor, q.rFloor = qualityFloors(d)
		out = append(out, q)
	}
	return out
}

// qualityFloors are the per-driver precision and recall floors of the
// streamed extraction. The paper's Table 1 reports P 0.744 / R 0.806
// for mergers and acquisitions and P 0.656 / R 0.786 for change in
// management at the 0.5 posterior; it has no row for revenue growth,
// which takes the lower of the two. The floors sit floorMargin below those
// figures: document-level scoring over whole pages differs from the
// paper's snippet-level test sets, and a floor is a tripwire for a
// broken classifier, not a reproduction of the table.
const floorMargin = 0.15

func qualityFloors(d corpus.Driver) (precision, recall float64) {
	switch d {
	case corpus.MergersAcquisitions:
		return 0.744 - floorMargin, 0.806 - floorMargin
	default:
		return 0.656 - floorMargin, 0.786 - floorMargin
	}
}

// checkQuality fails a driver whose precision or recall lies below its
// floor beyond sampling error: an ingest run streams a few hundred
// documents, about a hundred leads per driver, so a measured share
// moves by ±0.05 from run to run on the same code. A share fails when
// even the upper end of its one-sided 99% Wilson score interval is
// below the floor.
func checkQuality(c *checkErrs, qs []quality) {
	for _, q := range qs {
		if q.leads == 0 || q.triggers == 0 {
			c.add("quality %s: %d leads over %d trigger sentences, nothing to score", q.driver, q.leads, q.triggers)
			continue
		}
		if hi := wilsonUpper(q.trueLeads, q.leads); hi < q.pFloor {
			c.add("quality %s: precision %.3f (at most %.3f at 99%%, %d leads) below floor %.3f", q.driver, q.precision, hi, q.leads, q.pFloor)
		}
		if hi := wilsonUpper(q.recalledTriggers, q.triggers); hi < q.rFloor {
			c.add("quality %s: recall %.3f (at most %.3f at 99%%, %d triggers) below floor %.3f", q.driver, q.recall, hi, q.triggers, q.rFloor)
		}
	}
}

// wilsonUpper is the upper end of the one-sided 99% Wilson score
// interval of k successes in n trials.
func wilsonUpper(k, n int) float64 {
	const z = 2.326
	p, nf := float64(k)/float64(n), float64(n)
	return (p + z*z/(2*nf) + z*math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))) / (1 + z*z/nf)
}

// leadsQuery is one /leads request shape.
type leadsQuery struct {
	driver     string
	min        float64
	unreviewed bool
	top        int
}

func (q leadsQuery) matches(l lead, reviewed map[string]bool) bool {
	if q.driver != "" && l.Driver != q.driver {
		return false
	}
	if l.Score < q.min {
		return false
	}
	return !q.unreviewed || !reviewed[l.SnippetID]
}

// checkLeadsPage wants a page in non-increasing score order with ties
// by ascending snippet ID, every lead passing the filters, and exactly
// min(top, matching) leads, counted over the benchmark's copy of the
// store and of the reviews it made.
func checkLeadsPage(c *checkErrs, page []lead, q leadsQuery, all []lead, reviewed map[string]bool) {
	for i, l := range page {
		if !q.matches(l, reviewed) {
			c.add("/leads %+v: %s does not pass the filters", q, l.SnippetID)
		}
		if i > 0 {
			p := page[i-1]
			if l.Score > p.Score || (l.Score == p.Score && l.SnippetID <= p.SnippetID) {
				c.add("/leads %+v: %s (%.6f) out of order after %s (%.6f)", q, l.SnippetID, l.Score, p.SnippetID, p.Score)
			}
		}
		if q.unreviewed && l.Reviewed {
			c.add("/leads %+v: %s is marked reviewed", q, l.SnippetID)
		}
	}
	want := 0
	for _, l := range all {
		if q.matches(l, reviewed) {
			want++
		}
	}
	if want > q.top {
		want = q.top
	}
	if len(page) != want {
		c.add("/leads %+v: %d leads, want %d", q, len(page), want)
	}
}

// checkTenantPage wants only leads whose KB record passes the
// profile's hard filters and the base query's filters, blended scores
// non-increasing and at least the profile's floor, at most
// min(top, quota) leads, and ranks 1..n.
func checkTenantPage(c *checkErrs, tenant string, page []lead, p profile, q leadsQuery, kbase map[string]*company, reviewed map[string]bool) {
	limit := q.top
	if p.Quota > 0 && p.Quota < limit {
		limit = p.Quota
	}
	if len(page) > limit {
		c.add("/leads?tenant=%s: %d leads over the limit %d", tenant, len(page), limit)
	}
	for i, l := range page {
		if !p.admits(kbase[canon(l.Company)]) {
			c.add("/leads?tenant=%s: %s (%q) is outside the ICP", tenant, l.SnippetID, l.Company)
		}
		if !q.matches(l, reviewed) {
			c.add("/leads?tenant=%s: %s does not pass the query filters", tenant, l.SnippetID)
		}
		if l.Blended < p.MinScore {
			c.add("/leads?tenant=%s: %s blended %.4f under the floor %.4f", tenant, l.SnippetID, l.Blended, p.MinScore)
		}
		if i > 0 && l.Blended > page[i-1].Blended {
			c.add("/leads?tenant=%s: %s blended %.6f above its predecessor's %.6f", tenant, l.SnippetID, l.Blended, page[i-1].Blended)
		}
		if l.Rank != i+1 {
			c.add("/leads?tenant=%s: position %d has rank %d", tenant, i+1, l.Rank)
		}
	}
}

// companyScore is one /companies row.
type companyScore struct {
	Company string
	MRR     float64
	Events  int
}

// checkCompanies wants MRR values in (0, 1], non-increasing.
func checkCompanies(c *checkErrs, page []companyScore) {
	if len(page) == 0 {
		c.add("/companies: empty page")
	}
	for i, s := range page {
		if !(s.MRR > 0 && s.MRR <= 1) {
			c.add("/companies: %s MRR %.6f outside (0, 1]", s.Company, s.MRR)
		}
		if i > 0 && s.MRR > page[i-1].MRR {
			c.add("/companies: %s MRR %.6f above its predecessor's %.6f", s.Company, s.MRR, page[i-1].MRR)
		}
	}
}

// checkReviewed wants the store's reviewed set to equal the set the
// benchmark reviewed.
func checkReviewed(c *checkErrs, stored []lead, made map[string]bool) {
	if len(made) == 0 {
		c.add("reviews: the run reviewed nothing")
	}
	got := map[string]bool{}
	for _, l := range stored {
		if l.Reviewed {
			got[l.SnippetID] = true
			if !made[l.SnippetID] {
				c.add("reviews: %s is reviewed but was never reviewed through the API", l.SnippetID)
			}
		}
	}
	for id := range made {
		if !got[id] {
			c.add("reviews: %s was reviewed through the API but is not marked", id)
		}
	}
}

// pageIndex is the benchmark's own positional index of the searchable
// pages, built with the index's documented normalization: lower-cased,
// stemmed word tokens and verbatim number tokens over title and text.
type pageIndex struct {
	urls  []string
	toks  [][]string
	terms map[string][]int32 // term → ascending page numbers
}

// indexTerms applies the documented normalization.
func indexTerms(text string) []string {
	var out []string
	for _, t := range textproc.Tokenize(text) {
		switch t.Kind {
		case textproc.KindWord:
			out = append(out, textproc.Stem(t.Lower()))
		case textproc.KindNumber:
			out = append(out, t.Text)
		}
	}
	return out
}

func newPageIndex(urls, texts []string) *pageIndex {
	ix := &pageIndex{urls: urls, terms: map[string][]int32{}}
	for i, text := range texts {
		ts := indexTerms(text)
		ix.toks = append(ix.toks, ts)
		seen := map[string]bool{}
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				ix.terms[t] = append(ix.terms[t], int32(i))
			}
		}
	}
	return ix
}

// parseQuery restates the query syntax: double-quoted spans are
// phrases, everything else bare terms; an unterminated quote is
// dropped and its tail parsed as terms.
func parseQuery(q string) (terms []string, phrases [][]string) {
	for {
		start := strings.IndexByte(q, '"')
		if start < 0 {
			break
		}
		end := strings.IndexByte(q[start+1:], '"')
		if end < 0 {
			q = q[:start] + " " + q[start+1:]
			break
		}
		if ts := indexTerms(q[start+1 : start+1+end]); len(ts) > 0 {
			phrases = append(phrases, ts)
		}
		q = q[:start] + " " + q[start+1+end+1:]
	}
	return indexTerms(q), phrases
}

// count is the brute-force hit count: pages holding every term and
// every phrase as a contiguous token run.
func (ix *pageIndex) count(query string) int {
	terms, phrases := parseQuery(query)
	all := append([]string(nil), terms...)
	for _, p := range phrases {
		all = append(all, p...)
	}
	if len(all) == 0 {
		return 0
	}
	// Candidates: pages holding the rarest term, then confirm each.
	sort.Slice(all, func(i, j int) bool { return len(ix.terms[all[i]]) < len(ix.terms[all[j]]) })
	n := 0
	for _, d := range ix.terms[all[0]] {
		if ix.matches(int(d), all, phrases) {
			n++
		}
	}
	return n
}

func (ix *pageIndex) matches(d int, all []string, phrases [][]string) bool {
	toks := ix.toks[d]
	has := map[string]bool{}
	for _, t := range toks {
		has[t] = true
	}
	for _, t := range all {
		if !has[t] {
			return false
		}
	}
	for _, p := range phrases {
		if !containsRun(toks, p) {
			return false
		}
	}
	return true
}

func containsRun(toks, run []string) bool {
outer:
	for i := 0; i+len(run) <= len(toks); i++ {
		for j, t := range run {
			if toks[i+j] != t {
				continue outer
			}
		}
		return true
	}
	return false
}

// searchResult is what one search call returned.
type searchResult struct {
	query    string
	total    int       // hits with k <= 0
	topURLs  []string  // web.Search top-k, in order
	idxURLs  []string  // the index's own top-k, in order
	idxScore []float64 // and its scores
}

// checkSearch wants the full hit count to equal the brute-force count,
// top-k scores non-increasing, and web.Search's top-k to be the
// index's top-k.
func checkSearch(c *checkErrs, r searchResult, brute int) {
	if r.total != brute {
		c.add("search %s: %d hits, brute force counts %d", r.query, r.total, brute)
	}
	for i := 1; i < len(r.idxScore); i++ {
		if r.idxScore[i] > r.idxScore[i-1] {
			c.add("search %s: hit %d scores %.6f above hit %d's %.6f", r.query, i+1, r.idxScore[i], i, r.idxScore[i-1])
		}
	}
	if strings.Join(r.topURLs, " ") != strings.Join(r.idxURLs, " ") {
		c.add("search %s: web.Search top-k %v differs from the index's %v", r.query, r.topURLs, r.idxURLs)
	}
}
