package main

import (
	"strings"
	"testing"

	"etap/internal/corpus"
)

// expectFail runs a checker on corrupted input and wants at least one
// failure naming want.
func expectFail(t *testing.T, want string, run func(c *checkErrs)) {
	t.Helper()
	var c checkErrs
	run(&c)
	if c.ok() {
		t.Fatalf("check passed on corrupted input, want a failure about %q", want)
	}
	for _, m := range c.msgs {
		if strings.Contains(m, want) {
			return
		}
	}
	t.Fatalf("failures %q do not mention %q", c.msgs, want)
}

func expectPass(t *testing.T, run func(c *checkErrs)) {
	t.Helper()
	var c checkErrs
	run(&c)
	if !c.ok() {
		t.Fatalf("check failed on good input: %q", c.msgs)
	}
}

func TestCanon(t *testing.T) {
	for in, want := range map[string]string{
		"Halcyon Systems Inc": "halcyon",
		"HALCYON":             "halcyon",
		"J.P. Morgan & Co.":   "jp morgan &",
		"Inc":                 "inc",
		"":                    "",
	} {
		if got := canon(in); got != want {
			t.Errorf("canon(%q) = %q, want %q", in, got, want)
		}
	}
}

func deliveryFixture() ([]sub, []lead, map[string]*company, map[string]profile) {
	subs := []sub{
		{ID: "s1", Company: "Acme Inc"},
		{ID: "s2", Company: "acme", Driver: "mergers-acquisitions", MinScore: 0.9},
		{ID: "s3", Company: "Acme", Tenant: "t-fin"},
		{ID: "s4", Company: "Acme", Tenant: "t-retail"},
		{ID: "s5", Company: "Acme", Tenant: "t-missing"},
		{ID: "s6", Company: "Globex"},
	}
	leads := []lead{
		{SnippetID: "u1#0", Driver: "mergers-acquisitions", Company: "Acme Corp", Score: 0.95},
		{SnippetID: "u1#1", Driver: "change-in-management", Company: "ACME", Score: 0.8},
		// A second driver on the same snippet is a delivery of its own.
		{SnippetID: "u1#1", Driver: "mergers-acquisitions", Company: "ACME", Score: 0.7},
	}
	kbase := map[string]*company{"acme": {Industry: "financial services", SizeBucket: "large", HQ: "Boston"}}
	tenants := map[string]profile{
		"t-fin":    {Industries: []string{"Financial Services"}},
		"t-retail": {Industries: []string{"retail"}},
	}
	return subs, leads, kbase, tenants
}

func TestExpectedDeliveriesRestatesRules(t *testing.T) {
	subs, leads, kbase, tenants := deliveryFixture()
	got := expectedDeliveries(subs, leads, kbase, tenants)
	const ma, cim = "mergers-acquisitions", "change-in-management"
	want := map[pair]bool{
		{"s1", "u1#0", ma}: true, {"s1", "u1#1", cim}: true, {"s1", "u1#1", ma}: true,
		{"s2", "u1#0", ma}: true,                                                      // driver and floor exclude u1#1
		{"s3", "u1#0", ma}: true, {"s3", "u1#1", cim}: true, {"s3", "u1#1", ma}: true, // ICP admits Acme
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing %v", p)
		}
	}
}

func TestCheckDeliveries(t *testing.T) {
	subs, leads, kbase, tenants := deliveryFixture()
	want := expectedDeliveries(subs, leads, kbase, tenants)
	var good []pair
	for p := range want {
		good = append(good, p)
	}
	expectPass(t, func(c *checkErrs) { checkDeliveries(c, want, good) })
	expectFail(t, "never got", func(c *checkErrs) { checkDeliveries(c, want, good[1:]) })
	expectFail(t, "more than once", func(c *checkErrs) { checkDeliveries(c, want, append(good, good[0])) })
	expectFail(t, "does not match", func(c *checkErrs) {
		checkDeliveries(c, want, append(good, pair{"s4", "u1#0", "mergers-acquisitions"}))
	})
	expectFail(t, "vacuous", func(c *checkErrs) { checkDeliveries(c, map[pair]bool{}, nil) })
}

func TestCheckNoRepeats(t *testing.T) {
	sent := map[string]bool{"u1": true, "u2": true}
	a := lead{SnippetID: "u1#0", Driver: "d", Company: "Acme Inc", Text: "Acme bought Globex."}
	b := lead{SnippetID: "u2#3", Driver: "d", Company: "ACME", Text: "Acme bought Globex."}
	expectPass(t, func(c *checkErrs) { checkNoRepeats(c, []lead{a}, sent) })
	expectFail(t, "repeats", func(c *checkErrs) { checkNoRepeats(c, []lead{a, b}, sent) })
	expectFail(t, "no document", func(c *checkErrs) {
		checkNoRepeats(c, []lead{{SnippetID: "u9#0", Driver: "d", Text: "x"}}, sent)
	})
	expectFail(t, "no streamed lead", func(c *checkErrs) { checkNoRepeats(c, nil, sent) })
}

func TestCheckQuality(t *testing.T) {
	doc := &corpus.Document{URL: "u1", Sentences: []corpus.Sentence{
		{Text: "Acme acquired Globex.", Driver: corpus.MergersAcquisitions},
		{Text: "The weather was fine.", Driver: ""},
	}}
	docs := map[string]*corpus.Document{"u1": doc}
	hit := lead{SnippetID: "u1#0", Driver: string(corpus.MergersAcquisitions), Text: "Acme acquired Globex. The weather was fine."}
	miss := lead{SnippetID: "u1#1", Driver: string(corpus.MergersAcquisitions), Text: "The weather was fine."}
	qs := scoreExtraction(docs, []lead{hit})
	if qs[0].precision != 1 || qs[0].recall != 1 {
		t.Fatalf("M&A quality %+v, want P=R=1", qs[0])
	}
	// One correct lead and three wrong ones is too few to judge; one
	// correct lead and forty wrong ones fails the precision floor.
	qs = scoreExtraction(docs, []lead{hit, miss, miss, miss})
	expectPass(t, func(c *checkErrs) { checkQuality(c, qs[:1]) })
	leads := []lead{hit}
	for i := 0; i < 40; i++ {
		leads = append(leads, miss)
	}
	qs = scoreExtraction(docs, leads)
	expectFail(t, "precision", func(c *checkErrs) { checkQuality(c, qs[:1]) })
	// No lead at all: recall 0 — and a driver without leads fails as
	// having nothing to score.
	qs = scoreExtraction(docs, nil)
	expectFail(t, "nothing to score", func(c *checkErrs) { checkQuality(c, qs[:1]) })
}

func leadsFixture() []lead {
	return []lead{
		{SnippetID: "a#0", Driver: "d1", Score: 0.99},
		{SnippetID: "a#1", Driver: "d2", Score: 0.97},
		{SnippetID: "b#0", Driver: "d1", Score: 0.97},
		{SnippetID: "c#0", Driver: "d1", Score: 0.60},
	}
}

func TestCheckLeadsPage(t *testing.T) {
	all := leadsFixture()
	q := leadsQuery{top: 3}
	good := []lead{all[0], all[1], all[2]}
	expectPass(t, func(c *checkErrs) { checkLeadsPage(c, good, q, all, nil) })
	expectFail(t, "out of order", func(c *checkErrs) {
		checkLeadsPage(c, []lead{all[0], all[2], all[1]}, q, all, nil)
	})
	expectFail(t, "want 3", func(c *checkErrs) { checkLeadsPage(c, good[:2], q, all, nil) })
	drv := leadsQuery{driver: "d1", top: 10}
	expectFail(t, "filters", func(c *checkErrs) { checkLeadsPage(c, []lead{all[0], all[1], all[2], all[3]}, drv, all, nil) })
	unrev := leadsQuery{unreviewed: true, top: 10}
	reviewed := map[string]bool{"a#1": true}
	expectPass(t, func(c *checkErrs) {
		checkLeadsPage(c, []lead{all[0], all[2], all[3]}, unrev, all, reviewed)
	})
	expectFail(t, "want 3", func(c *checkErrs) { checkLeadsPage(c, all, unrev, all, reviewed) })
}

func TestCheckTenantPage(t *testing.T) {
	kbase := map[string]*company{
		"acme":   {Industry: "retail"},
		"globex": {Industry: "energy"},
	}
	p := profile{Industries: []string{"Retail"}, MinScore: 0.5, Quota: 2}
	q := leadsQuery{top: 50}
	good := []lead{
		{SnippetID: "a#0", Company: "Acme Inc", Blended: 0.9, Rank: 1},
		{SnippetID: "a#1", Company: "ACME", Blended: 0.7, Rank: 2},
	}
	expectPass(t, func(c *checkErrs) { checkTenantPage(c, "t", good, p, q, kbase, nil) })
	outside := []lead{good[0], {SnippetID: "g#0", Company: "Globex", Blended: 0.8, Rank: 2}}
	expectFail(t, "outside the ICP", func(c *checkErrs) { checkTenantPage(c, "t", outside, p, q, kbase, nil) })
	unknown := []lead{{SnippetID: "x#0", Company: "Nobody", Blended: 0.8, Rank: 1}}
	expectFail(t, "outside the ICP", func(c *checkErrs) { checkTenantPage(c, "t", unknown, p, q, kbase, nil) })
	rising := []lead{good[1], {SnippetID: "a#0", Company: "Acme", Blended: 0.9, Rank: 2}}
	rising[0].Rank = 1
	expectFail(t, "above its predecessor", func(c *checkErrs) { checkTenantPage(c, "t", rising, p, q, kbase, nil) })
	badRank := []lead{good[0], good[1]}
	badRank[1].Rank = 3
	expectFail(t, "has rank", func(c *checkErrs) { checkTenantPage(c, "t", badRank, p, q, kbase, nil) })
	low := []lead{{SnippetID: "a#0", Company: "Acme", Blended: 0.4, Rank: 1}}
	expectFail(t, "under the floor", func(c *checkErrs) { checkTenantPage(c, "t", low, p, q, kbase, nil) })
	over := append(append([]lead(nil), good...), lead{SnippetID: "a#2", Company: "Acme", Blended: 0.6, Rank: 3})
	expectFail(t, "over the limit", func(c *checkErrs) { checkTenantPage(c, "t", over, p, q, kbase, nil) })
}

func TestCheckCompanies(t *testing.T) {
	expectPass(t, func(c *checkErrs) {
		checkCompanies(c, []companyScore{{"a", 1, 1}, {"b", 0.5, 2}})
	})
	expectFail(t, "outside (0, 1]", func(c *checkErrs) { checkCompanies(c, []companyScore{{"a", 1.5, 1}}) })
	expectFail(t, "above its predecessor", func(c *checkErrs) {
		checkCompanies(c, []companyScore{{"a", 0.5, 1}, {"b", 0.6, 1}})
	})
	expectFail(t, "empty", func(c *checkErrs) { checkCompanies(c, nil) })
}

func TestCheckReviewed(t *testing.T) {
	stored := []lead{{SnippetID: "a", Reviewed: true}, {SnippetID: "b"}}
	expectPass(t, func(c *checkErrs) { checkReviewed(c, stored, map[string]bool{"a": true}) })
	expectFail(t, "not marked", func(c *checkErrs) { checkReviewed(c, stored, map[string]bool{"a": true, "b": true}) })
	expectFail(t, "never reviewed", func(c *checkErrs) { checkReviewed(c, stored, map[string]bool{"b": true}) })
	expectFail(t, "reviewed nothing", func(c *checkErrs) { checkReviewed(c, stored, nil) })
}

func TestPageIndexCount(t *testing.T) {
	ix := newPageIndex([]string{"p1", "p2", "p3"}, []string{
		"Acme announced a new CEO in Q4 2004.",
		"The new chief executive of Acme was announced.",
		"CEO news: nothing new at Globex.",
	})
	for q, want := range map[string]int{
		`"new ceo"`:        1, // contiguous only in p1
		`new ceo`:          2, // both terms, any order: p1 and p3
		`"Acme" announced`: 2, // stemmed: announced == announce
		`acme "Q4 2004"`:   1,
		`"new chief" acme`: 1,
		`globex "new ceo"`: 0,
		`"new`:             3, // unterminated quote: a plain term
	} {
		if got := ix.count(q); got != want {
			t.Errorf("count(%s) = %d, want %d", q, got, want)
		}
	}
}

func TestCheckSearch(t *testing.T) {
	good := searchResult{query: "q", total: 3, topURLs: []string{"a", "b"}, idxURLs: []string{"a", "b"}, idxScore: []float64{2, 1}}
	expectPass(t, func(c *checkErrs) { checkSearch(c, good, 3) })
	expectFail(t, "brute force counts", func(c *checkErrs) { checkSearch(c, good, 4) })
	rising := good
	rising.idxScore = []float64{1, 2}
	expectFail(t, "above hit", func(c *checkErrs) { checkSearch(c, rising, 3) })
	swapped := good
	swapped.topURLs = []string{"b", "a"}
	expectFail(t, "differs", func(c *checkErrs) { checkSearch(c, swapped, 3) })
}

func TestCheckStored(t *testing.T) {
	a := lead{SnippetID: "u1#0", Driver: "d1", Score: 0.9, Text: "x"}
	b := lead{SnippetID: "u2#0", Driver: "d1", Score: 0.8, Text: "y"}
	expectPass(t, func(c *checkErrs) { checkStored(c, []lead{a, b}, []lead{a, b}) })
	expectFail(t, "not stored", func(c *checkErrs) { checkStored(c, []lead{a, b}, []lead{a}) })
	rescored := a
	rescored.Score = 0.5
	expectFail(t, "stored as", func(c *checkErrs) { checkStored(c, []lead{a}, []lead{rescored}) })
	relabeled := a
	relabeled.Driver = "d2"
	expectFail(t, "stored as", func(c *checkErrs) { checkStored(c, []lead{a}, []lead{relabeled}) })
	expectFail(t, "vacuous", func(c *checkErrs) { checkStored(c, nil, []lead{a}) })

	// Two drivers on one snippet: the store keeps the first driver's
	// lead with the second's score. That document is returned as hit by
	// the store fault, and nothing else is.
	a2 := lead{SnippetID: "u1#0", Driver: "d2", Score: 0.6, Text: "x"}
	kept := lead{SnippetID: "u1#0", Driver: "d1", Score: 0.6, Text: "x"}
	var c checkErrs
	faulted := checkStored(&c, []lead{a, a2, b}, []lead{kept, b})
	if !c.ok() || len(faulted) != 1 || !faulted["u1"] {
		t.Fatalf("faulted %v, failures %q; want only u1 and no failure", faulted, c.msgs)
	}
}
