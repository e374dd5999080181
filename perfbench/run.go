package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"etap/internal/alert"
	"etap/internal/corpus"
	"etap/internal/store"
	"etap/internal/tenant"
)

// setupRepeats is how many times a run builds the stack; setup_s is
// the median, and the last stack is the one measured.
const setupRepeats = 3

var workloads = map[string]bool{"backfill": true, "live_feed": true, "read_mix": true}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	state    string
}

// result is one run's outcome.
type result struct {
	cfg       runConfig
	attempted int
	failed    int
	checks    checkErrs
	e2e       map[string]metric
	layer     map[string]metric
	// wall holds wall-clock throughput and latency: printed, not part
	// of the result line (see README.md, "Why not wall-clock").
	wall  map[string]metric
	notes []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run executes one workload end to end.
func run(cfg runConfig) (*result, error) {
	res := &result{cfg: cfg, e2e: map[string]metric{}, layer: map[string]metric{}, wall: map[string]metric{}}
	sk, err := startSink()
	if err != nil {
		return nil, err
	}
	defer sk.close()
	nproc := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer transport.CloseIdleConnections()

	// Inputs, all from the seed.
	rng := rand.New(rand.NewSource(cfg.seed))
	tenants := newTenantProfiles(rng)
	var subs []alert.Subscription
	ingest := cfg.workload != "read_mix"
	if ingest {
		subs = newSubscriptions(rng, sk.url)
	}
	var ly *layers
	if cfg.traced {
		ly = &layers{}
	}
	opts := stackOpts{
		extract: !ingest,
		tenants: tenants,
		subs:    subs,
		walDir:  filepath.Join(cfg.state, "wal"),
		hooks:   &http.Client{Transport: transport},
		layers:  ly,
	}

	var s *stack
	var times []setupTimes
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		s, err = newStack(opts)
		if err != nil {
			return nil, err
		}
		times = append(times, s.times)
	}
	defer s.close()
	setupMetrics(res, times, ingest)

	// The benchmark's own copies of what the program was given.
	kbase := map[string]*company{}
	for _, c := range s.kb.Companies() {
		kbase[canon(c.Name)] = &company{Industry: c.Industry, SizeBucket: c.SizeBucket, HQ: c.HQ}
	}
	profiles := map[string]profile{}
	for _, p := range tenants {
		profiles[p.ID] = profile{Industries: p.Industries, SizeBuckets: p.SizeBuckets, Locations: p.Locations, MinScore: p.MinScore, Quota: p.Quota}
	}

	if ingest {
		err = runIngest(res, s, sk, cfg, subs, kbase, profiles, ly)
	} else {
		err = runReads(res, s, cfg, tenants, kbase, profiles)
	}
	if err != nil {
		return nil, err
	}
	// The workload's own records are gone by now; what stays live is
	// the service's state.
	res.e2e["heap_mb"] = metric{Value: liveHeapMB(), Unit: "MB"}
	fillIdle(res.e2e, e2eCatalog)
	fillIdle(res.layer, layerCatalog)
	return res, nil
}

// setupMetrics reports setup_s and each setup step, every one the
// median over the repeats. The extraction pass runs only for read_mix,
// the subscription population only for the ingest workloads.
func setupMetrics(res *result, times []setupTimes, ingest bool) {
	med := func(name string, into map[string]metric, f func(setupTimes) time.Duration) {
		var xs []float64
		for _, t := range times {
			xs = append(xs, f(t).Seconds())
		}
		into[name] = metric{Value: median(xs), Unit: "s", n: len(xs)}
	}
	var walls, cpus []string
	for _, t := range times {
		walls = append(walls, fmt.Sprintf("%.2f", t.total.Seconds()))
		cpus = append(cpus, fmt.Sprintf("%.2f", t.cpu.Seconds()))
	}
	res.note("setups: wall %s s, CPU %s s", strings.Join(walls, " "), strings.Join(cpus, " "))
	med("setup_s", res.e2e, func(t setupTimes) time.Duration { return t.cpu })
	med("setup_wall_s", res.wall, func(t setupTimes) time.Duration { return t.total })
	med("corpus.world_s", res.layer, func(t setupTimes) time.Duration { return t.world })
	med("web.build_s", res.layer, func(t setupTimes) time.Duration { return t.web })
	med("core.train_s", res.layer, func(t setupTimes) time.Duration { return t.train })
	med("tenant.register_s", res.layer, func(t setupTimes) time.Duration { return t.tenants })
	if ingest {
		med("alert.subscribe_s", res.layer, func(t setupTimes) time.Duration { return t.subscribe })
	} else {
		med("core.extract_pass_s", res.layer, func(t setupTimes) time.Duration { return t.extract })
	}
}

// memReading is a runtime.MemStats reading plus the process's CPU
// time and the host's stolen time.
type memReading struct {
	alloc, gc, pauseNs uint64
	cpu, steal         time.Duration
	at                 time.Time
}

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs,
		cpu: processCPU(), steal: hostSteal(), at: time.Now()}
}

// phaseNote describes the measured phase's CPU budget.
func phaseNote(res *result, before, after memReading) {
	res.note("measured phase: wall %.2f s, process CPU %.2f s, host steal %.2f s",
		after.at.Sub(before.at).Seconds(), (after.cpu - before.cpu).Seconds(), (after.steal - before.steal).Seconds())
}

// liveHeapMB forces a GC and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeMetrics reports MemStats deltas per operation. The gated
// allocation figure is the program's: the harness's calibrated share
// (harnessKB per operation) is taken off what the phase allocated.
func runtimeMetrics(res *result, before, after memReading, ops int, harnessKB float64) {
	total := ratio(float64(after.alloc-before.alloc)/1024, float64(ops))
	res.e2e["alloc_kb_per_op"] = metric{Value: total - harnessKB, Unit: "KB/op", n: ops}
	res.note("allocated per operation: %.1f KB in all, %.1f KB of it the harness's", total, harnessKB)
	res.layer["runtime.gc_cycles"] = metric{Value: float64(after.gc - before.gc), Unit: "count"}
	res.layer["runtime.gc_pause_ms"] = metric{Value: float64(after.pauseNs-before.pauseNs) / 1e6, Unit: "ms"}
}

// storedLeads copies every lead out of the store. Call only while no
// request or ingest is in flight.
func storedLeads(s *stack) []lead {
	var out []lead
	for _, l := range s.store.Find(store.Query{}) {
		out = append(out, lead{SnippetID: l.SnippetID, Text: l.Text, Driver: l.Driver, Company: l.Company, Score: l.Score, Reviewed: l.Reviewed})
	}
	return out
}

// runIngest drives backfill or live_feed, then checks and reports.
func runIngest(res *result, s *stack, sk *sink, cfg runConfig, subs []alert.Subscription, kbase map[string]*company, profiles map[string]profile, ly *layers) error {
	st := newDocStream(cfg.seed, worldConfig)
	// Every document is generated and marshalled before timing starts.
	warmDocs := append([]prepared{probeDoc()}, prepare(st, len(streamBlock))...)
	stream := prepare(st, ingestDocs(cfg.workload, cfg.seconds))
	before := readRegistry()

	// Warm-up, untimed: the probe alone, then one stream block in
	// rounds, so pools, caches and the first lanes exist before timing
	// starts. Its outputs are checked with the rest.
	warm := newIngestRun()
	if err := warm.sendRound(s, warmDocs[:1]); err != nil {
		return err
	}
	if err := runBackfill(warm, s, warmDocs[1:]); err != nil {
		return err
	}
	hc, err := measureHarness(stream[0].body, sk)
	if err != nil {
		return err
	}
	if ly != nil {
		ly.reset()
	}
	runtime.GC()
	mid := readRegistry()
	memBefore := readMem()

	r := newIngestRun()
	if cfg.workload == "backfill" {
		err = runBackfill(r, s, stream)
	} else {
		err = runLiveFeed(r, s, stream)
	}
	if err != nil {
		return err
	}
	memAfter := readMem()
	phaseNote(res, memBefore, memAfter)
	after := readRegistry()
	got, malformed := sk.take()

	// Operations: every document sent, warm-up and probe included; a
	// refused document, an abandoned delivery or a probe whose events
	// the store did not keep is a failure.
	dead := s.manager.DeadLetters()
	res.attempted = warm.attempts + r.attempts
	res.failed = warm.failed + r.failed + len(dead)
	accepted := (warm.attempts - warm.failed) + (r.attempts - r.failed)

	// Checks.
	c := &res.checks
	for code, n := range r.codes {
		if code != http.StatusAccepted {
			c.add("POST /ingest answered %d %d times", code, n)
		}
	}
	for code, n := range warm.codes {
		if code != http.StatusAccepted {
			c.add("warm-up POST /ingest answered %d %d times", code, n)
		}
	}
	if len(dead) > 0 {
		c.add("%d alerts dead-lettered, first: %s (%s)", len(dead), dead[0].Reason, dead[0].Err)
	}
	if malformed > 0 {
		c.add("the sink received %d malformed webhook bodies", malformed)
	}
	if d := after.num("etap_alert_delivery_retries_total") - before.num("etap_alert_delivery_retries_total"); d > 0 {
		c.add("%g webhook attempts were retried: not every webhook was answered 2xx", d)
	}
	ingested := after.num("etap_alert_ingested_docs_total") - before.num("etap_alert_ingested_docs_total")
	processed := float64(after.hist("etap_alert_ingest_duration_seconds").Count - before.hist("etap_alert_ingest_duration_seconds").Count)
	if ingested != float64(accepted) || processed != float64(accepted) {
		c.add("accounting: %d documents accepted, %g counted ingested, %g processed", accepted, ingested, processed)
	}
	resent := warm.resent + r.resent
	if dup := after.num("etap_alert_duplicate_docs_total") - before.num("etap_alert_duplicate_docs_total"); dup != float64(resent) {
		c.add("re-sends: %d URLs re-sent, %g seen as duplicates", resent, dup)
	}
	if resent == 0 {
		c.add("re-sends: the stream re-sent nothing, so the re-send check is vacuous")
	}
	ws := s.wal.Stats()
	last := ws.NextSeq - 1
	var top uint64
	for p := 0; p < ingestPartitions; p++ {
		off := s.wal.CommittedOffset(p)
		if off == 0 {
			c.add("wal: partition %d committed nothing", p)
		}
		if off > top {
			top = off
		}
	}
	if last == 0 || top != last || ws.Synced != last {
		c.add("wal: last appended %d, synced %d, highest committed %d", last, ws.Synced, top)
	}

	leads := storedLeads(s)
	sent := map[string]bool{}
	docs := map[string]*corpus.Document{}
	for u, d := range warm.docs {
		sent[u], docs[u] = true, d
	}
	for u, d := range r.docs {
		sent[u], docs[u] = true, d
	}
	// Fresh events: what the manager handed the store and fanned out.
	var fresh []lead
	for _, ev := range s.tap.take() {
		fresh = append(fresh, lead{SnippetID: ev.SnippetID, Text: ev.Text, Driver: ev.Driver, Company: ev.Company, Score: ev.Score})
	}
	checkNoRepeats(c, fresh, sent)
	checkNoRepeats(c, leads, sent)
	faulted := checkStored(c, fresh, leads)
	if faulted[probeURL] {
		res.failed++
		delete(faulted, probeURL)
	}
	if len(faulted) > 0 {
		var urls []string
		for u := range faulted {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		res.note("store fault: %d streamed documents carry events of two drivers on one snippet; the store kept one lead for each such snippet: %s",
			len(urls), strings.Join(urls[:min(3, len(urls))], " "))
	}
	delete(docs, probeURL) // no ground truth
	qs := scoreExtraction(docs, leads)
	checkQuality(c, qs)
	for _, q := range qs {
		res.note("quality %-22s P=%.3f (floor %.3f, %d leads)  R=%.3f (floor %.3f, %d triggers)",
			q.driver, q.precision, q.pFloor, q.leads, q.recall, q.rFloor, q.triggers)
	}
	var mine []sub
	for _, sb := range subs {
		mine = append(mine, sub{ID: sb.ID, Company: sb.Company, Driver: sb.Driver, Tenant: sb.Tenant, MinScore: sb.MinScore})
	}
	want := expectedDeliveries(mine, fresh, kbase, profiles)
	pairs := make([]pair, len(got))
	for i, d := range got {
		pairs[i] = pair{d.sub, d.snippet, d.driver}
	}
	checkDeliveries(c, want, pairs)
	res.note("documents: %d sent (%d re-sends), %d fresh events, %d leads stored, %d deliveries", accepted, resent, len(fresh), len(leads), len(got))

	// End-to-end metrics over the measured phase.
	var lag []time.Duration
	for _, d := range got {
		if due, ok := r.due[docOf(d.snippet)]; ok {
			lag = append(lag, d.at.Sub(due))
		}
	}
	// An ingest operation, for the per-operation figures, is one alert
	// delivered: with this population webhook fan-out is nearly all of
	// the write path's work, and per document the figures move with
	// how many alerts a seed's events fan out to.
	measured := r.attempts - r.failed
	alerts := len(lag)
	cpuMS := float64((memAfter.cpu - memBefore.cpu).Microseconds()) / 1000
	res.wall["ingest_docs_per_s"] = metric{Value: float64(measured) / r.wall.Seconds(), Unit: "1/s", n: measured}
	res.layer["runtime.cpu_ms_per_op"] = metric{Value: ratio(cpuMS, float64(alerts)), Unit: "ms", n: alerts, note: "per alert delivered"}
	res.note("process CPU per document: %.2f ms (%d documents, %.1f alerts each)", ratio(cpuMS, float64(measured)), measured, ratio(float64(alerts), float64(measured)))
	res.wall["lag_p50_ms"] = latency(lag, time.Millisecond, "ms")
	if len(r.late) > 0 {
		l := summarize(r.late, time.Millisecond)
		res.note("paced feed: %d documents at %d/s; sent late by p50 %.3f ms, p99 %.3f ms", l.n, liveRate, l.p50, l.p99)
	}

	// Per-layer metrics (reported with --trace 1).
	layerIngest(res, mid, after, measured, len(lag), r, ly)
	runtimeMetrics(res, memBefore, memAfter, alerts, harnessShare(res, hc, ratio(float64(measured), float64(alerts)), 1))
	return nil
}

// layerIngest reports the ingest path's layers from registry deltas
// and the seam timings.
func layerIngest(res *result, before, after snapshot, docs, deliveries int, r *ingestRun, ly *layers) {
	d := func(key string) float64 { return after.num(key) - before.num(key) }
	res.layer["serve.ingest_us"] = latency(r.accept, time.Microsecond, "us")
	res.layer["alert.wal_appends_per_fsync"] = metric{Value: ratio(d("etap_alert_wal_appends_total"), d("etap_alert_wal_fsyncs_total")), Unit: "ratio"}
	stage := func(name string) float64 {
		k := `etap_stage_duration_seconds{stage="` + name + `"}`
		return after.hist(k).Sum - before.hist(k).Sum
	}
	sn, an, cl := stage("snippet"), stage("annotate"), stage("classify")
	tot := sn + an + cl
	res.layer["core.snippet_share"] = metric{Value: ratio(sn, tot), Unit: "ratio"}
	res.layer["core.annotate_share"] = metric{Value: ratio(an, tot), Unit: "ratio"}
	res.layer["core.classify_share"] = metric{Value: ratio(cl, tot), Unit: "ratio"}
	res.layer["core.snippets_per_doc"] = metric{Value: ratio(d("etap_extract_snippets_scored_total"), float64(docs)), Unit: "count"}
	res.layer["core.events_per_doc"] = metric{Value: ratio(d("etap_extract_events_emitted_total"), float64(docs)), Unit: "count"}
	res.layer["alert.dedup_drop_ratio"] = metric{Value: ratio(d("etap_alert_dedup_hits_total"), d("etap_alert_events_total")), Unit: "ratio"}
	cand := histDelta(after.hist("etap_alert_match_candidates"), before.hist("etap_alert_match_candidates"))
	res.layer["alert.candidates_per_event"] = metric{Value: ratio(cand.Sum, float64(cand.Count)), Unit: "count", n: int(cand.Count)}
	res.layer["alert.deliveries_per_doc"] = metric{Value: ratio(float64(deliveries), float64(docs)), Unit: "count"}
	wait := histDelta(after.hist("etap_alert_subscriber_queue_wait_seconds{"), before.hist("etap_alert_subscriber_queue_wait_seconds{"))
	res.layer["alert.lane_wait_ms"] = metric{Value: 1000 * quantile(wait, 0.5), Unit: "ms", n: int(wait.Count), note: "histogram p50"}
	res.layer["alert.lanes"] = metric{Value: float64(after.count("etap_alert_subscriber_queue_wait_seconds{")), Unit: "count"}
	res.layer["obs.series"] = metric{Value: float64(len(after)), Unit: "count"}
	res.layer["index.cache_hit_ratio"], res.layer["index.postings_per_query"] = indexLayers(before, after)
	res.layer["tenant.cache_hit_ratio"] = tenantCache(before, after)
	if ly == nil {
		return
	}
	res.layer["core.extract_ms"] = latency(ly.extract.take(), time.Millisecond, "ms")
	res.layer["web.ingest_us"] = latency(ly.index.take(), time.Microsecond, "us")
	res.layer["serve.add_leads_us"] = latency(ly.addLead.take(), time.Microsecond, "us")
	res.layer["alert.deliver_ms"] = latency(ly.deliver.take(), time.Millisecond, "ms")
}

func indexLayers(before, after snapshot) (metric, metric) {
	d := func(key string) float64 { return after.num(key) - before.num(key) }
	hits, misses := d("etap_index_cache_hits_total"), d("etap_index_cache_misses_total")
	q := d("etap_index_queries_total")
	return metric{Value: ratio(hits, hits+misses), Unit: "ratio", n: int(hits + misses)},
		metric{Value: ratio(d("etap_index_postings_scanned_total"), misses), Unit: "count", n: int(misses), note: fmt.Sprintf("%g queries", q)}
}

func tenantCache(before, after snapshot) metric {
	d := func(key string) float64 { return after.num(key) - before.num(key) }
	hits, misses := d("etap_tenant_cache_hits_total"), d("etap_tenant_cache_misses_total")
	return metric{Value: ratio(hits, hits+misses), Unit: "ratio", n: int(hits + misses)}
}

// runReads drives read_mix, then checks and reports.
func runReads(res *result, s *stack, cfg runConfig, tenants []tenant.Profile, kbase map[string]*company, profiles map[string]profile) error {
	model := storedLeads(s)
	pool := newQueryPool()
	var ids []string
	for _, p := range tenants {
		ids = append(ids, p.ID)
	}
	planner := newReadPlanner(cfg.seed, pool, ids, model)

	// The benchmark's own index of the searchable pages.
	var urls, texts []string
	for _, u := range s.web.URLs() {
		if p, ok := s.web.Page(u); ok {
			urls = append(urls, u)
			texts = append(texts, p.Title+" "+p.Text)
		}
	}
	pix := newPageIndex(urls, texts)

	// Warm-up: one round of reads, reviews left out so the store is
	// untouched, untimed.
	warm := newReadRun()
	for _, op := range newReadPlanner(cfg.seed+1, pool, ids, model).round() {
		if op.kind != opReview {
			warm.do(s, op, false)
		}
	}
	ops := planReads(planner, readRounds(cfg.seconds))
	hc, err := measureHarness(nil, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	before := readRegistry()
	memBefore := readMem()
	r := newReadRun()
	runReadMix(s, ops, r)
	memAfter := readMem()
	phaseNote(res, memBefore, memAfter)
	after := readRegistry()

	res.attempted = warm.attempts + r.attempts
	res.failed = warm.failed + r.failed
	c := &res.checks
	for code, n := range r.codes {
		if code != http.StatusOK {
			c.add("read_mix: %d responses with status %d", n, code)
		}
	}
	for code, n := range warm.codes {
		if code != http.StatusOK {
			c.add("read_mix warm-up: %d responses with status %d", n, code)
		}
	}
	checkReadMix(c, s, r, model, kbase, profiles, pix, pool)

	var reads []time.Duration
	for _, k := range []opKind{opLeads, opTenant, opSearch, opCompanies} {
		reads = append(reads, r.lat[k]...)
	}
	var mix []string
	for k := opKind(0); k < numOpKinds; k++ {
		mix = append(mix, fmt.Sprintf("%s=%d", opNames[k], len(r.lat[k])))
	}
	res.note("requests: %d (%s), %d leads in the store, %d pooled queries, %d samples checked",
		r.attempts, strings.Join(mix, " "), len(model), len(pool), len(r.samples))
	res.wall["reads_per_s"] = metric{Value: float64(r.attempts-r.failed) / r.wall.Seconds(), Unit: "1/s", n: r.attempts - r.failed, note: "reviews included"}
	res.layer["runtime.cpu_ms_per_op"] = metric{Value: ratio(float64((memAfter.cpu-memBefore.cpu).Microseconds())/1000, float64(r.attempts)), Unit: "ms", n: r.attempts}
	res.wall["read_p50_ms"] = latency(reads, time.Millisecond, "ms")
	res.wall["leads_p50_ms"] = latency(r.lat[opLeads], time.Millisecond, "ms")
	res.wall["tenant_leads_p50_ms"] = latency(r.lat[opTenant], time.Millisecond, "ms")
	res.wall["search_p50_ms"] = latency(r.lat[opSearch], time.Millisecond, "ms")

	// Per-layer: read path from timed calls and registry deltas; the
	// ingest layers are idle.
	res.layer["serve.leads_ms"] = latency(r.lat[opLeads], time.Millisecond, "ms")
	res.layer["serve.tenant_leads_ms"] = latency(r.lat[opTenant], time.Millisecond, "ms")
	res.layer["web.search_ms"] = latency(r.lat[opSearch], time.Millisecond, "ms")
	res.layer["serve.companies_ms"] = latency(r.lat[opCompanies], time.Millisecond, "ms")
	res.layer["serve.review_us"] = latency(r.lat[opReview], time.Microsecond, "us")
	res.layer["tenant.cache_hit_ratio"] = tenantCache(before, after)
	res.layer["index.cache_hit_ratio"], res.layer["index.postings_per_query"] = indexLayers(before, after)
	res.layer["obs.series"] = metric{Value: float64(len(after)), Unit: "count"}
	res.layer["alert.lanes"] = metric{Value: float64(after.count("etap_alert_subscriber_queue_wait_seconds{")), Unit: "count"}
	runtimeMetrics(res, memBefore, memAfter, r.attempts, harnessShare(res, hc, 1, 0))
	return nil
}
