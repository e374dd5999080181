package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// metrics (catalog_test.go keeps the two in step).
type metricSpec struct {
	name, unit, better string
}

// e2eCatalog is every end-to-end metric; each workload reports all of
// them (see README.md for what each means per workload).
var e2eCatalog = []metricSpec{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"alloc_kb_per_op", "KB/op", "lower"},
}

// layerCatalog is every per-layer metric of the traced run. A layer a
// workload leaves idle reports 0.
var layerCatalog = []metricSpec{
	{"corpus.world_s", "s", "lower"},
	{"web.build_s", "s", "lower"},
	{"core.train_s", "s", "lower"},
	{"core.extract_pass_s", "s", "lower"},
	{"tenant.register_s", "s", "lower"},
	{"alert.subscribe_s", "s", "lower"},
	{"serve.ingest_us", "us", "lower"},
	{"alert.wal_appends_per_fsync", "ratio", "higher"},
	{"web.ingest_us", "us", "lower"},
	{"core.extract_ms", "ms", "lower"},
	{"core.snippet_share", "ratio", "lower"},
	{"core.annotate_share", "ratio", "lower"},
	{"core.classify_share", "ratio", "lower"},
	{"core.snippets_per_doc", "count", "lower"},
	{"core.events_per_doc", "count", "lower"},
	{"alert.dedup_drop_ratio", "ratio", "lower"},
	{"serve.add_leads_us", "us", "lower"},
	{"alert.candidates_per_event", "count", "lower"},
	{"alert.deliveries_per_doc", "count", "lower"},
	{"alert.deliver_ms", "ms", "lower"},
	{"alert.lane_wait_ms", "ms", "lower"},
	{"alert.lanes", "count", "lower"},
	{"obs.series", "count", "lower"},
	{"serve.leads_ms", "ms", "lower"},
	{"serve.tenant_leads_ms", "ms", "lower"},
	{"web.search_ms", "ms", "lower"},
	{"serve.companies_ms", "ms", "lower"},
	{"serve.review_us", "us", "lower"},
	{"tenant.cache_hit_ratio", "ratio", "higher"},
	{"index.cache_hit_ratio", "ratio", "higher"},
	{"index.postings_per_query", "count", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"harness.alloc_kb_per_op", "KB/op", "lower"},
	{"harness.cpu_ms_per_op", "ms", "lower"},
}

// fillIdle adds every catalog metric a run did not measure, as 0 with
// an "idle" note, so every run prints the same metric set.
func fillIdle(got map[string]metric, catalog []metricSpec) {
	for _, m := range catalog {
		if _, ok := got[m.name]; !ok {
			got[m.name] = metric{Unit: m.unit, note: "idle"}
		}
	}
}
