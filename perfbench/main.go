// Command perfbench is ETAP's end-to-end benchmark. It stands up the
// service the way `etapd run` does — world, index, three trained sales
// drivers, lead store, HTTP handler with knowledge base and tenant
// registry, alert manager with write-ahead log, tracer and webhook
// delivery to an in-process loopback sink — drives it in-process
// through serve.Server.ServeHTTP and web.Search, checks every output
// against the benchmark's own computations, and prints its metrics.
//
// Usage:
//
//	perfbench --workload backfill|live_feed|read_mix --seed N --seconds S --trace 0|1
//	perfbench --workload W --seed N --seconds S --overhead
//
// --trace 0 reports the end-to-end metrics; --trace 1 wraps the alert
// seams and reports the per-layer metrics. --overhead runs both back to
// back and prints how much tracing moved each end-to-end metric. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "backfill, live_feed or read_mix")
		seed     = flag.Int64("seed", 1, "input seed: stream, populations and read mix")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		overhead = flag.Bool("overhead", false, "run untraced and traced back to back and print the difference")
		state    = flag.String("state", filepath.Join(".bench_build", "perfbench"), "scratch directory (ingest WAL)")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want backfill, live_feed or read_mix)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, state: *state}

	if *overhead {
		plain, err := run(cfg)
		if err != nil {
			fail(err)
		}
		cfg.traced = true
		traced, err := run(cfg)
		if err != nil {
			fail(err)
		}
		report(plain)
		report(traced)
		fmt.Println("tracing overhead (untraced -> traced):")
		for _, m := range []map[string]metric{plain.e2e, plain.wall} {
			for _, name := range sortedKeys(m) {
				a, b := m[name].Value, traced.e2e[name].Value
				if _, ok := traced.e2e[name]; !ok {
					b = traced.wall[name].Value
				}
				fmt.Printf("  %-18s %12.6g -> %12.6g %s (%+.1f%%)\n", name, a, b, m[name].Unit, 100*ratio(b-a, a))
			}
		}
		finish(traced, traced.layer)
		return
	}

	cfg.traced = *trace == 1
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	report(res)
	if cfg.traced {
		finish(res, res.layer)
	} else {
		finish(res, res.e2e)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// finish prints the result line and exits non-zero when a check failed.
func finish(res *result, metrics map[string]metric) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.checks.ok(), res.attempted, res.failed, metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.checks.ok() {
		os.Exit(1)
	}
}

// report prints the run's checks and every metric with its unit and
// sample count.
func report(res *result) {
	mode := "untraced"
	if res.cfg.traced {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s: attempted=%d failed=%d\n",
		res.cfg.workload, res.cfg.seed, res.cfg.seconds, mode, res.attempted, res.failed)
	for _, line := range res.notes {
		fmt.Println("  " + line)
	}
	if res.checks.ok() {
		fmt.Println("  checks: all passed")
	} else {
		for _, m := range res.checks.msgs {
			fmt.Println("  CHECK FAILED:", m)
		}
	}
	fmt.Println("  end-to-end:")
	for _, name := range sortedKeys(res.e2e) {
		fmt.Printf("    %-28s %s\n", name, res.e2e[name])
	}
	fmt.Println("  wall clock (not in the result line):")
	for _, name := range sortedKeys(res.wall) {
		fmt.Printf("    %-28s %s\n", name, res.wall[name])
	}
	if res.cfg.traced {
		fmt.Println("  per-layer:")
		for _, name := range sortedKeys(res.layer) {
			fmt.Printf("    %-28s %s\n", name, res.layer[name])
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
