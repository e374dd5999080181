package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"etap/internal/obs"
)

// dist summarizes a set of latency samples.
type dist struct {
	n        int
	p50, p99 float64 // in the caller's unit
}

// summarize returns the nearest-rank p50 and p99 of ds in units of
// unit (time.Millisecond, time.Microsecond, ...).
func summarize(ds []time.Duration, unit time.Duration) dist {
	if len(ds) == 0 {
		return dist{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(s[i]) / float64(unit)
	}
	return dist{n: len(s), p50: at(0.5), p99: at(0.99)}
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// snapshot is one reading of the process-wide metrics registry, the
// one etapd exports at /metrics.
type snapshot map[string]any

func readRegistry() snapshot { return snapshot(obs.Default.Snapshot()) }

// num returns a counter or gauge value; 0 when absent.
func (s snapshot) num(key string) float64 {
	switch v := s[key].(type) {
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// hist merges every histogram series whose key starts with prefix (a
// family name, optionally with its opening label brace), returning the
// count, sum and cumulative buckets.
func (s snapshot) hist(prefix string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for k, v := range s {
		h, ok := v.(obs.HistogramSnapshot)
		if !ok || !strings.HasPrefix(k, prefix) {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if out.Buckets == nil {
			out.Buckets = append([]obs.BucketSnapshot(nil), h.Buckets...)
			continue
		}
		for i := range out.Buckets {
			if i < len(h.Buckets) {
				out.Buckets[i].Count += h.Buckets[i].Count
			}
		}
	}
	return out
}

// count returns how many series keys start with prefix.
func (s snapshot) count(prefix string) int {
	n := 0
	for k := range s {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// histDelta subtracts an earlier merged histogram from a later one.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i, b := range after.Buckets {
		c := b.Count
		if i < len(before.Buckets) {
			c -= before.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, obs.BucketSnapshot{LE: b.LE, Count: c})
	}
	return out
}

// quantile estimates a quantile from cumulative buckets the way
// Prometheus histogram_quantile does.
func quantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var prev uint64
	lower := 0.0
	for _, b := range h.Buckets {
		if b.Count >= target {
			return lower + float64(target-prev)/float64(b.Count-prev)*(b.LE-lower)
		}
		prev = b.Count
		lower = b.LE
	}
	return h.Buckets[len(h.Buckets)-1].LE
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value; 0 when not counted
	lat   bool    // a latency median: print its p99 beside it
	p99   float64
	note  string
}

func (m metric) String() string {
	s := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
	if m.n > 0 {
		s += fmt.Sprintf(" (n=%d", m.n)
		if m.lat && m.n >= 1000 {
			s += fmt.Sprintf(", p99=%.6g %s", m.p99, m.Unit)
		}
		s += ")"
	}
	if m.note != "" {
		s += " [" + m.note + "]"
	}
	return s
}

// latency builds a p50 metric from samples.
func latency(ds []time.Duration, unit time.Duration, name string) metric {
	d := summarize(ds, unit)
	return metric{Value: d.p50, Unit: name, n: d.n, lat: true, p99: d.p99}
}
