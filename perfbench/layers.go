package main

import (
	"context"
	"sync"
	"time"

	"etap/internal/alert"
	"etap/internal/core"
	"etap/internal/rank"
	"etap/internal/serve"
	"etap/internal/web"
)

// samples collects durations from concurrent callers.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) take() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.d
	s.d = nil
	return out
}

// layers holds the traced run's per-seam timings. The wrappers below
// time the calls the alert manager makes through its four seams; they
// add no behaviour.
type layers struct {
	extract samples // alert.Pipeline, per document (all drivers)
	index   samples // alert.Indexer, per document
	addLead samples // alert.Sink, per batch of fresh events, lock wait included
	deliver samples // alert.Deliverer, per webhook attempt
}

func (l *layers) reset() {
	l.extract.take()
	l.index.take()
	l.addLead.take()
	l.deliver.take()
}

// tracedPipeline times alert.Pipeline (and its traced form, which the
// manager prefers when a tracer is attached).
type tracedPipeline struct {
	sys *core.System
	l   *layers
}

func (p tracedPipeline) ExtractAllEvents(pages []*web.Page, threshold float64) []rank.Event {
	t := time.Now()
	evs := p.sys.ExtractAllEvents(pages, threshold)
	p.l.extract.add(time.Since(t))
	return evs
}

func (p tracedPipeline) ExtractAllEventsTraced(ctx context.Context, pages []*web.Page, threshold float64) []rank.Event {
	t := time.Now()
	evs := p.sys.ExtractAllEventsTraced(ctx, pages, threshold)
	p.l.extract.add(time.Since(t))
	return evs
}

// tracedIndexer times alert.Indexer.
type tracedIndexer struct {
	w *web.Web
	l *layers
}

func (x tracedIndexer) Ingest(p web.Page) error {
	t := time.Now()
	err := x.w.Ingest(p)
	x.l.index.add(time.Since(t))
	return err
}

// sinkTap sits on alert.Sink in every run: it keeps a copy of the
// fresh events the manager hands to the lead store, the events it
// fans out, so the delivery check can scan exactly those. In the
// traced run it also times the call.
type sinkTap struct {
	api *serve.Server
	l   *layers // nil: untraced

	mu     sync.Mutex
	events []rank.Event
}

func (s *sinkTap) AddLeads(events []rank.Event, now time.Time) int {
	var t time.Time
	if s.l != nil {
		t = time.Now()
	}
	n := s.api.AddLeads(events, now)
	if s.l != nil {
		s.l.addLead.add(time.Since(t))
	}
	s.mu.Lock()
	s.events = append(s.events, events...)
	s.mu.Unlock()
	return n
}

// take returns and forgets the events recorded so far.
func (s *sinkTap) take() []rank.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// tracedDeliverer times alert.Deliverer.
type tracedDeliverer struct {
	d alert.Deliverer
	l *layers
}

func (d tracedDeliverer) Deliver(ctx context.Context, sub alert.Subscription, a alert.Alert) error {
	t := time.Now()
	err := d.d.Deliver(ctx, sub, a)
	d.l.deliver.add(time.Since(t))
	return err
}
