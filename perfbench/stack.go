package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"etap/internal/alert"
	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/kb"
	"etap/internal/obs"
	"etap/internal/rank"
	"etap/internal/serve"
	"etap/internal/store"
	"etap/internal/tenant"
	"etap/internal/web"
)

// worldSeed is etapd's default -seed: every workload and every stream
// seed trains on the same world.
const worldSeed = 1

// worldConfig is ten times etapd's default world (about 9.2k pages), so
// training's smart queries and the index see a realistic corpus.
var worldConfig = corpus.Config{
	Seed:                  worldSeed,
	RelevantPerDriver:     1200,
	BackgroundDocs:        4000,
	HardNegativePerDriver: 400,
	FamousEventDocs:       80,
}

// stackOpts selects what one setup builds on top of etapd's defaults.
type stackOpts struct {
	extract bool                 // etapd -extract: fill the store from the world
	tenants []tenant.Profile     // POSTed to /tenants
	subs    []alert.Subscription // POSTed to /subscriptions
	walDir  string               // fresh ingest WAL directory
	hooks   *http.Client         // webhook client (loopback sink)
	layers  *layers              // non-nil wraps the alert seams (traced run)
}

// setupTimes are the durations of one setup's steps.
type setupTimes struct {
	world, web, train, extract, tenants, subscribe, total time.Duration
	cpu                                                   time.Duration // process CPU over the whole setup
}

// stack is one running ETAP service wired the way `etapd run` wires it.
type stack struct {
	gen     *corpus.Generator
	world   []corpus.Document
	web     *web.Web
	sys     *core.System
	store   *store.Store
	api     *serve.Server
	kb      *kb.KB
	tenants *tenant.Registry
	wal     *alert.WAL
	tap     *sinkTap
	manager *alert.Manager
	cancel  context.CancelFunc
	times   setupTimes
}

// newStack builds the service: world, web and index, training of the
// three default drivers, the lead store (optionally filled by the
// -extract pass), the HTTP handler with KB and tenant registry, the
// alert manager with WAL, tracer and webhook deliverer, and finally the
// tenant and subscription populations, added through the API.
func newStack(o stackOpts) (*stack, error) {
	s := &stack{}
	start, cpu := time.Now(), processCPU()
	t := start
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}

	s.gen = corpus.NewGenerator(worldConfig)
	s.world = s.gen.World()
	lap(&s.times.world)

	cfg := core.Config{Seed: worldSeed}
	w, err := core.BuildWebEngine(s.world, cfg)
	if err != nil {
		return nil, fmt.Errorf("building web: %w", err)
	}
	s.web = w
	s.sys = core.New(w, cfg)
	lap(&s.times.web)

	for _, d := range core.DefaultDrivers() {
		var pure []string
		for _, p := range s.gen.PurePositives(corpus.Driver(d.ID), 40) {
			pure = append(pure, p.Text)
		}
		if _, err := s.sys.AddDriver(d, pure); err != nil {
			return nil, fmt.Errorf("training %s: %w", d.ID, err)
		}
	}
	lap(&s.times.train)

	s.store = store.New()
	if o.extract {
		if err := extractAll(s.sys, w, s.store); err != nil {
			return nil, err
		}
	}
	lap(&s.times.extract)

	s.api = serve.New(s.sys, s.store)
	s.kb = kb.Generate(kb.Config{Seed: worldSeed})
	s.api.AttachKB(s.kb)
	s.tenants = tenant.NewRegistry(tenant.Config{})
	s.api.AttachTenants(s.tenants)
	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 256, SampleRate: 0.1})
	s.api.AttachTracer(tracer)

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	if err := os.RemoveAll(o.walDir); err != nil {
		return nil, fmt.Errorf("clearing wal dir: %w", err)
	}
	s.wal, err = alert.OpenWAL(alert.WALConfig{Dir: o.walDir, Log: log})
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	s.tap = &sinkTap{api: s.api, l: o.layers}
	var (
		pipeline alert.Pipeline  = s.sys
		indexer  alert.Indexer   = w
		deliver  alert.Deliverer = &alert.WebhookDeliverer{Client: o.hooks}
	)
	if o.layers != nil {
		pipeline = tracedPipeline{s.sys, o.layers}
		indexer = tracedIndexer{w, o.layers}
		deliver = tracedDeliverer{deliver, o.layers}
	}
	s.manager = alert.NewManager(pipeline, s.tap, indexer, alert.Config{
		WAL:           s.wal,
		Subscriptions: alert.NewSubscriptions(),
		Tenants:       s.tenants,
		KB:            s.kb,
		Log:           log,
		Tracer:        tracer,
		Deliverer:     deliver,
	})
	var seen []rank.Event
	for _, l := range s.store.Find(store.Query{}) {
		seen = append(seen, l.Event)
	}
	s.manager.SeedEvents(seen)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.manager.Start(ctx)
	s.api.AttachAlerts(s.manager)

	for _, p := range o.tenants {
		if err := s.post("/tenants", p, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
	}
	lap(&s.times.tenants)
	for _, sub := range o.subs {
		if err := s.post("/subscriptions", sub, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
	}
	lap(&s.times.subscribe)
	s.times.total = time.Since(start)
	s.times.cpu = processCPU() - cpu
	return s, nil
}

// extractAll is etapd's -extract pass: every driver over every world
// page, events added to the store.
func extractAll(sys *core.System, w *web.Web, st *store.Store) error {
	var pages []*web.Page
	for _, u := range w.URLs() {
		if p, ok := w.Page(u); ok {
			pages = append(pages, p)
		}
	}
	for _, d := range core.DefaultDrivers() {
		events, err := sys.ExtractEventsParallel(d.ID, pages, 0.5, 0)
		if err != nil {
			return fmt.Errorf("extracting %s: %w", d.ID, err)
		}
		st.Add(events, time.Now())
	}
	return nil
}

// post sends one JSON body through the handler and wants the given
// status.
func (s *stack) post(path string, v any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, resp := s.do(http.MethodPost, path, body)
	if code != want {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(resp))
	}
	return nil
}

// do runs one request through serve.Server.ServeHTTP in-process.
func (s *stack) do(method, target string, body []byte) (int, []byte) {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.api.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

// close stops the manager (draining queues, closing the WAL) and the
// web.
func (s *stack) close() {
	if s.manager != nil {
		s.manager.Close()
	} else if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing wal:", err)
		}
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.web != nil {
		if err := s.web.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing web:", err)
		}
	}
}
