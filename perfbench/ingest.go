package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"etap/internal/alert"
	"etap/internal/corpus"
)

// Ingest load shape.
const (
	// ingestRound is the documents a closed-loop backfill round sends
	// at once before it waits for the stack to drain. Almost every
	// alert goes to a subscriber that watches every company, and a
	// subscriber lane holds 16 alerts; two documents (at most about
	// six fresh events each) fit one lane, so a round never outruns
	// the lanes however the webhooks are scheduled.
	ingestRound = 2
	// backfillPace sizes a backfill run: backfillPace × --seconds
	// rounds, about what this machine delivers in that time, so a run
	// does a fixed amount of work and lasts about --seconds.
	backfillPace = 9
	// liveRate is live_feed's document rate, well below backfill's
	// capacity on a 2-vCPU machine, so the feed is paced, not
	// saturating. A run sends liveRate × --seconds documents.
	liveRate = 6
	// ingestPartitions is the manager's default partition count (one
	// per default worker), which the WAL check walks.
	ingestPartitions = 2
)

// probeURL and probeText are the store-fault probe: the stream's own
// newsletter boilerplate line, which two trained drivers score above
// the threshold on one snippet. internal/store keeps one lead per
// snippet ID, so one of the two events is never stored. The probe is
// the first document of every ingest run, the same for every seed;
// being first, it also makes the line's later exact occurrences in the
// stream dedup hits.
const (
	probeURL  = "http://probe.perfbench.example/newsletter"
	probeText = "Sign up for daily email alerts and breaking news."
)

// prepared is a stream document with its /ingest body, generated and
// marshalled before the measured phase so the phase's allocation and
// CPU figures hold only the program's work and the request plumbing.
type prepared struct {
	d    streamDoc
	body []byte
}

// prepare draws n documents from the stream and marshals their bodies.
func prepare(st *docStream, n int) []prepared {
	out := make([]prepared, n)
	for i := range out {
		out[i] = newPrepared(st.next())
	}
	return out
}

func newPrepared(d streamDoc) prepared {
	body, err := json.Marshal(alert.Document{URL: d.doc.URL, Title: d.doc.Title, Text: d.doc.Text()})
	if err != nil {
		panic(err) // a string-only struct always marshals
	}
	return prepared{d: d, body: body}
}

// probeDoc is the store-fault probe as a stream document. It carries
// no ground truth, so the quality scoring leaves it out.
func probeDoc() prepared {
	doc := &corpus.Document{URL: probeURL, Title: "Newsletter", Sentences: []corpus.Sentence{{Text: probeText}}}
	return newPrepared(streamDoc{doc: doc})
}

// ingestRun records what an ingest workload sent and saw.
type ingestRun struct {
	mu       sync.Mutex
	due      map[string]time.Time // first send's due time per URL
	docs     map[string]*corpus.Document
	resent   int
	attempts int
	failed   int
	codes    map[int]int

	accept []time.Duration // POST /ingest until 202
	late   []time.Duration // paced feed: send start minus due time
	wall   time.Duration   // first send until everything was delivered
}

func newIngestRun() *ingestRun {
	return &ingestRun{due: map[string]time.Time{}, docs: map[string]*corpus.Document{}, codes: map[int]int{}}
}

// send POSTs one prepared document to /ingest and records the outcome.
func (r *ingestRun) send(s *stack, p prepared, due time.Time) {
	t := time.Now()
	code, _ := s.do(http.MethodPost, "/ingest", p.body)
	took := time.Since(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	r.codes[code]++
	if code != http.StatusAccepted {
		r.failed++
		return
	}
	r.accept = append(r.accept, took)
	if p.d.resent {
		r.resent++
	} else {
		r.due[p.d.doc.URL] = due
		r.docs[p.d.doc.URL] = p.d.doc
	}
}

// sendRound sends docs at once, one client goroutine each, then waits
// until the stack has processed them and delivered every alert.
func (r *ingestRun) sendRound(s *stack, docs []prepared) error {
	var wg sync.WaitGroup
	for _, p := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.send(s, p, time.Now())
		}()
	}
	wg.Wait()
	return flush(s)
}

// runBackfill is the closed loop: rounds of ingestRound documents,
// each round sent at once and drained before the next.
func runBackfill(r *ingestRun, s *stack, docs []prepared) error {
	start := time.Now()
	for i := 0; i < len(docs); i += ingestRound {
		if err := r.sendRound(s, docs[i:min(i+ingestRound, len(docs))]); err != nil {
			return err
		}
	}
	r.wall = time.Since(start)
	return nil
}

// runLiveFeed is the paced feed: document i is due at start + i/rate
// and is sent then, unless the stack is still delivering the previous
// document's alerts; then the feed waits and runs late, which the run
// reports. The lag clock starts at the due time.
func runLiveFeed(r *ingestRun, s *stack, docs []prepared) error {
	interval := time.Second / liveRate
	start := time.Now().Add(10 * time.Millisecond)
	for i, p := range docs {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if err := flush(s); err != nil {
			return err
		}
		r.late = append(r.late, time.Since(due))
		r.send(s, p, due)
	}
	if err := flush(s); err != nil {
		return err
	}
	r.wall = time.Since(start)
	return nil
}

// ingestDocs is an ingest run's document count: whole blocks of the
// stream, at least one per driver, so every driver's quality is scored.
func ingestDocs(workload string, seconds float64) int {
	n := int(backfillPace * ingestRound * seconds)
	if workload == "live_feed" {
		n = int(liveRate * seconds)
	}
	n -= n % len(streamBlock)
	return max(n, len(streamBlock)*len(corpus.Drivers))
}

// flush waits until every accepted document is processed and every
// alert is delivered or dead-lettered.
func flush(s *stack) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.manager.Flush(ctx); err != nil {
		return fmt.Errorf("waiting for the stream to drain: %w", err)
	}
	return nil
}
