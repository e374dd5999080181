package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// delivery is one webhook POST the sink answered 2xx.
type delivery struct {
	sub     string
	snippet string
	driver  string
	at      time.Time
}

// sink is the in-process loopback webhook receiver. It records every
// alert it accepts; a body it cannot decode is answered 400 and
// counted, which the delivery check reports.
type sink struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	url  string

	mu        sync.Mutex
	got       []delivery
	malformed int
}

// alertBody is the part of alert.Alert the sink reads.
type alertBody struct {
	Subscription string `json:"subscription"`
	Event        struct {
		SnippetID string
		Driver    string
	} `json:"event"`
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sink listen: %w", err)
	}
	s := &sink{ln: ln, done: make(chan struct{}), url: "http://" + ln.Addr().String() + "/hook"}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serve), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: sink:", err)
		}
	}()
	return s, nil
}

func (s *sink) serve(w http.ResponseWriter, r *http.Request) {
	var a alertBody
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil || a.Subscription == "" || a.Event.SnippetID == "" || a.Event.Driver == "" {
		s.mu.Lock()
		s.malformed++
		s.mu.Unlock()
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.got = append(s.got, delivery{sub: a.Subscription, snippet: a.Event.SnippetID, driver: a.Event.Driver, at: now})
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// take returns and clears what the sink recorded.
func (s *sink) take() ([]delivery, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, bad := s.got, s.malformed
	s.got, s.malformed = nil, 0
	return got, bad
}

// restore puts back records taken with take.
func (s *sink) restore(got []delivery, malformed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(got, s.got...)
	s.malformed += malformed
}

func (s *sink) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sink shutdown:", err)
	}
	<-s.done
}
