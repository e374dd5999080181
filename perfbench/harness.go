package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"

	"etap/internal/alert"
	"etap/internal/rank"
)

// harnessCost is what the benchmark's own plumbing costs per call,
// measured apart from the program so its share of the measured phase
// can be told apart: an in-process request (httptest request and
// recorder) through a handler that does nothing, and the loopback
// sink's handling of one webhook (the deliverer's client side is the
// program's and is not counted).
type harnessCost struct {
	requestKB, requestMS float64
	hookKB, hookMS       float64
}

const harnessCalls = 500

// measureHarness times harnessCalls calls of each kind. Without a sink
// only the request plumbing is measured.
func measureHarness(body []byte, sk *sink) (harnessCost, error) {
	var hc harnessCost
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	runtime.GC()
	before := readMem()
	for i := 0; i < harnessCalls; i++ {
		noop.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	}
	after := readMem()
	hc.requestKB, hc.requestMS = perCall(before, after)
	if sk == nil {
		return hc, nil
	}
	hook, err := json.Marshal(alert.Alert{Subscription: "bsub-1", Event: rank.Event{
		SnippetID: probeURL + "#0", Text: probeText, Driver: "change-in-management", Score: 0.58,
	}})
	if err != nil {
		return hc, err
	}
	// The sink's side alone: raw requests on one kept-alive connection,
	// the response read into a reused buffer, so the client adds next
	// to nothing. The sink's records of these calls are dropped.
	conn, err := net.Dial("tcp", sk.ln.Addr().String())
	if err != nil {
		return hc, err
	}
	defer conn.Close()
	req := []byte(fmt.Sprintf("POST /hook HTTP/1.1\r\nHost: sink\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(hook), hook))
	buf := make([]byte, 4096)
	kept, bad := sk.take()
	runtime.GC()
	before = readMem()
	for i := 0; i < harnessCalls; i++ {
		if _, err := conn.Write(req); err != nil {
			return hc, err
		}
		if err := readHead(conn, buf); err != nil {
			return hc, err
		}
	}
	after = readMem()
	sk.take()
	sk.restore(kept, bad)
	hc.hookKB, hc.hookMS = perCall(before, after)
	return hc, nil
}

// readHead reads one bodiless HTTP response (the sink answers 204) up
// to its blank line.
func readHead(conn net.Conn, buf []byte) error {
	n := 0
	for {
		if n == len(buf) {
			return fmt.Errorf("sink response longer than %d bytes", len(buf))
		}
		m, err := conn.Read(buf[n:])
		if err != nil {
			return err
		}
		n += m
		if bytes.Contains(buf[:n], []byte("\r\n\r\n")) {
			return nil
		}
	}
}

func perCall(before, after memReading) (kb, ms float64) {
	return float64(after.alloc-before.alloc) / 1024 / harnessCalls,
		float64((after.cpu - before.cpu).Microseconds()) / 1000 / harnessCalls
}

// harnessShare reports the harness's estimated share of each operation,
// requestsPerOp requests plus hooksPerOp webhooks answered by the sink,
// and returns its allocation in KB.
func harnessShare(res *result, hc harnessCost, requestsPerOp, hooksPerOp float64) float64 {
	kb := requestsPerOp*hc.requestKB + hooksPerOp*hc.hookKB
	ms := requestsPerOp*hc.requestMS + hooksPerOp*hc.hookMS
	res.layer["harness.alloc_kb_per_op"] = metric{Value: kb, Unit: "KB/op", n: harnessCalls}
	res.layer["harness.cpu_ms_per_op"] = metric{Value: ms, Unit: "ms", n: harnessCalls}
	res.note("harness share per operation: %.2f KB and %.4f ms CPU (%.4f requests at %.2f KB, %.4f ms; %g webhooks answered by the sink at %.2f KB, %.4f ms)",
		kb, ms, requestsPerOp, hc.requestKB, hc.requestMS, hooksPerOp, hc.hookKB, hc.hookMS)
	return kb
}
