package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"bce/internal/faults"
)

// transportFault names what faultyTransport does to the first exec
// exchange.
type transportFault int

const (
	// faultReset drops the whole exchange, as a connection reset does.
	faultReset transportFault = iota
	// faultRequestFlip flips one byte of the request body after the
	// coordinator stamped its digest, so the worker answers 409.
	faultRequestFlip
	// faultReplyFlip flips one digit of a successful reply body and
	// keeps the worker's digest, so the coordinator must catch it.
	faultReplyFlip
	// faultBareReject answers 400 with no digest before the worker sees
	// the request, as Go's HTTP server does for framing damaged in
	// transit.
	faultBareReject
)

// faultyTransport injects one kind of transport fault into exec
// exchanges while its injector has trips left, and passes everything
// else through untouched. It records the worker and the job keys of
// every exchange it damaged.
type faultyTransport struct {
	fault  transportFault
	inject *faults.Injector
	next   http.RoundTripper

	mu      sync.Mutex
	worker  string
	damaged []string
}

// replyFlipMark locates the byte the reply fault flips: the first digit
// of the first run's cycle count. A 0x01 flip keeps it a digit, so the
// damaged reply still decodes and only the content digest shows it.
var replyFlipMark = []byte(`"Cycles":`)

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, PathExec) || !f.inject.Trip() {
		return f.next.RoundTrip(req)
	}
	if err := f.record(req); err != nil {
		return nil, err
	}
	switch f.fault {
	case faultReset:
		return nil, errors.New("injected: connection reset by peer")
	case faultRequestFlip:
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(faults.NewFlipReader(req.Body, req.ContentLength/2, 0))
	case faultReplyFlip:
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var r io.Reader = bytes.NewReader(body)
		if at := bytes.Index(body, replyFlipMark); at >= 0 {
			r = faults.NewFlipReader(r, int64(at+len(replyFlipMark)), 0)
		}
		resp.Body = io.NopCloser(r)
		return resp, nil
	case faultBareReject:
		return &http.Response{
			Status:     "400 Bad Request",
			StatusCode: http.StatusBadRequest,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(strings.NewReader("400 Bad Request")),
			Request:    req,
		}, nil
	}
	return f.next.RoundTrip(req)
}

// record notes the worker and job keys of an exchange about to be
// damaged, read from a copy of the request body.
func (f *faultyTransport) record(req *http.Request) error {
	rc, err := req.GetBody()
	if err != nil {
		return err
	}
	body, err := io.ReadAll(rc)
	if err != nil {
		return err
	}
	b, err := DecodeBatch(body)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.worker = req.URL.Scheme + "://" + req.URL.Host
	for _, j := range b.Jobs {
		f.damaged = append(f.damaged, j.Key)
	}
	return nil
}

// TestCoordinatorFailsOnTransportFaults drives one sweep per fault kind
// through a transport that damages the first exec exchange. The sweep
// must fail naming the worker, merge no job of the damaged exchange,
// and merge every other job with the worker's own result.
func TestCoordinatorFailsOnTransportFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault transportFault
	}{
		{"connection-reset", faultReset},
		{"corrupted-request", faultRequestFlip},
		{"corrupted-reply", faultReplyFlip},
		{"bare-400", faultBareReject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w1 := testWorkerServer("w1", nil)
			defer w1.Close()
			w2 := testWorkerServer("w2", nil)
			defer w2.Close()

			jobs, keys := jobSet(t, 10)
			sink := newMergeSink()
			tr := &faultyTransport{fault: tc.fault, inject: faults.NewInjector(1), next: http.DefaultTransport}
			coord, err := NewCoordinator(Options{
				Workers:   []string{w1.URL, w2.URL},
				BatchSize: 2,
				Client:    &http.Client{Transport: tr},
				OnResult:  sink.OnResult,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = coord.Run(context.Background(), jobs, keys)
			if tr.inject.Remaining() != 0 {
				t.Fatal("the fault never fired; the test exercised nothing")
			}
			tr.mu.Lock()
			defer tr.mu.Unlock()
			if err == nil || !strings.Contains(err.Error(), tr.worker) {
				t.Fatalf("sweep through a damaged exchange: err = %v, want a failure naming %s", err, tr.worker)
			}
			for _, key := range tr.damaged {
				if _, ok := sink.byKey[key]; ok {
					t.Errorf("job %s of the damaged exchange merged", key)
				}
			}
			if sink.dups != 0 {
				t.Errorf("%d duplicate merges", sink.dups)
			}
			for i, key := range keys {
				want, _ := stubExec(context.Background(), jobs[i])
				if got, ok := sink.byKey[key]; ok && got != want {
					t.Errorf("job %d merged %v, want the worker's %v", i, got, want)
				}
			}
		})
	}
}
