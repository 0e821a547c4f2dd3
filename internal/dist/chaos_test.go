package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bce/internal/faults"
)

// transportFault names what faultyTransport does to an exec exchange
// while its injector has trips left.
type transportFault int

const (
	// faultReset drops the whole exchange: the connection-reset class
	// of failure the coordinator's in-place retry exists for.
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
// else through untouched.
type faultyTransport struct {
	fault  transportFault
	inject *faults.Injector
	next   http.RoundTripper
}

// replyFlipMark locates the byte the reply fault flips: the first digit
// of the first run's cycle count. A 0x01 flip keeps it a digit, so the
// damaged reply still decodes and only the content digest shows it.
var replyFlipMark = []byte(`"Cycles":`)

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, PathExec) {
		return f.next.RoundTrip(req)
	}
	switch f.fault {
	case faultReset:
		if f.inject.Trip() {
			return nil, errors.New("injected: connection reset by peer")
		}
	case faultRequestFlip:
		if f.inject.Trip() {
			req = req.Clone(req.Context())
			req.Body = io.NopCloser(faults.NewFlipReader(req.Body, req.ContentLength/2, 0))
		}
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
		if at := bytes.Index(body, replyFlipMark); at >= 0 && f.inject.Trip() {
			r = faults.NewFlipReader(r, int64(at+len(replyFlipMark)), 0)
		}
		resp.Body = io.NopCloser(r)
		return resp, nil
	case faultBareReject:
		if f.inject.Trip() {
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
	}
	return f.next.RoundTrip(req)
}

// TestCoordinatorSurvivesTransportFaults drives one sweep per fault
// kind through a transport that damages the first few exec exchanges.
// Every job must merge exactly once with the worker's own result, every
// injected fault must fire, and the retry counter must show the faults
// were absorbed, not ignored.
func TestCoordinatorSurvivesTransportFaults(t *testing.T) {
	const trips = 3
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
			ResetStats()
			w1 := testWorkerServer("w1", nil)
			defer w1.Close()
			w2 := testWorkerServer("w2", nil)
			defer w2.Close()

			jobs, keys := jobSet(t, 10)
			sink := newMergeSink()
			inject := faults.NewInjector(trips)
			coord, err := NewCoordinator(Options{
				Workers:      []string{w1.URL, w2.URL},
				BatchSize:    2,
				Retries:      trips,
				RetryBackoff: time.Millisecond,
				Client: &http.Client{Transport: &faultyTransport{
					fault: tc.fault, inject: inject, next: http.DefaultTransport,
				}},
				OnResult: sink.OnResult,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Run(context.Background(), jobs, keys); err != nil {
				t.Fatalf("sweep must absorb %d injected faults: %v", trips, err)
			}
			if sink.len() != len(jobs) {
				t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
			}
			if sink.dups != 0 {
				t.Errorf("%d duplicate merges", sink.dups)
			}
			for i, key := range keys {
				want, _ := stubExec(context.Background(), jobs[i])
				if got := sink.byKey[key]; got != want {
					t.Errorf("job %d merged %v, want the worker's %v", i, got, want)
				}
			}
			if inject.Remaining() != 0 {
				t.Errorf("only %d of %d faults fired; the test exercised nothing", trips-inject.Remaining(), trips)
			}
			if got := Snapshot().BatchRetries; got == 0 {
				t.Error("BatchRetries counter not bumped despite injected faults")
			}
		})
	}
}
