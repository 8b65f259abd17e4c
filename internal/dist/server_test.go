package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
)

// testClock is an injectable clock for lease-timeout tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// fakeCells builds a grid batch whose Run closures are never invoked —
// the dist executor recomputes by key on workers, so only keys matter.
func fakeCells(keys ...string) []experiments.GridCell {
	cells := make([]experiments.GridCell, len(keys))
	for i, k := range keys {
		cells[i] = experiments.GridCell{Index: i, Key: k}
	}
	return cells
}

type execResult struct {
	raws []json.RawMessage
	err  error
}

// startBatch registers a fake grid with the server from a background
// goroutine, the way a real experiment driver would.
func startBatch(s *Server, id string, j, cache *checkpoint.Journal, keys ...string) <-chan execResult {
	done := make(chan execResult, 1)
	go func() {
		e := NewExec(s, id, j, cache)
		raws, err := e.ExecCells(experiments.DefaultOptions(), fakeCells(keys...))
		done <- execResult{raws, err}
	}()
	return done
}

// lease polls until the coordinator grants one (the batch registers
// asynchronously) or the deadline passes.
func lease(t *testing.T, url, worker string) *LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var resp LeaseResponse
		postJSON(t, url+"/lease", LeaseRequest{Worker: worker}, &resp)
		if resp.Lease != nil {
			return resp.Lease
		}
		if resp.Done {
			t.Fatal("coordinator drained before granting a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

func complete(t *testing.T, url string, g *LeaseGrant, worker string, value string) CompleteResponse {
	t.Helper()
	var resp CompleteResponse
	postJSON(t, url+"/complete", CompleteRequest{
		Worker: worker, Experiment: g.Experiment, Key: g.Key, Seq: g.Seq,
		Value: json.RawMessage(value),
	}, &resp)
	return resp
}

func TestLeaseTimeoutReissue(t *testing.T) {
	clock := newTestClock()
	s := NewServer(ServerConfig{LeaseTimeout: time.Minute, Clock: clock.Now})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	gA := lease(t, srv.URL, "A")
	if gA.Key != "cell/0" || gA.Seq != 1 {
		t.Fatalf("first grant = %+v, want cell/0 seq 1", gA)
	}

	// Worker A goes silent past the lease timeout; B's next poll reaps
	// the lease and re-issues the cell with a bumped seq.
	clock.Advance(2 * time.Minute)
	gB := lease(t, srv.URL, "B")
	if gB.Key != "cell/0" || gB.Seq != 2 {
		t.Fatalf("re-issued grant = %+v, want cell/0 seq 2", gB)
	}

	// A comes back from the dead: its completion is stale.
	if resp := complete(t, srv.URL, gA, "A", `"late"`); resp.Accepted {
		t.Error("stale completion accepted")
	}
	if resp := complete(t, srv.URL, gB, "B", `"fresh"`); !resp.Accepted {
		t.Errorf("current completion rejected: %s", resp.Reason)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"fresh"` {
		t.Errorf("batch result = %s, want the current holder's value", res.raws[0])
	}
	st := s.Status()
	if st.Metrics.Counters[cntLeasesExpired] != 1 || st.Metrics.Counters[cntStale] != 1 {
		t.Errorf("counters = %v, want 1 expiry and 1 stale", st.Metrics.Counters)
	}
}

func TestDuplicateCompletionFirstWriterWins(t *testing.T) {
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "exp.journal")
	j, err := checkpoint.Create(path, map[string]string{"id": "exp"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	done := startBatch(s, "exp", j, nil, "cell/0")
	g := lease(t, srv.URL, "A")
	if resp := complete(t, srv.URL, g, "A", `"first"`); !resp.Accepted {
		t.Fatalf("first completion rejected: %s", resp.Reason)
	}
	if resp := complete(t, srv.URL, g, "A", `"second"`); resp.Accepted {
		t.Error("duplicate completion accepted")
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"first"` {
		t.Errorf("result = %s, want the first writer's value", res.raws[0])
	}
	// The ledger, too, keeps the first writer's bytes.
	if raw, ok := j.Lookup("cell/0"); !ok || string(raw) != `"first"` {
		t.Errorf("journal has %s, want \"first\"", raw)
	}
	if n := s.Status().Metrics.Counters[cntDuplicates]; n != 1 {
		t.Errorf("duplicate counter = %d, want 1", n)
	}
}

func TestCancelRevokesAndReissues(t *testing.T) {
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0")
	gA := lease(t, srv.URL, "A")

	var cresp CancelResponse
	postJSON(t, srv.URL+"/leases/cancel", CancelRequest{Experiment: "exp", Key: "cell/0"}, &cresp)
	if !cresp.Canceled {
		t.Fatalf("cancel refused: %s", cresp.Reason)
	}
	// Canceling an idle cell is refused.
	postJSON(t, srv.URL+"/leases/cancel", CancelRequest{Experiment: "exp", Key: "cell/0"}, &cresp)
	if cresp.Canceled {
		t.Error("canceled a non-leased cell")
	}

	gB := lease(t, srv.URL, "B")
	if gB.Seq <= gA.Seq {
		t.Fatalf("re-issue seq %d not past revoked seq %d", gB.Seq, gA.Seq)
	}
	if resp := complete(t, srv.URL, gA, "A", `"revoked"`); resp.Accepted {
		t.Error("revoked holder's completion accepted")
	}
	if resp := complete(t, srv.URL, gB, "B", `"kept"`); !resp.Accepted {
		t.Errorf("new holder's completion rejected: %s", resp.Reason)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"kept"` {
		t.Errorf("result = %s, want the new holder's value", res.raws[0])
	}
}

func TestWorkerErrorFailsExperiment(t *testing.T) {
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0", "cell/1")
	g := lease(t, srv.URL, "A")
	var resp CompleteResponse
	postJSON(t, srv.URL+"/complete", CompleteRequest{
		Worker: "A", Experiment: g.Experiment, Key: g.Key, Seq: g.Seq,
		Error: "synthetic cell failure",
	}, &resp)
	res := <-done
	if res.err == nil || !strings.Contains(res.err.Error(), "synthetic cell failure") {
		t.Fatalf("batch error = %v, want the worker's failure", res.err)
	}
	// The failed registration is gone: the experiment can re-register
	// (a resumed coordinator in the same process).
	done2 := startBatch(s, "exp", nil, nil, "cell/0")
	g2 := lease(t, srv.URL, "A")
	if resp := complete(t, srv.URL, g2, "A", `"ok"`); !resp.Accepted {
		t.Fatalf("re-registered completion rejected: %s", resp.Reason)
	}
	if res := <-done2; res.err != nil {
		t.Fatal(res.err)
	}
}

// TestPreCrashLeaseCompletionAccepted pins the resume-seq contract: a
// lease journaled by a previous coordinator incarnation seeds the
// cell's seq, so the old holder's completion arriving at the new
// coordinator is recognized, not misread as stale.
func TestPreCrashLeaseCompletionAccepted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.journal")
	meta := map[string]string{"id": "exp"}
	j1, err := checkpoint.Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.RecordLease(checkpoint.Lease{Key: "cell/0", Worker: "A", Seq: 4, IssuedUnixNano: 1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := checkpoint.Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()

	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	done := startBatch(s, "exp", j2, nil, "cell/0")

	// Give the batch a moment to register, then deliver the pre-crash
	// lease's completion without ever polling for a new lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp CompleteResponse
		postJSON(t, srv.URL+"/complete", CompleteRequest{
			Worker: "A", Experiment: "exp", Key: "cell/0", Seq: 4,
			Value: json.RawMessage(`"survivor"`),
		}, &resp)
		if resp.Accepted {
			break
		}
		if resp.Reason == "unknown experiment" && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("pre-crash completion rejected: %s", resp.Reason)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if string(res.raws[0]) != `"survivor"` {
		t.Errorf("result = %s, want the pre-crash holder's value", res.raws[0])
	}
	if n := s.Status().Metrics.Counters[cntLeasesIssued]; n != 0 {
		t.Errorf("leases issued = %d, want 0 (completion arrived before re-issue)", n)
	}
}

func TestCloseUnblocksExec(t *testing.T) {
	s := NewServer(ServerConfig{})
	done := startBatch(s, "exp", nil, nil, "cell/0")
	time.Sleep(10 * time.Millisecond)
	s.Close()
	res := <-done
	if res.err == nil || !strings.Contains(res.err.Error(), "closed") {
		t.Fatalf("batch error after Close = %v", res.err)
	}
}

func TestStatusAndHeartbeat(t *testing.T) {
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := startBatch(s, "exp", nil, nil, "cell/0", "cell/1")
	g := lease(t, srv.URL, "A")
	complete(t, srv.URL, g, "A", `1`)

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Experiments) != 1 || st.Experiments[0].Done != 1 || st.Experiments[0].Total != 2 {
		t.Errorf("status experiments = %+v, want 1/2 done", st.Experiments)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "A" || st.Workers[0].Completed != 1 {
		t.Errorf("status workers = %+v", st.Workers)
	}
	if line := s.heartbeatLine(); !strings.Contains(line, "cells 1/2") || !strings.Contains(line, "workers 1") {
		t.Errorf("heartbeat line = %q", line)
	}

	g2 := lease(t, srv.URL, "A")
	complete(t, srv.URL, g2, "A", `2`)
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}

	// After Drain, polls report Done.
	s.Drain()
	var lr LeaseResponse
	postJSON(t, srv.URL+"/lease", LeaseRequest{Worker: "A"}, &lr)
	if !lr.Done {
		t.Error("post-drain poll did not report Done")
	}
}

// pollLease POSTs one lease poll under ctx and times it.
func pollLease(ctx context.Context, url string) (LeaseResponse, time.Duration, error) {
	var lr LeaseResponse
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/lease", strings.NewReader(`{"worker":"held"}`))
	if err != nil {
		return lr, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return lr, time.Since(start), err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&lr)
	return lr, time.Since(start), err
}

// heldPollFixture is one TestHeldLeasePoll case's coordinator: polls
// counts /lease arrivals, returned receives the time each /lease
// handler returns. returned's buffer outsizes the polls any case makes
// (an idle worker makes about 4 a second); a send to a full buffer is
// dropped rather than blocking the handler.
type heldPollFixture struct {
	s        *Server
	url      string
	polls    atomic.Int64
	returned chan time.Time
}

// TestHeldLeasePoll pins the held lease poll: a poll with nothing to
// grant waits on the coordinator for up to pollWait, answers as soon as
// a grid registers or the coordinator drains, answers empty when the
// hold ends, and frees its handler when the client goes away. An idle
// worker therefore neither hot-loops nor sleeps past a new grid.
func TestHeldLeasePoll(t *testing.T) {
	const at = 50 * time.Millisecond // when a case acts, into the hold
	cases := []struct {
		name string
		run  func(t *testing.T, f *heldPollFixture)
	}{
		{"grid registered mid-hold is granted in the same answer", func(t *testing.T, f *heldPollFixture) {
			batch := make(chan (<-chan execResult), 1)
			time.AfterFunc(at, func() { batch <- startBatch(f.s, "exp", nil, nil, "cell/0") })
			lr, took, err := pollLease(context.Background(), f.url)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Lease == nil || lr.Lease.Key != "cell/0" || took >= pollWait-at {
				t.Fatalf("poll answered %+v after %v, want cell/0's lease within %v", lr, took, pollWait-at)
			}
			complete(t, f.url, lr.Lease, "held", `"v"`)
			if res := <-<-batch; res.err != nil {
				t.Fatal(res.err)
			}
		}},
		{"drain answers Done inside the hold", func(t *testing.T, f *heldPollFixture) {
			time.AfterFunc(at, f.s.Drain)
			lr, took, err := pollLease(context.Background(), f.url)
			if err != nil {
				t.Fatal(err)
			}
			if !lr.Done || took >= pollWait-at {
				t.Fatalf("poll answered %+v after %v, want Done within %v", lr, took, pollWait-at)
			}
		}},
		{"nothing to grant answers empty when the hold ends", func(t *testing.T, f *heldPollFixture) {
			lr, took, err := pollLease(context.Background(), f.url)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Done || lr.Lease != nil || took < pollWait || took > pollWait+500*time.Millisecond {
				t.Fatalf("poll answered %+v after %v, want an empty answer after %v to %v",
					lr, took, pollWait, pollWait+500*time.Millisecond)
			}
		}},
		{"abandoned poll frees its handler", func(t *testing.T, f *heldPollFixture) {
			ctx, cancel := context.WithTimeout(context.Background(), at)
			defer cancel()
			start := time.Now()
			if lr, took, err := pollLease(ctx, f.url); err == nil {
				t.Fatalf("poll answered %+v after %v, want it held until the client gave up", lr, took)
			}
			select {
			case ret := <-f.returned:
				if ret.Sub(start) >= pollWait {
					t.Errorf("handler returned %v after the poll began, not before the hold's end", ret.Sub(start))
				}
			case <-time.After(5 * time.Second):
				t.Fatal("handler of the abandoned poll never returned")
			}
		}},
		{"idle worker neither hot-loops nor sleeps past a new grid", func(t *testing.T, f *heldPollFixture) {
			w := &Worker{Coordinator: f.url, ID: "idle", Compute: func(string, experiments.Options, string) (json.RawMessage, error) {
				return json.RawMessage(`"v"`), nil
			}}
			runErr := make(chan error, 1)
			go func() { runErr <- w.Run(context.Background()) }()
			time.Sleep(time.Second)
			if n := f.polls.Load(); n > 5 {
				t.Errorf("idle worker sent %d polls in 1s, want at most 5", n)
			}
			// Register right after an empty answer: the worker's next poll
			// must find the grid at once rather than after a pause.
			for len(f.returned) > 0 {
				<-f.returned
			}
			<-f.returned
			start := time.Now()
			if res := <-startBatch(f.s, "exp", nil, nil, "cell/0"); res.err != nil {
				t.Fatal(res.err)
			}
			if took := time.Since(start); took >= pollWait/2 {
				t.Errorf("grid registered after an empty answer took %v to compute, want under %v", took, pollWait/2)
			}
			f.s.Drain()
			if err := <-runErr; err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &heldPollFixture{s: NewServer(ServerConfig{LeaseTimeout: time.Minute}), returned: make(chan time.Time, 64)}
			inner := f.s.Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				if req.URL.Path == "/lease" {
					f.polls.Add(1)
					defer func() {
						select {
						case f.returned <- time.Now():
						default:
						}
					}()
				}
				inner.ServeHTTP(rw, req)
			}))
			defer srv.Close()
			defer f.s.Close()
			f.url = srv.URL
			tc.run(t, f)
		})
	}
}
