package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
)

// e2eOptions keeps the end-to-end grids small enough for CI while
// exercising the full simulate-attack-score pipeline per cell.
func e2eOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Samples = 6
	o.Lines = 8
	o.Workers = 1
	return o
}

// runLocal is the reference: a plain single-process sweep.
func runLocal(t *testing.T, id string, o experiments.Options, journalPath string) (experiments.Result, *checkpoint.Journal) {
	t.Helper()
	j, err := experiments.OpenJournal(journalPath, id, o, false)
	if err != nil {
		t.Fatal(err)
	}
	o.Journal = j
	res, err := experiments.Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, j
}

// runDistributed runs experiment id through a coordinator with n
// workers attached over loopback HTTP and returns the result plus the
// coordinator's ledger journal (still open) and final status.
func runDistributed(t *testing.T, id string, o experiments.Options, n int, journalPath string, resume bool, cache *checkpoint.Journal, compute func(string, experiments.Options, string) (json.RawMessage, error)) (experiments.Result, *checkpoint.Journal, Status) {
	t.Helper()
	j, err := experiments.OpenJournal(journalPath, id, o, resume)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ServerConfig{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("w%d", i),
			Compute:     compute,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}

	o.Exec = NewExec(s, id, j, cache)
	res, err := experiments.Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	wg.Wait()
	return res, j, s.Status()
}

// sameCells asserts two journals hold byte-identical values for every
// given key.
func sameCells(t *testing.T, want, got *checkpoint.Journal, keys []string, label string) {
	t.Helper()
	for _, k := range keys {
		w, ok := want.Lookup(k)
		if !ok {
			t.Fatalf("%s: reference journal missing %q", label, k)
		}
		g, ok := got.Lookup(k)
		if !ok {
			t.Fatalf("%s: journal missing %q", label, k)
		}
		if string(w) != string(g) {
			t.Errorf("%s: cell %q differs:\n  ref:  %s\n  dist: %s", label, k, w, g)
		}
	}
}

func fig7Keys() []string {
	keys := make([]string, len(experiments.Fig7Subwarps))
	for i, m := range experiments.Fig7Subwarps {
		keys[i] = fmt.Sprintf("fss/%d", m)
	}
	return keys
}

// TestDistributedByteIdentity is the tentpole acceptance criterion:
// the same grid run in one process, through a coordinator with one
// worker, and through a coordinator with four workers produces
// byte-identical cell values and identical rendered output.
func TestDistributedByteIdentity(t *testing.T) {
	dir := t.TempDir()
	o := e2eOptions()

	refRes, refJ := runLocal(t, "fig7", o, filepath.Join(dir, "local.journal"))
	defer refJ.Close()

	for _, n := range []int{1, 4} {
		res, j, st := runDistributed(t, "fig7", o, n,
			filepath.Join(dir, fmt.Sprintf("dist%d.journal", n)), false, nil, nil)
		if res.Render() != refRes.Render() {
			t.Errorf("%d-worker render differs from single-process render", n)
		}
		sameCells(t, refJ, j, fig7Keys(), fmt.Sprintf("%d workers", n))
		j.Close()
		if got := st.Metrics.Counters[cntCompletions]; got != uint64(len(experiments.Fig7Subwarps)) {
			t.Errorf("%d workers: completions = %d, want %d", n, got, len(experiments.Fig7Subwarps))
		}
	}
}

// TestKillCoordinatorAndResume pins the durable-ledger contract: a
// coordinator killed mid-grid resumes from its journal, re-leases only
// the unfinished cells, and the finished sweep matches the reference.
func TestKillCoordinatorAndResume(t *testing.T) {
	dir := t.TempDir()
	o := e2eOptions()

	refRes, refJ := runLocal(t, "fig7", o, filepath.Join(dir, "local.journal"))
	defer refJ.Close()

	// Phase 1: hand-drive two cells through the coordinator, then kill
	// it with the grid unfinished.
	path := filepath.Join(dir, "dist.journal")
	j1, err := experiments.OpenJournal(path, "fig7", o, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(ServerConfig{})
	srv1 := httptest.NewServer(s1.Handler())
	execErr := make(chan error, 1)
	go func() {
		oo := o
		oo.Exec = NewExec(s1, "fig7", j1, nil)
		_, err := experiments.Run("fig7", oo)
		execErr <- err
	}()
	for i := 0; i < 2; i++ {
		g := lease(t, srv1.URL, "doomed")
		wo, err := g.Options.Options()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := experiments.ComputeCell(g.Experiment, wo, g.Key)
		if err != nil {
			t.Fatal(err)
		}
		if resp := complete(t, srv1.URL, g, "doomed", string(raw)); !resp.Accepted {
			t.Fatalf("completion rejected: %s", resp.Reason)
		}
	}
	s1.Close()
	if err := <-execErr; err == nil {
		t.Fatal("killed coordinator's run reported success")
	}
	srv1.Close()
	j1.Close()

	// Phase 2: resume. Only the remaining cells may be computed.
	var mu sync.Mutex
	computed := 0
	counting := func(id string, wo experiments.Options, key string) (json.RawMessage, error) {
		mu.Lock()
		computed++
		mu.Unlock()
		return experiments.ComputeCell(id, wo, key)
	}
	res, j2, st := runDistributed(t, "fig7", o, 2, path, true, nil, counting)
	defer j2.Close()
	if res.Render() != refRes.Render() {
		t.Error("resumed distributed render differs from single-process render")
	}
	sameCells(t, refJ, j2, fig7Keys(), "resumed")
	want := len(experiments.Fig7Subwarps) - 2
	if computed != want {
		t.Errorf("resume computed %d cells, want %d (2 were journaled pre-kill)", computed, want)
	}
	if got := st.Experiments[0].Restored; got != 2 {
		t.Errorf("resume restored %d cells, want 2", got)
	}
}

// TestWarmCacheShortCircuitsGrid pins the cross-sweep cache contract:
// a second distributed sweep under identical result-determining
// options restores every cell from the cache and never leases.
func TestWarmCacheShortCircuitsGrid(t *testing.T) {
	dir := t.TempDir()
	o := e2eOptions()

	c1, err := experiments.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, j1, _ := runDistributed(t, "fig7", o, 2, filepath.Join(dir, "cold.journal"), false, c1, nil)
	j1.Close()
	c1.Close()

	c2, err := experiments.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	warmRes, j2, st := runDistributed(t, "fig7", o, 2, filepath.Join(dir, "warm.journal"), false, c2, nil)
	defer j2.Close()
	if warmRes.Render() != coldRes.Render() {
		t.Error("cache-served sweep renders differently")
	}
	if n := st.Metrics.Counters[cntLeasesIssued]; n != 0 {
		t.Errorf("warm sweep issued %d leases, want 0", n)
	}
	if n := st.Metrics.Counters[cntCacheHits]; n != uint64(len(experiments.Fig7Subwarps)) {
		t.Errorf("warm sweep cache hits = %d, want %d", n, len(experiments.Fig7Subwarps))
	}
}

// TestCacheSharedAcrossExperiments: with one results store, the
// coordinator leases none of the cells another experiment of the sweep
// already finished — fig17 is all fig15's cells, fig16 adds four —
// while fig8, whose keys ("FSS/2", ...) equal the sweep's but whose
// cells, in namespace "fig8/FSS", compute something else than the
// sweep's canonical-spec cells ("fss:2", ...), shares nothing. The
// M = 1 rows repeat the baseline's ID, so fig15 leases 17 of its 21
// rows, as a local run computes 17. Every render still equals a
// single-process run.
func TestCacheSharedAcrossExperiments(t *testing.T) {
	dir := t.TempDir()
	o := e2eOptions()
	o.Samples = 4
	o.Lines = 2
	cache, err := experiments.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for _, tc := range []struct {
		id     string
		leases uint64
	}{{"fig15", 17}, {"fig17", 0}, {"fig16", 4}, {"fig8", 4}} {
		res, j, st := runDistributed(t, tc.id, o, 2, filepath.Join(dir, tc.id+".journal"), false, cache, nil)
		j.Close()
		if n := st.Metrics.Counters[cntLeasesIssued]; n != tc.leases {
			t.Errorf("%s issued %d leases, want %d", tc.id, n, tc.leases)
		}
		local, err := experiments.Run(tc.id, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Render() != local.Render() {
			t.Errorf("%s: render differs from a single-process run", tc.id)
		}
	}
}

// TestCoordinatorSharesMemoryStore: one coordinator running fig15 then
// fig17 over a memory store leases as a local run computes, 17 then 0.
// With a trace sink on the run, the ledger bypasses the store as the
// local executor does: every row leases, 21 then 21, and nothing is
// stored. Every render equals a single-process run.
func TestCoordinatorSharesMemoryStore(t *testing.T) {
	o := e2eOptions()
	o.Samples = 4
	o.Lines = 2
	for _, tc := range []struct {
		name   string
		trace  bool
		leases []uint64
	}{{"store", false, []uint64{17, 0}}, {"trace", true, []uint64{21, 21}}} {
		t.Run(tc.name, func(t *testing.T) {
			store := checkpoint.NewMemory()
			s := NewServer(ServerConfig{})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			defer wg.Wait()
			defer s.Drain()
			for i := 0; i < 2; i++ {
				w := &Worker{Coordinator: srv.URL, ID: fmt.Sprintf("w%d", i)}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := w.Run(ctx); err != nil && ctx.Err() == nil {
						t.Errorf("worker %s: %v", w.ID, err)
					}
				}()
			}
			oo := o
			if tc.trace {
				oo.Trace = &gpusim.CountingSink{}
			}
			var issued uint64
			for k, id := range []string{"fig15", "fig17"} {
				oo.Exec = NewExec(s, id, nil, store)
				res, err := experiments.Run(id, oo)
				if err != nil {
					t.Fatal(err)
				}
				n := s.Status().Metrics.Counters[cntLeasesIssued] - issued
				issued += n
				if n != tc.leases[k] {
					t.Errorf("%s leased %d cells, want %d", id, n, tc.leases[k])
				}
				local, err := experiments.Run(id, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Render() != local.Render() {
					t.Errorf("%s: render differs from a single-process run", id)
				}
			}
			if tc.trace && store.Len() != 0 {
				t.Errorf("traced runs stored %d cells, want none", store.Len())
			}
		})
	}
}

// TestWorkerGivesUpOnDeadCoordinator bounds the failure mode of a
// worker pointed at nothing.
func TestWorkerGivesUpOnDeadCoordinator(t *testing.T) {
	w := &Worker{
		Coordinator: "http://127.0.0.1:1", // reserved port: connection refused
		ID:          "lost",
		MaxErrors:   2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
	}
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("worker kept running against a dead coordinator")
	}
}
