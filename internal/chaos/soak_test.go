package chaos_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rcoal/internal/chaos"
	"rcoal/internal/dist"
	"rcoal/internal/experiments"
)

// soakProfile is DefaultProfile with the partition window pulled
// forward so it lands inside a CI-scale sweep.
func soakProfile() chaos.Profile {
	p := chaos.DefaultProfile()
	p.PartitionEvery = 400 * time.Millisecond
	p.PartitionLength = 150 * time.Millisecond
	return p
}

// serveAt serves h on addr, retrying briefly so a coordinator
// restarted on the address of one just closed can bind it.
func serveAt(t *testing.T, addr string, h http.Handler) *httptest.Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			srv := httptest.NewUnstartedServer(h)
			srv.Listener.Close()
			srv.Listener = ln
			srv.Start()
			return srv
		}
		if time.Now().After(deadline) {
			t.Fatalf("listening on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSoakByteIdentity is the acceptance criterion of the chaos
// layer: the fig7 grid swept by workers whose clients run through one
// fault-injecting chaos.Transport — with roughly a third of all
// traffic dropped, duplicated, delayed, torn, or 5xx'd, one worker
// killed mid-sweep, and the coordinator crashed and resumed on the
// same address mid-sweep, as scripts/chaos_smoke.sh does with real
// processes — produces results byte-identical to a vanilla
// single-process run. Transport faults may cost time; they may never
// change bytes.
func TestChaosSoakByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak exercises real sweeps; skipped in -short")
	}
	dir := t.TempDir()
	o := experiments.DefaultOptions()
	o.Samples = 6
	o.Lines = 8
	o.Workers = 1

	// Golden: a plain local sweep.
	goldenJ, err := experiments.OpenJournal(filepath.Join(dir, "golden.journal"), "fig7", o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer goldenJ.Close()
	oo := o
	oo.Journal = goldenJ
	goldenRes, err := experiments.Run("fig7", oo)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos phase 1: a coordinator and three workers sharing one flaky
	// network.
	path := filepath.Join(dir, "chaos.journal")
	j1, err := experiments.OpenJournal(path, "fig7", o, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := dist.NewServer(dist.ServerConfig{LeaseTimeout: 500 * time.Millisecond})
	srv1 := serveAt(t, "127.0.0.1:0", s1.Handler())
	addr := srv1.Listener.Addr().String()

	plan := chaos.NewPlan(0xC0A1_50AC, soakProfile())
	t.Log(plan.Describe())
	in := chaos.NewInjector(plan)
	client := &http.Client{Transport: chaos.NewTransport(in, nil)}

	newWorker := func(i int) *dist.Worker {
		return &dist.Worker{
			Coordinator:    "http://" + addr,
			Client:         client,
			ID:             fmt.Sprintf("soak%d", i),
			MaxErrors:      1_000_000, // chaos makes errors routine; the test bounds time, not retries
			BackoffBase:    time.Millisecond,
			BackoffCap:     25 * time.Millisecond,
			RequestTimeout: 30 * time.Second,
		}
	}
	var wg sync.WaitGroup
	doomedCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()
	survivorCtx, stopAll := context.WithCancel(context.Background())
	defer stopAll()
	for i := 0; i < 3; i++ {
		ctx := survivorCtx
		if i == 0 {
			ctx = doomedCtx
		}
		w := newWorker(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}

	exec1Err := make(chan error, 1)
	go func() {
		oo := o
		oo.Exec = dist.NewExec(s1, "fig7", j1, nil)
		_, err := experiments.Run("fig7", oo)
		exec1Err <- err
	}()

	// Let the sweep make real progress, then kill a worker and crash
	// the coordinator under it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := s1.Status(); len(st.Experiments) > 0 && st.Experiments[0].Done >= 1 {
			break
		}
		select {
		case err := <-exec1Err:
			t.Fatalf("sweep finished before the crash could be injected (err=%v); shrink the reaction window", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed under chaos within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killWorker()
	s1.Close()
	srv1.Close()
	if err := <-exec1Err; err == nil {
		t.Fatal("crashed coordinator's sweep reported success")
	}
	j1.Close()

	// Chaos phase 2: resume on the same address; the surviving workers
	// retry their way through.
	j2, err := experiments.OpenJournal(path, "fig7", o, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := dist.NewServer(dist.ServerConfig{LeaseTimeout: 500 * time.Millisecond})
	srv2 := serveAt(t, addr, s2.Handler())
	defer srv2.Close()

	oo = o
	oo.Exec = dist.NewExec(s2, "fig7", j2, nil)
	chaosRes, err := experiments.Run("fig7", oo)
	if err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	stopAll()
	wg.Wait()
	t.Log(in.Summary())

	// Byte identity, the whole point.
	if chaosRes.Render() != goldenRes.Render() {
		t.Errorf("chaos-swept render differs from golden:\n--- golden ---\n%s\n--- chaos ---\n%s",
			goldenRes.Render(), chaosRes.Render())
	}
	gc, cc := goldenRes.(experiments.CSVer), chaosRes.(experiments.CSVer)
	if gc.CSV() != cc.CSV() {
		t.Error("chaos-swept CSV differs from golden CSV")
	}
	for _, m := range experiments.Fig7Subwarps {
		key := fmt.Sprintf("fss/%d", m)
		g, ok := goldenJ.Lookup(key)
		if !ok {
			t.Fatalf("golden journal missing %s", key)
		}
		c, ok := j2.Lookup(key)
		if !ok {
			t.Fatalf("chaos journal missing %s", key)
		}
		if string(g) != string(c) {
			t.Errorf("cell %s differs under chaos:\n  golden: %s\n  chaos:  %s", key, g, c)
		}
	}

	// The soak must actually have injected faults, or it proved nothing.
	if len(in.Counters()) == 0 {
		t.Error("no faults injected — the soak ran on a clean network")
	}
}

// TestChaosSoakScheduleReplay pins the replay workflow the docs
// describe: re-arming the same seed yields the same per-endpoint
// decision stream the soak above suffered.
func TestChaosSoakScheduleReplay(t *testing.T) {
	p1 := chaos.NewPlan(0xC0A1_50AC, soakProfile())
	p2 := chaos.NewPlan(0xC0A1_50AC, soakProfile())
	if p1.Describe() != p2.Describe() {
		t.Fatalf("replay recipe not stable:\n%s\n%s", p1.Describe(), p2.Describe())
	}
	for n := uint64(0); n < 5000; n++ {
		if p1.Decide("/complete", n) != p2.Decide("/complete", n) {
			t.Fatalf("decision stream diverges at /complete #%d", n)
		}
	}
}
