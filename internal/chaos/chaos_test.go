package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestScheduleDeterminism is the replay contract: two plans compiled
// from the same seed and profile produce bit-identical fault
// schedules — per-request decisions and partition windows both.
func TestScheduleDeterminism(t *testing.T) {
	a := NewPlan(42, DefaultProfile())
	b := NewPlan(42, DefaultProfile())
	for _, ep := range []string{"/lease", "/complete", "/lease/renew"} {
		for n := uint64(0); n < 2000; n++ {
			fa, fb := a.Decide(ep, n), b.Decide(ep, n)
			if fa != fb {
				t.Fatalf("seed 42 %s #%d: %v vs %v", ep, n, fa, fb)
			}
		}
	}
	wa, wb := a.Windows(), b.Windows()
	if len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, wa[i], wb[i])
		}
	}
}

// TestSchedulesDifferAcrossSeeds guards against the schedule ignoring
// its seed.
func TestSchedulesDifferAcrossSeeds(t *testing.T) {
	a, b := NewPlan(1, DefaultProfile()), NewPlan(2, DefaultProfile())
	diff := 0
	for n := uint64(0); n < 1000; n++ {
		if a.Decide("/lease", n) != b.Decide("/lease", n) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical /lease schedules")
	}
}

// TestDecideRespectsRates checks every configured kind occurs and the
// aggregate fault fraction lands near the profile's per-mille total.
func TestDecideRespectsRates(t *testing.T) {
	p := NewPlan(7, DefaultProfile())
	counts := map[Kind]int{}
	const n = 20000
	for i := uint64(0); i < n; i++ {
		counts[p.Decide("/lease", i).Kind]++
	}
	for _, k := range []Kind{DropRequest, DropResponse, Err5xx, Torn, Dup, Delay} {
		if counts[k] == 0 {
			t.Errorf("fault kind %s never drawn in %d requests", k, n)
		}
	}
	total := n - counts[None]
	want := DefaultProfile().total() * n / 1000
	if total < want/2 || total > want*2 {
		t.Errorf("fault fraction off: got %d faults, profile implies ~%d", total, want)
	}
}

// TestDelayBounds checks injected delays stay inside
// [MaxDelay/4, MaxDelay).
func TestDelayBounds(t *testing.T) {
	p := NewPlan(3, DefaultProfile())
	max := DefaultProfile().MaxDelay
	seen := 0
	for i := uint64(0); i < 5000; i++ {
		f := p.Decide("/status", i)
		if f.Kind != Delay {
			continue
		}
		seen++
		if f.Delay < max/4 || f.Delay >= max {
			t.Fatalf("delay %v outside [%v, %v)", f.Delay, max/4, max)
		}
	}
	if seen == 0 {
		t.Fatal("no delays drawn")
	}
}

// TestRatesOverflowPanics: the bands must be disjoint.
func TestRatesOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("profile summing past 1000 per mille did not panic")
		}
	}()
	NewPlan(1, Profile{DropRequest: 600, Err5xx: 600})
}

// TestPartitionWindows checks windows are scheduled, ordered, and that
// Partitioned answers exactly inside them.
func TestPartitionWindows(t *testing.T) {
	prof := DefaultProfile()
	prof.Partitions = 3
	p := NewPlan(11, prof)
	ws := p.Windows()
	if len(ws) != 3 {
		t.Fatalf("want 3 windows, got %d", len(ws))
	}
	for i, w := range ws {
		if w.End-w.Start != prof.PartitionLength {
			t.Errorf("window %d length %v, want %v", i, w.End-w.Start, prof.PartitionLength)
		}
		if i > 0 && w.Start < ws[i-1].End {
			t.Errorf("window %d overlaps predecessor", i)
		}
		if !p.Partitioned(w.Start) || p.Partitioned(w.End) {
			t.Errorf("window %d boundary semantics wrong (half-open [start,end))", i)
		}
	}
}

// planFor builds a single-fault plan: every request to every endpoint
// suffers exactly kind (no partitions), for driving one code path.
func planFor(kind Kind) *Plan {
	prof := Profile{MaxDelay: 2 * time.Millisecond}
	switch kind {
	case DropRequest:
		prof.DropRequest = 1000
	case DropResponse:
		prof.DropResponse = 1000
	case Err5xx:
		prof.Err5xx = 1000
	case Torn:
		prof.Torn = 1000
	case Dup:
		prof.Dup = 1000
	case Delay:
		prof.Delay = 1000
	}
	return NewPlan(5, prof)
}

// upstream is a tiny origin that counts deliveries and returns a
// fixed JSON body.
func TestInjectorOnFaultHook(t *testing.T) {
	in := NewInjector(planFor(DropRequest))
	type hit struct {
		endpoint    string
		n           uint64
		kind        Kind
		partitioned bool
	}
	var hits []hit
	in.OnFault = func(endpoint string, n uint64, f Fault, partitioned bool) {
		hits = append(hits, hit{endpoint, n, f.Kind, partitioned})
	}
	in.Next("/lease")
	in.Next("/lease")
	in.Next("/complete")
	if len(hits) != 3 {
		t.Fatalf("OnFault fired %d times, want 3 (drop rate 1000‰)", len(hits))
	}
	if hits[0] != (hit{"/lease", 0, DropRequest, false}) ||
		hits[1] != (hit{"/lease", 1, DropRequest, false}) ||
		hits[2] != (hit{"/complete", 0, DropRequest, false}) {
		t.Errorf("OnFault observations: %+v", hits)
	}

	// No hook, no faults injected → never called.
	quiet := NewInjector(NewPlan(5, Profile{}))
	quiet.OnFault = func(string, uint64, Fault, bool) { t.Error("OnFault fired with an empty profile") }
	quiet.Next("/lease")
}

type upstream struct {
	hits int
	body string
}

func (u *upstream) handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		u.hits++
		io.Copy(io.Discard, req.Body)
		rw.Header().Set("Content-Type", "application/json")
		io.WriteString(rw, u.body)
	})
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		return resp, string(body), rerr
	}
	return resp, string(body), nil
}

// TestTransportFaults drives each fault kind through the client-side
// Transport and asserts the observable shape: who saw the request, and
// what the client got back.
func TestTransportFaults(t *testing.T) {
	body := `{"ok":true,"pad":"` + strings.Repeat("x", 64) + `"}`
	cases := []struct {
		kind      Kind
		wantHits  int  // upstream deliveries per request
		wantErr   bool // client sees a transport/read error
		wantTorn  bool
		want5xx   bool
		wantDelay bool
	}{
		{kind: None, wantHits: 1},
		{kind: DropRequest, wantHits: 0, wantErr: true},
		{kind: DropResponse, wantHits: 1, wantErr: true},
		{kind: Err5xx, wantHits: 0, want5xx: true},
		{kind: Torn, wantHits: 1, wantTorn: true},
		{kind: Dup, wantHits: 2},
		{kind: Delay, wantHits: 1, wantDelay: true},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			u := &upstream{body: body}
			srv := httptest.NewServer(u.handler())
			defer srv.Close()
			in := NewInjector(planFor(tc.kind))
			client := &http.Client{Transport: NewTransport(in, nil)}

			start := time.Now()
			resp, got, err := get(t, client, srv.URL+"/probe")
			elapsed := time.Since(start)

			if u.hits != tc.wantHits {
				t.Errorf("upstream saw %d deliveries, want %d", u.hits, tc.wantHits)
			}
			switch {
			case tc.wantErr:
				if err == nil {
					t.Fatalf("want transport error, got response %q", got)
				}
				if !strings.Contains(err.Error(), "chaos") {
					t.Errorf("error not attributed to chaos: %v", err)
				}
			case tc.want5xx:
				if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("want 503, got %v err %v", resp, err)
				}
			case tc.wantTorn:
				if err == nil && got == body {
					t.Fatal("torn response arrived intact")
				}
			default:
				if err != nil || got != body {
					t.Fatalf("want intact body, got %q err %v", got, err)
				}
				if tc.wantDelay && elapsed < 500*time.Microsecond {
					t.Errorf("delay fault completed in %v", elapsed)
				}
			}
			if tc.kind != None {
				if c := in.Counters(); c[tc.kind.String()] != 1 {
					t.Errorf("injected-fault counter for %s = %d, want 1", tc.kind, c[tc.kind.String()])
				}
			}
		})
	}
}

// TestPartitionForcesDrop checks that inside a window every request
// drops regardless of its per-request decision.
func TestPartitionForcesDrop(t *testing.T) {
	prof := Profile{Partitions: 1, PartitionEvery: 50 * time.Millisecond, PartitionLength: time.Hour}
	p := NewPlan(9, prof)
	in := NewInjector(p)
	base := time.Now()
	in.now = func() time.Time { return base.Add(p.Windows()[0].Start + time.Millisecond) }
	in.armed = base
	for i := 0; i < 10; i++ {
		if f := in.Next("/lease"); f.Kind != DropRequest {
			t.Fatalf("request %d inside partition window got %s, want drop_request", i, f.Kind)
		}
	}
}
