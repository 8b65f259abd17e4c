package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTelemetryCountsPoolRun(t *testing.T) {
	tel := NewTelemetry()
	p := Pool{Workers: 4, Telemetry: tel}
	err := p.MapN(context.Background(), 20, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	s := tel.Stats()
	if s.TotalCells != 20 || s.CellsDone != 20 || s.CellsFailed != 0 {
		t.Fatalf("stats after clean run: %+v", s)
	}
	if s.ActiveWorkers != 0 {
		t.Errorf("active workers %d after pool drained, want 0", s.ActiveWorkers)
	}
	if s.PeakWorkers < 1 || s.PeakWorkers > 4 {
		t.Errorf("peak workers %d, want 1..4", s.PeakWorkers)
	}
	if s.MinCell < 0 || s.MaxCell < s.MinCell || s.AvgCell < 0 {
		t.Errorf("cell timing stats inconsistent: %+v", s)
	}
}

func TestTelemetryRetriesAndFailures(t *testing.T) {
	// A terminally failing cell counts as failed, not done, and is
	// never re-run.
	tel := NewTelemetry()
	p := Pool{Workers: 1, Telemetry: tel}
	if err := p.MapN(context.Background(), 1, func(context.Context, int) error {
		return errors.New("fatal")
	}); err == nil {
		t.Fatal("expected error")
	}
	s := tel.Stats()
	if s.CellsFailed != 1 || s.CellsDone != 0 {
		t.Errorf("done/failed = %d/%d, want 0/1", s.CellsDone, s.CellsFailed)
	}
	if s.Retries != 0 {
		t.Errorf("retries = %d, want 0", s.Retries)
	}
}

func TestTelemetryStatsDerived(t *testing.T) {
	// Fixed clock: 10 cells finish over 5 virtual seconds, half the
	// workers busy — rate, ETA, and utilization become exact.
	tel := NewTelemetry()
	base := time.Unix(1000, 0)
	now := base
	tel.now = func() time.Time { return now }

	tel.addTotal(20)
	for i := 0; i < 10; i++ {
		start := tel.cellStart()
		now = now.Add(250 * time.Millisecond)
		tel.cellEnd(start, nil)
		now = now.Add(250 * time.Millisecond)
	}
	s := tel.Stats()
	if s.Elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", s.Elapsed)
	}
	if s.CellsPerSec != 2 {
		t.Errorf("rate = %v, want 2 cells/s", s.CellsPerSec)
	}
	if s.ETA != 5*time.Second {
		t.Errorf("eta = %v, want 5s (10 remaining at 2/s)", s.ETA)
	}
	if s.Utilization != 0.5 {
		t.Errorf("utilization = %v, want 0.5", s.Utilization)
	}
	if s.AvgCell != 250*time.Millisecond || s.MinCell != 250*time.Millisecond || s.MaxCell != 250*time.Millisecond {
		t.Errorf("cell times avg/min/max = %v/%v/%v, want 250ms each", s.AvgCell, s.MinCell, s.MaxCell)
	}

	line := s.String()
	for _, want := range []string{"cells 10/20", "2.0 cells/s", "eta 5s", "util 50%"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat line %q missing %q", line, want)
		}
	}
}

func TestTelemetryRestoredExcludedFromRateWindow(t *testing.T) {
	// A resumed sweep: 15 of 20 cells restored from the journal in an
	// instant, 2 fresh cells computed at 1 cell/s. The rate must
	// reflect only the fresh cells, and the ETA must cover only the 3
	// unfinished fresh cells — restored cells inflating either was the
	// stale-rate bug on resumed sweeps.
	tel := NewTelemetry()
	base := time.Unix(1000, 0)
	now := base
	tel.now = func() time.Time { return now }

	tel.AddRestored(15)
	tel.addTotal(5) // the pool only schedules the 5 remaining cells
	for i := 0; i < 2; i++ {
		start := tel.cellStart()
		now = now.Add(time.Second)
		tel.cellEnd(start, nil)
	}
	s := tel.Stats()
	if s.TotalCells != 20 || s.CellsDone != 17 {
		t.Errorf("done/total = %d/%d, want 17/20", s.CellsDone, s.TotalCells)
	}
	if s.RestoredCells != 15 {
		t.Errorf("restored = %d, want 15", s.RestoredCells)
	}
	if s.CellsPerSec != 1 {
		t.Errorf("rate = %v cells/s, want 1 (restored cells must not count)", s.CellsPerSec)
	}
	if s.ETA != 3*time.Second {
		t.Errorf("eta = %v, want 3s (3 fresh cells at 1/s)", s.ETA)
	}
	if line := s.String(); !strings.Contains(line, "cells 17/20 (15 restored)") {
		t.Errorf("heartbeat line %q missing restored count", line)
	}
}

func TestTelemetryZeroWidthRateWindow(t *testing.T) {
	// A fully warm sweep: every remaining cell is a cache hit or
	// journal restore, so the fresh-cell rate window is zero-width.
	// The rate/ETA/utilization must all stay finite and non-negative —
	// this was the heartbeat degenerating on warm resumes.
	tel := NewTelemetry()
	base := time.Unix(1000, 0)
	now := base
	tel.now = func() time.Time { return now }

	tel.AddRestored(20)
	for i := 0; i < 20; i++ {
		tel.AddCacheHit()
	}
	now = now.Add(3 * time.Second) // wall time passes, zero fresh cells
	s := tel.Stats()
	for name, v := range map[string]float64{
		"cells_per_sec": s.CellsPerSec,
		"utilization":   s.Utilization,
		"eta_seconds":   s.ETA.Seconds(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %v on zero-width rate window, want finite non-negative", name, v)
		}
	}
	if s.CellsPerSec != 0 || s.ETA != 0 {
		t.Errorf("rate/eta = %v/%v on all-restored sweep, want 0/0", s.CellsPerSec, s.ETA)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("stats snapshot not JSON-marshalable: %v", err)
	}
	if line := s.String(); strings.Contains(line, "NaN") || strings.Contains(line, "-") {
		t.Errorf("heartbeat line degenerated: %q", line)
	}

	// Same scenario with zero elapsed time (events all within one
	// clock tick): still finite.
	tel2 := NewTelemetry()
	tel2.now = func() time.Time { return base }
	tel2.AddRestored(5)
	s2 := tel2.Stats()
	if s2.CellsPerSec != 0 || s2.ETA != 0 || s2.Utilization != 0 {
		t.Errorf("zero-elapsed stats degenerated: %+v", s2)
	}
}

func TestTelemetryClockSkewClamped(t *testing.T) {
	// The clock stepping backwards (NTP correction) must not produce a
	// negative elapsed window or a negative rate.
	tel := NewTelemetry()
	base := time.Unix(1000, 0)
	now := base
	tel.now = func() time.Time { return now }
	tel.addTotal(2)
	start := tel.cellStart()
	tel.cellEnd(start, nil)
	now = base.Add(-10 * time.Second)
	s := tel.Stats()
	if s.Elapsed < 0 || s.CellsPerSec < 0 || s.ETA < 0 {
		t.Errorf("clock skew produced negative stats: %+v", s)
	}
}

func TestHeartbeatWithEmitsSnapshots(t *testing.T) {
	tel := NewTelemetry()
	tel.addTotal(3)
	var mu sync.Mutex
	var got []TelemetryStats
	stop := tel.HeartbeatWith(10*time.Millisecond, func(s TelemetryStats) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("HeartbeatWith emitted %d snapshots, want >= 2", len(got))
	}
	if got[len(got)-1].TotalCells != 3 {
		t.Errorf("final snapshot total = %d, want 3", got[len(got)-1].TotalCells)
	}
}

func TestTelemetryCacheCounters(t *testing.T) {
	tel := NewTelemetry()
	tel.AddCacheHit()
	tel.AddCacheHit()
	tel.AddCacheMiss()
	s := tel.Stats()
	if s.CacheHits != 2 || s.CacheMisses != 1 {
		t.Errorf("cache hit/miss = %d/%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
	if line := s.String(); !strings.Contains(line, "cache 2 hit/1 miss") {
		t.Errorf("heartbeat line %q missing cache counters", line)
	}
}

func TestTelemetryEmptyStats(t *testing.T) {
	s := NewTelemetry().Stats()
	if s.Elapsed != 0 || s.CellsPerSec != 0 || s.ETA != 0 {
		t.Errorf("empty telemetry derived non-zero stats: %+v", s)
	}
	if line := s.String(); !strings.Contains(line, "cells 0/0") {
		t.Errorf("empty heartbeat line: %q", line)
	}
}

func TestHeartbeatWritesAndStops(t *testing.T) {
	tel := NewTelemetry()
	tel.addTotal(1)
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := tel.Heartbeat(w, 10*time.Millisecond)
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if strings.Count(out, "telemetry:") < 2 {
		t.Fatalf("heartbeat wrote too few lines:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("heartbeat output not line-terminated")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
