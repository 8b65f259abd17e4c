package experiments

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"rcoal/internal/checkpoint"
	"rcoal/internal/gpusim"
	"rcoal/internal/runner"
)

// countingSink counts the simulator events it receives.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(gpusim.Event) { s.n.Add(1) }

// TestSelectiveSweepUnderTraceSink: a traced selective sweep bypasses
// the results store, so every cell collects again, delivers its
// events to the sink, and still produces the untraced run's CSV.
func TestSelectiveSweepUnderTraceSink(t *testing.T) {
	o := DefaultOptions()
	o.Samples = 4
	ms := []int{2, 4}
	want, err := SelectiveSweep(o, ms)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	o.Trace = sink
	got, err := SelectiveSweep(o, ms)
	if err != nil {
		t.Fatalf("traced selective sweep: %v", err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("traced CSV differs from untraced:\n got:\n%s\nwant:\n%s", got.CSV(), want.CSV())
	}
	if sink.n.Load() == 0 {
		t.Error("trace sink received no events")
	}
}

// TestSelectiveSweepWarmStore: the sweep's 17 cells (the baseline and
// four families at four subwarp counts) go through the results store,
// so a second sweep on the same store computes none of them and
// renders the same CSV.
func TestSelectiveSweepWarmStore(t *testing.T) {
	o := DefaultOptions()
	o.Samples = 4
	o.Cache = checkpoint.NewMemory()
	ms := []int{2, 4, 8, 32}
	want, err := SelectiveSweep(o, ms)
	if err != nil {
		t.Fatal(err)
	}
	tel := runner.NewTelemetry()
	o.Telemetry = tel
	o.Progress = func(done, total int) { t.Errorf("warm sweep computed a cell (%d/%d)", done, total) }
	got, err := SelectiveSweep(o, ms)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("warm CSV differs from cold:\n got:\n%s\nwant:\n%s", got.CSV(), want.CSV())
	}
	if s := tel.Stats(); s.CacheHits != 17 || s.CacheMisses != 0 {
		t.Errorf("warm store hit/miss %d/%d, want 17/0", s.CacheHits, s.CacheMisses)
	}
}

// TestComputeCellSelectiveSweep: one selective-sweep cell computed
// alone is the bytes of that cell in a full run.
func TestComputeCellSelectiveSweep(t *testing.T) {
	o := DefaultOptions()
	o.Samples = 4
	o.Cache = nil
	full, err := Run("ext-selective-sweep", o)
	if err != nil {
		t.Fatal(err)
	}
	var cell *SelectiveSweepCell
	for i, c := range full.(*SelectiveSweepResult).Cells {
		if c.Mechanism == "RSS+RTS" && c.M == 8 {
			cell = &full.(*SelectiveSweepResult).Cells[i]
		}
	}
	if cell == nil {
		t.Fatal("full run has no RSS+RTS/8 cell")
	}
	want, err := json.Marshal(selectiveMeasure{cell.MeanCycles, cell.MeanLastRoundTx, cell.ChannelCorr})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeCell("ext-selective-sweep", o, "RSS+RTS/8")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ComputeCell = %s, full run's cell = %s", got, want)
	}
}
