package experiments

import (
	"sync/atomic"
	"testing"

	"rcoal/internal/gpusim"
)

// countingSink counts the simulator events it receives.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(gpusim.Event) { s.n.Add(1) }

// TestSelectiveSweepUnderTraceSink: with a trace sink installed the
// selective sweep cannot fork, so it must fall back to per-cell
// collection, deliver events to the sink, and still produce the
// untraced (forked) run's CSV.
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
