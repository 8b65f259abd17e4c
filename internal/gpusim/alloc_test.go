package gpusim

import "testing"

// Steady-state allocation guards: after a warm-up launch has built the
// runtime (SMs, interconnect ports, controllers, request arena), repeat launches
// on the same GPU must allocate only the per-launch values that escape
// to the caller — the Result, its per-warp stats slice, the launch's
// coalescing plan, and the RNG sources that derive it. Everything else
// (queues, scratch, requests) is reused. A regression here silently
// re-introduces the GC pressure the event-driven core removed.

// steadyStateRunAllocs is the pinned per-launch allocation count for a
// shared-plan launch: Result + Warps slice + plan (sizes, subwarp ids)
// + the hardware/cache/launch RNG sources.
const steadyStateRunAllocs = 12

func TestRunSteadyStateAllocations(t *testing.T) {
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := randomKernel(5, 2, 3)
	if _, err := g.Run(k, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := g.Run(k, 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > steadyStateRunAllocs {
		t.Errorf("steady-state Run allocates %.1f times per launch, pinned at %d", avg, steadyStateRunAllocs)
	}
}

func TestRunSteadyStateAllocationsAcrossSeeds(t *testing.T) {
	// Different seeds draw different plans but must hit the same reuse
	// path; only the seed-dependent escaping values may allocate.
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := randomKernel(6, 4, 2)
	if _, err := g.Run(k, 0); err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	avg := testing.AllocsPerRun(20, func() {
		if _, err := g.Run(k, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if avg > steadyStateRunAllocs {
		t.Errorf("steady-state Run across seeds allocates %.1f times per launch, pinned at %d",
			avg, steadyStateRunAllocs)
	}
}

// TestRunSelectiveSteadyStateAllocations pins a selective Run's
// steady-state allocations at a plain Run's: the whole-warp subwarps
// of the non-vulnerable rounds are built once with the runtime.
func TestRunSelectiveSteadyStateAllocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VulnerableRounds = []int{3}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := randomKernel(5, 2, 3)
	if _, err := g.Run(k, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := g.Run(k, 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > steadyStateRunAllocs {
		t.Errorf("steady-state selective Run allocates %.1f times per launch, pinned at %d",
			avg, steadyStateRunAllocs)
	}
}
