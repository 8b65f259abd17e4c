package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkSweepWorkers measures the parallel experiment engine's
// scaling on the security/performance sweep: same seed, same cells,
// only the worker count varies. Because cell results land by input
// index, the outputs are byte-identical across sub-benchmarks — the
// speedup is free. On a single-core machine (GOMAXPROCS=1) the
// workers=4 case degenerates to serial and shows pool overhead only.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			o := DefaultOptions()
			o.Samples = 16
			o.Workers = workers
			o.Cache = nil // every iteration computes every cell
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(o, []int{1, 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScatterWorkers covers the other hot path: the per-panel +
// per-key-byte fan-out of the Fig. 8/12-14 family.
func BenchmarkScatterWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := DefaultOptions()
			o.Samples = 16
			o.Workers = workers
			o.Cache = nil // every iteration computes every cell
			for i := 0; i < b.N; i++ {
				if _, err := ScatterExperiment(o, MechRSS, "fig13"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
