package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rcoal/internal/kernels"
)

// This file pins the trace-cache contract at the experiment level: a
// run with the cache installed must emit CSVs byte-identical to the
// committed goldens, which are generated without it (`-update`). A
// single flipped bit anywhere — cache key collision, fork state leak,
// sample-assembly drift — fails the comparison.

// accelOptions is goldenOptions with the trace cache installed.
func accelOptions() Options {
	o := goldenOptions()
	o.TraceCache = kernels.NewTraceCache()
	return o
}

// accelGoldenCases spans the Fig-class shapes: raw scatter (fig5),
// full key recovery (fig6), the FSS sweep (fig7), the 1024-line case
// study (fig18), and the selective sweep, which collects through
// prefix forking with the cache stacked on top.
var accelGoldenCases = []struct {
	name string
	slow bool // skipped under -short (1024-line launches)
	run  func(o Options) (CSVer, error)
}{
	{"fig5_small", false, func(o Options) (CSVer, error) { return Fig5(o) }},
	{"fig6_small", false, func(o Options) (CSVer, error) { return Fig6(o) }},
	{"fig7_small", false, func(o Options) (CSVer, error) { return Fig7(o) }},
	{"fig18_small", true, func(o Options) (CSVer, error) {
		o.Samples = 3
		return Fig18(o)
	}},
	{"selective_sweep_small", false, func(o Options) (CSVer, error) {
		return SelectiveSweep(o, []int{2, 4})
	}},
}

// TestAcceleratorsPreserveGoldenCSVs runs each case with the trace
// cache installed and compares against the uncached golden.
func TestAcceleratorsPreserveGoldenCSVs(t *testing.T) {
	for _, tc := range accelGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("1024-line case study is slow; run without -short")
			}
			golden := filepath.Join("testdata", tc.name+".golden.csv")
			if *updateGolden {
				// Goldens come from the uncached path. That is what
				// makes the comparison below a differential test
				// rather than a self-fulfilling pin. SelectiveSweep
				// forks without a trace sink, so the selective golden
				// is regenerated forked too; its reference check
				// against per-policy collection is equiv.ForkExact.
				res, err := tc.run(goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(res.CSV()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			res, err := tc.run(accelOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CSV(); got != string(want) {
				t.Errorf("accelerated output diverged from vanilla golden %s:\n got:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}
