package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// smallGoldenCases spans the Fig-class shapes: raw scatter (fig5),
// full key recovery (fig6), the FSS sweep (fig7), the 1024-line case
// study (fig18), and the selective sweep.
var smallGoldenCases = []struct {
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

// TestSmallGoldenCSVs pins each case's CSV at goldenOptions against
// its committed golden. A single flipped bit anywhere — state leaking
// across launches, sample-assembly drift, a model change — fails the
// comparison.
func TestSmallGoldenCSVs(t *testing.T) {
	for _, tc := range smallGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("1024-line case study is slow; run without -short")
			}
			res, err := tc.run(goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := res.CSV()
			golden := filepath.Join("testdata", tc.name+".golden.csv")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output diverged from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
