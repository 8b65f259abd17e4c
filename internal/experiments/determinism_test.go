package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rcoal/internal/attack"
	"rcoal/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenOptions is the reduced-scale configuration the determinism
// goldens are pinned at. Changing it invalidates testdata/*.golden.csv
// (regenerate with `go test ./internal/experiments -run Determinism -update`).
func goldenOptions() Options {
	o := DefaultOptions()
	o.Samples = 10
	return o
}

// determinismCases are the experiments whose CSV output is pinned:
// each must produce byte-identical output for every worker count, and
// match the committed golden file.
var determinismCases = []struct {
	name string
	run  func(o Options) (CSVer, error)
	// repeats counts the rows that repeat an earlier row's cell ID and
	// so take its bytes: the M = 1 rows of a sweep.
	repeats int
}{
	{"sweep_small", func(o Options) (CSVer, error) { return Sweep(o, []int{1, 2}) }, len(Families)},
	{"table2", func(o Options) (CSVer, error) { return Table2(o) }, 0},
	{"fig9", func(o Options) (CSVer, error) { return Fig9(o) }, 0},
}

// TestDeterminismAcrossWorkerCounts is the tentpole contract: the same
// seed yields the same output bytes for workers 1, 4, and NumCPU.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			var ref string
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				o := goldenOptions()
				o.Workers = workers
				tel := runner.NewTelemetry()
				o.Telemetry = tel
				res, err := tc.run(o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				// Each worker count must compute its own cells, or the
				// comparison below is vacuous: only repeats are restored.
				if n := tel.Stats().RestoredCells; n != tc.repeats {
					t.Fatalf("workers=%d: %d cells restored, want %d", workers, n, tc.repeats)
				}
				csv := res.CSV()
				if ref == "" {
					ref = csv
					continue
				}
				if csv != ref {
					t.Errorf("workers=%d: output differs from workers=1 baseline:\n%s\nvs\n%s",
						workers, csv, ref)
				}
			}

			golden := filepath.Join("testdata", tc.name+".golden.csv")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(ref), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if ref != string(want) {
				t.Errorf("output diverged from %s:\n got:\n%s\nwant:\n%s", golden, ref, want)
			}
		})
	}
}

// TestCSVSchemasMatchCommittedData pins each exporter's header against
// the CSV data files committed under data/, so a schema change cannot
// silently orphan the published datasets.
func TestCSVSchemasMatchCommittedData(t *testing.T) {
	headers := map[string]CSVer{
		"fig5":                 &Fig5Result{},
		"fig6":                 &Fig6Result{Enabled: Fig6Case{Byte0: &attack.ByteResult{}}, Disabled: Fig6Case{Byte0: &attack.ByteResult{}}},
		"fig7":                 &Fig7Result{},
		"fig8":                 &ScatterResult{},
		"fig12":                &ScatterResult{},
		"fig13":                &ScatterResult{},
		"fig14":                &ScatterResult{},
		"fig9":                 &Fig9Result{Normal: []int{0}, Skewed: []int{0}},
		"fig15":                &Fig15Result{Sweep: &SweepResult{}},
		"fig16":                &Fig16Result{Sweep: &SweepResult{}},
		"fig17":                &Fig17Result{},
		"fig18":                &Fig18Result{},
		"table2":               &Table2Result{},
		"ext-sensitivity":      &ExtSensitivityResult{},
		"ext-workloads":        &ExtWorkloadsResult{},
		"ext-defense-frontier": &FrontierResult{},
		"ext-selective-sweep":  &SelectiveSweepResult{},
	}
	for id, res := range headers {
		path := filepath.Join("..", "..", "data", id+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: committed data file unreadable: %v", id, err)
			continue
		}
		committed, _, _ := strings.Cut(string(data), "\n")
		fresh, _, _ := strings.Cut(res.CSV(), "\n")
		if committed != fresh {
			t.Errorf("%s: exporter header %q != committed header %q", id, fresh, committed)
		}
	}
}

// TestSweepCellOrderingProperty: regardless of completion order (any
// worker count), the cell slice keeps its mechanism-major ordering,
// Cell lookup agrees with it, and the full results are deeply equal.
func TestSweepCellOrderingProperty(t *testing.T) {
	ms := []int{1, 2}
	var ref *SweepResult
	for _, workers := range []int{1, 2, 5, runtime.NumCPU()} {
		o := goldenOptions()
		o.Workers = workers
		s, err := Sweep(o, ms)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		i := 0
		for _, mech := range Families {
			for _, m := range ms {
				cell := &s.Cells[i]
				if cell.Mechanism != strings.ToUpper(mech) || cell.M != m {
					t.Fatalf("workers=%d: cell %d is (%s, %d), want (%s, %d)",
						workers, i, cell.Mechanism, cell.M, mech, m)
				}
				if got := s.Cell(mech, m); got != cell {
					t.Errorf("workers=%d: Cell(%s, %d) returned %p, want slice entry %p",
						workers, mech, m, got, cell)
				}
				i++
			}
		}
		if len(s.Cells) != i {
			t.Fatalf("workers=%d: %d extra cells", workers, len(s.Cells)-i)
		}
		if ref == nil {
			ref = s
		} else if !reflect.DeepEqual(s, ref) {
			t.Errorf("workers=%d: SweepResult differs from workers=1 run", workers)
		}
	}
}

// TestProgressReporting wires Options.Progress through a sweep and
// checks the callback sees every cell exactly once.
func TestProgressReporting(t *testing.T) {
	o := goldenOptions()
	o.Samples = 5
	o.Workers = 2
	var done, total int
	o.Progress = func(d, n int) { done, total = d, n }
	if _, err := Sweep(o, []int{1}); err != nil {
		t.Fatal(err)
	}
	want := len(Families)*1 + 1 // cells + baseline
	if done != want || total != want {
		t.Errorf("progress finished at %d/%d, want %d/%d", done, total, want, want)
	}
}

// TestWorkersValidation rejects negative worker counts.
func TestWorkersValidation(t *testing.T) {
	o := DefaultOptions()
	o.Workers = -1
	if err := o.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := Sweep(o, []int{1}); err == nil {
		t.Error("Sweep accepted negative Workers")
	}
}
