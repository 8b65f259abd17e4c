package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rcoal/internal/gpusim/tracevis"
)

func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSchema pins BENCHMARK.json to the workloads and metrics the
// benchmark implements.
func TestSchema(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	maxBound := 0.0
	for i, m := range endToEndMetrics {
		e := b.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, e.Name, e.Unit, m.Name, m.Unit)
		}
		maxBound = math.Max(maxBound, e.Bound)
	}
	for _, e := range b.EndToEnd {
		if e.Name == "setup_s" && (e.Better != "lower" || e.Bound != maxBound) {
			t.Errorf("setup_s must be lower-is-better with the largest bound, has %+v", e)
		}
	}
	layer := perLayerMetrics()
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(layer))
	}
	for i, m := range layer {
		if p := b.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, p.Name, p.Unit, m.Name, m.Unit)
		}
	}
}

// TestWorkloads runs every workload at smoke scale (2 samples, 1 seed),
// untraced and traced, and checks that every metric is emitted and
// finite, the span file is valid, the layer shares sum to 1, and no
// output mismatched. Under -short only nocoal-1024, the cheapest, runs.
func TestWorkloads(t *testing.T) {
	ws := workloads
	if testing.Short() {
		ws = ws[1:2]
	}
	for _, w := range ws {
		w := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{workloads: []workload{w}, seed: defaultSeed, seconds: time.Second,
				work: dir, traceOut: filepath.Join(dir, "spans.json")}
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				r := measure(context.Background(), w, cfg)
				if !r.correct() || r.errorRate() != 0 {
					t.Fatalf("trace=%t: error rate %v, problems %q", trace, r.errorRate(), r.problems)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics()
				}
				got := map[string]float64{}
				for _, m := range r.metrics {
					got[m.Name] = m.Value
				}
				for _, m := range want {
					v, ok := got[m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%t: metric %s missing or not finite (%v)", trace, m.Name, v)
					}
				}
				if !trace {
					continue
				}
				raw, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				if err := tracevis.Validate(raw); err != nil {
					t.Errorf("span file: %v", err)
				}
				sum := 0.0
				for _, l := range layers {
					sum += got[l+".host_share"]
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("layer shares sum to %v, want 1", sum)
				}
			}
		})
	}
}

// TestFailFast checks that bad arguments and missing inputs exit with
// code 2 before any compute.
func TestFailFast(t *testing.T) {
	// Run in an empty directory: nothing is written into the source
	// tree, and the goldens, which are relative to the repository
	// root, are missing.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seed", "x"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-workload", "nocoal-1024", "-out", "/proc/none/report.json"},
		{"-workload", "nocoal-1024", "-trace", "1", "-out", "", "-trace-out", "/proc/none/spans.json"},
		{"-workload", "nocoal-1024"},
	} {
		start := time.Now()
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q: took %v to fail", args, d)
		}
	}
}

// TestRescale checks that each stretch between pauses is rescaled by
// the calibrations around it, and that the iteration's speed weights
// the stretches by their length.
func TestRescale(t *testing.T) {
	nominal, slow := calNominal, calTime{wall: 2 * calNominal.wall, cpu: 4 * calNominal.cpu}
	it := &iteration{res: childResult{Segments: []float64{1, 3}}, cals: []calTime{nominal, nominal, slow}}
	if err := it.rescale(); err != nil {
		t.Fatal(err)
	}
	// The second stretch ran between a nominal and a slow calibration:
	// at 1/1.5 of nominal speed by wall time and 1/2.5 by CPU time.
	want := calTime{wall: (1 + 3/1.5) / 4, cpu: (1 + 3/2.5) / 4}
	if math.Abs(it.speed.wall-want.wall) > 1e-12 || math.Abs(it.speed.cpu-want.cpu) > 1e-12 {
		t.Errorf("speed %+v, want %+v", it.speed, want)
	}
	it.cals = it.cals[:2]
	if err := it.rescale(); err == nil {
		t.Error("two segments with two calibrations rescaled without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"rcoal/internal/gpusim.(*GPU).issueOne", "", "sm"},
		{"rcoal/internal/gpusim.(*GPU).loop.func1", "", "sim_loop"},
		{"rcoal/internal/gpusim/dram.(*Controller).collect", "", "dram"},
		{"rcoal/internal/ringbuf.(*Ring[...]).Pop", "", "icnt"},
		{"rcoal/internal/experiments.localExec.ExecCells", "/src/internal/experiments/journal.go", "journal"},
		{"rcoal/internal/experiments.Sweep.func2", "/src/internal/experiments/sweep.go", "experiments"},
		{"runtime.mallocgc", "", "runtime"},
		{"internal/runtime/syscall.Syscall6", "", ""},
		{"runtime.entersyscall", "", ""},
		{"runtime.exitsyscallfast", "", ""},
		{"net/http.(*conn).serve", "", "dist"},
		{"main.main", "", "bench"},
		{"encoding/json.Marshal", "", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}
