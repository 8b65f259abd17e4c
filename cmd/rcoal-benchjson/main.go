// Command rcoal-benchjson converts `go test -bench` text output into a
// machine-readable JSON report, optionally joined against a baseline
// run so before/after speedups live next to the raw numbers.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . > bench.txt
//	rcoal-benchjson -out BENCH_gpusim.json -baseline old_bench.txt bench.txt
//
// Input files (or stdin when none are given) are raw benchmark logs;
// every line of the form
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   10 allocs/op   11 cycles/s
//
// becomes one report entry. The CPU-count suffix is stripped so runs
// from different machines join by name. Unknown units (custom
// b.ReportMetric values) are preserved under "metrics".
//
// With -gpu-metrics the report additionally embeds simulator metrics
// snapshots for the two Figure 6 configurations (baseline GPU with
// coalescing enabled and disabled), so BENCH_gpusim.json records the
// coalesced-transactions-per-instruction histograms alongside the
// timing numbers:
//
//	go test -run '^$' -bench . -benchmem . > bench.txt
//	rcoal-benchjson -gpu-metrics -out BENCH_gpusim.json bench.txt
//
// -join-variant joins before/after pairs measured in the SAME run: for
// every benchmark X with a sibling named X<suffix>, the sibling becomes
// X's baseline. That is how the fast-forward benchmarks publish their
// speedup without needing a log from an older binary:
//
//	rcoal-benchjson -join-variant Vanilla bench.txt
//
// -min-speedup turns joined speedups into a CI gate:
//
//	rcoal-benchjson -join-variant Vanilla \
//	    -min-speedup SimulatorEncrypt1024Lines:2.0 bench.txt
//
// writes the report, then exits nonzero if the named benchmark's
// speedup is below the required ratio.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rcoal"
	"rcoal/internal/atomicio"
	"rcoal/internal/gpusim"
	"rcoal/internal/metrics"
)

// Benchmark is one parsed benchmark result, with optional baseline
// numbers joined by name.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	// Speedup is baseline ns/op divided by current ns/op (>1 is
	// faster); AllocRatio is current allocs/op divided by baseline
	// (<1 is leaner).
	Speedup    float64 `json:"speedup,omitempty"`
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Tool       string             `json:"tool"`
	Baseline   string             `json:"baseline,omitempty"`
	Benchmarks []*Benchmark       `json:"benchmarks"`
	GPUMetrics []*GPUMetricsEntry `json:"gpu_metrics,omitempty"`
}

// GPUMetricsEntry is one simulated launch's metrics snapshot, keyed by
// the paper configuration it reproduces.
type GPUMetricsEntry struct {
	// Config identifies the configuration ("fig6a_coalescing_on",
	// "fig6b_coalescing_off").
	Config string `json:"config"`
	// Lines and Seed pin the launch so the snapshot is reproducible.
	Lines int    `json:"lines"`
	Seed  uint64 `json:"seed"`
	// Snapshot is the full metrics dump; mcu/tx_per_instr is the
	// coalesced-accesses-per-load histogram Figure 6 turns on.
	Snapshot *metrics.Snapshot `json:"snapshot"`
}

func main() {
	out := flag.String("out", "-", "output path, - for stdout")
	baseline := flag.String("baseline", "", "optional baseline bench log to join before/after numbers")
	gpuMetrics := flag.Bool("gpu-metrics", false, "embed metrics snapshots of the Fig. 6 launches (baseline GPU, coalescing on/off)")
	joinVariant := flag.String("join-variant", "", "within-run join: every benchmark X with a sibling X<suffix> in the same input gets the sibling as its baseline (e.g. Vanilla)")
	minSpeedup := flag.String("min-speedup", "", "comma-separated name:ratio assertions checked after joining; the report is still written, but the exit status is nonzero if any named benchmark's speedup is below its ratio")
	flag.Parse()

	var cur []*Benchmark
	if flag.NArg() == 0 {
		var err error
		if cur, err = parse(os.Stdin); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		bs, err := parseFile(path)
		if err != nil {
			fatal(err)
		}
		cur = append(cur, bs...)
	}
	if len(cur) == 0 && !*gpuMetrics {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	rep := &Report{Tool: "rcoal-benchjson", Benchmarks: cur}
	if *gpuMetrics {
		entries, err := collectGPUMetrics()
		if err != nil {
			fatal(err)
		}
		rep.GPUMetrics = entries
	}
	if *baseline != "" {
		base, err := parseFile(*baseline)
		if err != nil {
			fatal(err)
		}
		join(cur, base)
		rep.Baseline = *baseline
	}
	if *joinVariant != "" {
		joinVariants(cur, *joinVariant)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := atomicio.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	if *minSpeedup != "" {
		if err := checkMinSpeedups(rep.Benchmarks, *minSpeedup); err != nil {
			fatal(err)
		}
	}
}

func parseFile(path string) ([]*Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return bs, nil
}

func parse(r io.Reader) ([]*Benchmark, error) {
	var out []*Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := &Benchmark{Name: stripCPUSuffix(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// stripCPUSuffix drops the trailing -N GOMAXPROCS marker so results
// from machines with different core counts join by name.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func join(cur, base []*Benchmark) {
	byName := make(map[string]*Benchmark, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	for _, c := range cur {
		if b, ok := byName[c.Name]; ok {
			joinOne(c, b)
		}
	}
}

// joinVariants is the within-run join: X<suffix> becomes X's baseline.
// Variant entries keep their own row, so the report shows both raw
// timings next to the derived speedup.
func joinVariants(cur []*Benchmark, suffix string) {
	byName := make(map[string]*Benchmark, len(cur))
	for _, b := range cur {
		byName[b.Name] = b
	}
	for _, c := range cur {
		if strings.HasSuffix(c.Name, suffix) {
			continue
		}
		if b, ok := byName[c.Name+suffix]; ok {
			joinOne(c, b)
		}
	}
}

func joinOne(c, b *Benchmark) {
	c.BaselineNsPerOp = b.NsPerOp
	c.BaselineAllocsPerOp = b.AllocsPerOp
	if c.NsPerOp > 0 {
		c.Speedup = round2(b.NsPerOp / c.NsPerOp)
	}
	if b.AllocsPerOp > 0 {
		c.AllocRatio = round2(c.AllocsPerOp / b.AllocsPerOp)
	}
}

// checkMinSpeedups enforces "name:ratio" assertions against the joined
// report. Names match with or without the "Benchmark" prefix.
func checkMinSpeedups(bs []*Benchmark, spec string) error {
	byName := make(map[string]*Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	for _, part := range strings.Split(spec, ",") {
		name, ratioStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return fmt.Errorf("min-speedup: %q is not name:ratio", part)
		}
		ratio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil {
			return fmt.Errorf("min-speedup: bad ratio in %q: %v", part, err)
		}
		b, found := byName[name]
		if !found {
			b, found = byName["Benchmark"+name]
		}
		if !found {
			return fmt.Errorf("min-speedup: benchmark %q not in report", name)
		}
		if b.Speedup == 0 {
			return fmt.Errorf("min-speedup: %q has no joined baseline (missing -baseline/-join-variant match?)", name)
		}
		if b.Speedup < ratio {
			return fmt.Errorf("min-speedup: %s is %.2fx, below required %.2fx", b.Name, b.Speedup, ratio)
		}
	}
	return nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// collectGPUMetrics runs the two Figure 6 launches (baseline GPU with
// coalescing enabled and disabled) with a metrics bundle installed and
// returns their snapshots. Fixed seed and line count keep the output
// byte-for-byte reproducible.
func collectGPUMetrics() ([]*GPUMetricsEntry, error) {
	const lines, seed = 32, 1
	var out []*GPUMetricsEntry
	for _, c := range []struct {
		name    string
		defense rcoal.Mechanism
	}{
		{"fig6a_coalescing_on", rcoal.Baseline()},
		{"fig6b_coalescing_off", rcoal.NoCoal()},
	} {
		cfg := rcoal.DefaultGPUConfig()
		cfg.Defense = c.defense
		cfg.Metrics = gpusim.NewMetrics()
		srv, err := rcoal.NewServer(cfg, []byte("RCoal eval key 1"))
		if err != nil {
			return nil, fmt.Errorf("gpu metrics %s: %w", c.name, err)
		}
		sample, err := srv.Encrypt(rcoal.RandomPlaintext(seed, lines), seed)
		if err != nil {
			return nil, fmt.Errorf("gpu metrics %s: %w", c.name, err)
		}
		out = append(out, &GPUMetricsEntry{
			Config: c.name, Lines: lines, Seed: seed, Snapshot: sample.Metrics})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcoal-benchjson:", err)
	os.Exit(1)
}
