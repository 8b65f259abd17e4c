// Command bench is the repository benchmark. It runs each chosen
// workload — a fixed experiment grid — in fresh processes for a set
// time, checks every output against a golden file or a reference run,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as "workload metric value unit" lines followed by one JSON
// line. Run it from the repository root with bench/run.sh, which
// builds it first; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcoal/internal/gpusim/tracevis"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workloads []workload
	seed      uint64
	seconds   time.Duration
	trace     bool
	out       string // JSON report; empty for none
	traceOut  string // span file of -trace 1 runs
	work      string // scratch directory for workload processes
	update    bool
}

// committedData is the repository's directory of committed results,
// which the benchmark reads but never rewrites.
const committedData = "data"

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.String("workload", "all", "comma-separated workloads, or all: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; outputs are checked against goldens at the default and against a reference run otherwise")
	seconds := fs.Int("seconds", 10, "how long each workload is measured")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from profiled, counted and untraced runs")
	out := fs.String("out", ".bench_build/report.json", "JSON report with the environment and every iteration (empty for none)")
	traceOut := fs.String("trace-out", ".bench_build/spans.json", "span file of -trace 1 runs; with several workloads the name is inserted before the extension")
	update := fs.Bool("update", false, "regenerate the goldens and "+simCountsPath+" from a serial single-process run at the default seed, then exit")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, out: *out, traceOut: *traceOut, work: ".bench_build/work", update: *update}
	if *list == "all" {
		cfg.workloads = workloads
	} else {
		for _, name := range strings.Split(*list, ",") {
			w, ok := lookupWorkload(name)
			if !ok {
				return cfg, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
			}
			cfg.workloads = append(cfg.workloads, w)
		}
	}
	if *seconds < 1 || *seconds > 3600 {
		return cfg, fmt.Errorf("-seconds %d outside 1..3600", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace %d is neither 0 nor 1", *trace)
	}
	return cfg, nil
}

// validate checks every path the run will need before any compute.
func (cfg config) validate() error {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	paths := []string{cfg.out}
	if cfg.trace {
		for _, w := range cfg.workloads {
			paths = append(paths, cfg.spanFile(w.name))
		}
	}
	for _, path := range paths {
		if path == "" {
			continue
		}
		if err := probeWritable(path); err != nil {
			return err
		}
	}
	if cfg.update {
		return nil
	}
	var counts map[string]simCounts
	for _, w := range cfg.workloads {
		if !w.hasGolden(cfg.seed) {
			continue
		}
		for _, name := range w.outputNames() {
			if _, err := os.Stat(filepath.Join(w.golden, name)); err != nil {
				return fmt.Errorf("missing golden output (regenerate with -update): %w", err)
			}
		}
		if counts == nil {
			var err error
			if counts, err = loadSimCounts(); err != nil {
				return fmt.Errorf("missing simulated-statistics record (regenerate with -update): %w", err)
			}
		}
		if _, ok := counts[w.name]; !ok {
			return fmt.Errorf("%s has no entry for %s (regenerate with -update)", simCountsPath, w.name)
		}
	}
	return nil
}

// spanFile is the span file of workload name.
func (cfg config) spanFile(name string) string {
	if len(cfg.workloads) == 1 {
		return cfg.traceOut
	}
	ext := filepath.Ext(cfg.traceOut)
	return strings.TrimSuffix(cfg.traceOut, ext) + "-" + name + ext
}

func probeWritable(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("output %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("output %s: %w", path, err)
	}
	return f.Close()
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	runtime.GOMAXPROCS(cores)
	if cfg.update {
		if err := update(cfg.workloads); err != nil {
			fmt.Fprintln(stderr, "bench: update:", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var reports []*report
	for _, w := range cfg.workloads {
		r := measure(ctx, w, cfg)
		r.print(stdout)
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
		reports = append(reports, r)
	}
	if cfg.out != "" {
		if err := writeReport(cfg.out, cfg.work, reports); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, ok := resultLine(reports)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// expected returns the outputs a workload must produce at seed: the
// goldens at the default seed, else an untimed reference run.
func expected(w workload, seed uint64) (outputs, error) {
	if w.hasGolden(seed) {
		return w.loadGolden()
	}
	return reference(w, seed, cores, nil)
}

// setupRepeats is how many set-up-only processes a run starts before
// its timed iterations, so that set-up time is a median over several
// set-ups even when few iterations fit in a run.
const setupRepeats = 15

// measure runs workload w for cfg.seconds, starting another iteration
// while time remains, and checks each one's outputs.
func measure(ctx context.Context, w workload, cfg config) *report {
	r := &report{workload: w.name, seed: cfg.seed, trace: cfg.trace}
	if err := r.iterate(ctx, w, cfg); err != nil {
		r.attempted++
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
	if cfg.trace {
		r.metrics = r.perLayer()
	} else {
		r.metrics = r.endToEnd()
	}
	return r
}

func (r *report) iterate(ctx context.Context, w workload, cfg config) error {
	want, err := expected(w, cfg.seed)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	var wantCounts *simCounts
	if w.hasGolden(cfg.seed) {
		m, err := loadSimCounts()
		if err != nil {
			return err
		}
		c := m[w.name]
		wantCounts = &c
	}

	spec := func(mode string, i int) childSpec {
		return childSpec{
			Workload: w.name, Samples: w.samples, Seeds: w.seeds, Seed: cfg.seed, Mode: mode,
			Dir:   filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%s-%d", w.name, os.Getpid(), mode, i)),
			Spans: cfg.spanFile(w.name),
		}
	}
	cal := newCalibration()
	before := cal.run()
	for i := 0; i < setupRepeats; i++ {
		it, err := runIteration(ctx, spec(modeSetup, i), cal)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, timing{it.setupS, calNominal.wall / before.wall})
	}

	modes := []string{modePlain}
	if cfg.trace {
		modes = []string{modeProfile, modeCount, modePlain}
	}
	start := time.Now()
	for i := 0; i < len(modes) || time.Since(start) < cfg.seconds; i++ {
		it, err := runIteration(ctx, spec(modes[i%len(modes)], i), cal)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, timing{it.setupS, calNominal.wall / before.wall})
		after := cal.run()
		it.cals = append(append([]calTime{before}, it.cals...), after)
		if err := it.rescale(); err != nil {
			return err
		}
		before = after
		r.check(it, want, wantCounts)
	}
	if !cfg.trace {
		return nil
	}
	raw, err := os.ReadFile(cfg.spanFile(w.name))
	if err != nil {
		return err
	}
	if err := tracevis.Validate(raw); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// check records one iteration and compares its outputs and simulated
// statistics with the expected ones.
func (r *report) check(it *iteration, want outputs, wantCounts *simCounts) {
	r.iterations = append(r.iterations, it)
	r.attempted += int64(len(want))
	for name, body := range want {
		if it.res.Outputs[name] != body {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s iteration %d: %s differs from the expected output", it.mode, len(r.iterations), name))
		}
	}
	for name := range it.res.Outputs {
		if _, ok := want[name]; !ok {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("unexpected output %s", name))
		}
	}
	if c := it.res.Counts; c != nil {
		if wantCounts != nil && *c != *wantCounts {
			r.problems = append(r.problems, fmt.Sprintf("simulated statistics %+v differ from %s %+v", *c, simCountsPath, *wantCounts))
		}
		for _, prev := range r.iterations {
			if prev.res.Counts != nil && *prev.res.Counts != *c {
				r.problems = append(r.problems, "simulated statistics differ between iterations")
				break
			}
		}
	}
}

// update regenerates the goldens under bench/testdata and the
// simulated-statistics record from serial single-process runs at the
// default seed. Outputs whose goldens are the committed data/ files
// are checked against them instead of rewritten.
func update(ws []workload) error {
	counts, err := loadSimCounts()
	if err != nil {
		counts = map[string]simCounts{}
	}
	for _, w := range ws {
		sink := &countSink{}
		out, err := reference(w, defaultSeed, 1, sink)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		counts[w.name] = sink.counts()
		if w.golden == committedData {
			golden, err := w.loadGolden()
			if err != nil {
				return err
			}
			for name, body := range out {
				if golden[name] != body {
					return fmt.Errorf("%s: %s differs from the committed %s/%s", w.name, name, committedData, name)
				}
			}
			continue
		}
		if err := os.MkdirAll(w.golden, 0o755); err != nil {
			return err
		}
		for name, body := range out {
			if err := os.WriteFile(filepath.Join(w.golden, name), []byte(body), 0o644); err != nil {
				return err
			}
		}
	}
	raw, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(simCountsPath, append(raw, '\n'), 0o644)
}

// print writes every metric as "workload metric value unit".
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d trace=%t: %d iterations, %d failed of %d attempted\n",
		r.workload, r.seed, r.trace, len(r.iterations), r.failed, r.attempted)
	ms := r.metrics
	if !r.trace {
		ms = append(ms, r.raw()...)
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s error_rate %s frac\n", r.workload, strconv.FormatFloat(r.errorRate(), 'g', -1, 64))
}

// resultLine is the final JSON line. With one workload its metrics
// carry their plain names; with several they are prefixed
// "workload/".
func resultLine(reports []*report) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failed
		for _, m := range r.metrics {
			name := m.Name
			if len(reports) > 1 {
				name = r.workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, line.Attempted, line.Failed+1), false
	}
	return string(raw), line.Correct
}
