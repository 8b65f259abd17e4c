// Package experiments reproduces every table and figure of the RCoal
// paper's evaluation (Sections III, V-C, and VI). Each experiment is a
// function from Options to a typed result that renders as an ASCII
// table/chart; the Registry maps paper artifact IDs ("fig6", "table2",
// ...) to runners for the CLI and the benchmark harness.
//
// Reproduction is shape-level, per the repository's DESIGN.md: the
// simulated substrate differs from the authors' GPGPU-Sim testbed, so
// absolute cycle counts differ, but trends, winners, and crossovers
// are expected to match the paper.
package experiments

import (
	"fmt"
	"sort"

	"rcoal/internal/aesgpu"
	"rcoal/internal/attack"
	"rcoal/internal/checkpoint"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/runner"
	"rcoal/internal/stats"
)

// Options parameterizes an experiment run.
type Options struct {
	// Samples is the number of plaintext timing samples (the paper
	// demonstrates all attacks with 100).
	Samples int
	// Lines is the plaintext size in 16-byte lines per sample (32 for
	// the main evaluation, 1024 for the case study).
	Lines int
	// Seed drives all randomness: plaintexts, hardware plans, attacker
	// simulations (as independent derived streams).
	Seed uint64
	// Key is the AES key under attack.
	Key []byte
	// Workers bounds how many evaluation cells an experiment runs
	// concurrently: 0 means GOMAXPROCS, 1 forces serial execution.
	// The worker count never changes results — every cell derives its
	// randomness from explicit seeds and owns its simulator and
	// attacker, so output is byte-identical at any setting.
	Workers int
	// Progress, when non-nil, is called after each completed cell of
	// the cell-parallel experiments (sweeps, scatter figures, the case
	// study). Calls are serialized.
	Progress func(done, total int)
	// Journal, when non-nil, checkpoints each completed cell of the
	// cell-parallel experiments and restores journaled cells instead of
	// re-running them — an interrupted sweep resumes where it stopped
	// with byte-identical output (see OpenJournal).
	Journal *checkpoint.Journal
	// Cache, when non-nil, is the results store: cells keyed by their
	// content address (GridCell.ID), so a cell any earlier run
	// computed under identical result-determining options — in this
	// experiment or another, such as the cells Figs. 15-17 share — is
	// restored instead of re-run, and freshly computed cells are
	// stored for later runs. DefaultOptions attaches a fresh
	// memory-only store, so runs sharing one Options value share their
	// cells; OpenCache opens a file-backed one that outlives the
	// process. Runs with a Trace sink bypass the store. Purely an
	// accelerator — output stays byte-identical.
	Cache *checkpoint.Journal
	// Exec, when non-nil, replaces the local worker pool as the
	// executor of the cell-parallel experiments' enumerated grids —
	// the seam the distributed coordinator (internal/dist) plugs into
	// to lease cells out to remote workers. Cells are
	// location-independent (all randomness derives from explicit
	// seeds), so any executor that runs GridCell.Run faithfully
	// produces byte-identical results. See CellExec.
	Exec CellExec
	// faultHook, when non-nil, runs before each freshly evaluated cell
	// with the cell's index. Test-only: the crash-safety tests use it
	// to panic or fail inside a chosen cell (see internal/faultinject).
	faultHook func(cell int) error
	// Trace, when non-nil, receives every simulator event from every
	// launch the experiment performs — install a *tracevis.Exporter to
	// dump a Perfetto-loadable trace of the whole run. The sink must be
	// safe for concurrent use unless Workers is 1; expect large volumes
	// (every issue, transaction, and reply of every sample).
	Trace gpusim.TraceSink
	// Telemetry, when non-nil, aggregates live per-cell runtime stats
	// (timing, failures, throughput) from the experiment's worker pools.
	Telemetry *runner.Telemetry
	// Mechanisms, when non-empty, restricts mechanism-enumerating
	// experiments (currently ext-defense-frontier) to the given defense
	// specs (mechanism.Parse grammar, e.g. "rss+rts:8", "delay:64").
	// Empty means the registry's full frontier set. Specs are part of
	// the result-determining fingerprint.
	Mechanisms []string
}

// gpuConfig is the GPU configuration every experiment starts from: the
// paper's Table I defaults plus the run's trace sink.
func (o Options) gpuConfig() gpusim.Config {
	cfg := gpusim.DefaultConfig()
	cfg.Trace = o.Trace
	return cfg
}

// DefaultOptions mirrors the paper's evaluation setup, with a fresh
// memory-only results store shared by every run of the returned value
// and its copies.
func DefaultOptions() Options {
	return Options{
		Samples: 100,
		Lines:   32,
		Seed:    0x8C0A1,
		Key:     []byte("RCoal eval key 1"),
		Cache:   checkpoint.NewMemory(),
	}
}

// Validate checks the options every experiment needs. Each message
// after the "experiments: " prefix starts with the lower-cased name of
// the offending field.
func (o Options) Validate() error {
	if o.Samples < 2 {
		return fmt.Errorf("experiments: samples %d: need >= 2", o.Samples)
	}
	if o.Lines < 1 {
		return fmt.Errorf("experiments: lines %d: need >= 1", o.Lines)
	}
	if len(o.Key) != 16 && len(o.Key) != 24 && len(o.Key) != 32 {
		return fmt.Errorf("experiments: key of %d bytes: need 16, 24 or 32", len(o.Key))
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: workers %d: need >= 0 (0 = GOMAXPROCS)", o.Workers)
	}
	return nil
}

// collect runs the encryption server under the given defense and
// gathers the attacker's dataset.
func collect(o Options, defense mechanism.Mechanism) (*aesgpu.Server, *aesgpu.Dataset, error) {
	cfg := o.gpuConfig()
	cfg.Defense = defense
	return collectCfg(o, cfg)
}

// collectCfg is collect under a fully specified GPU config.
func collectCfg(o Options, cfg gpusim.Config) (*aesgpu.Server, *aesgpu.Dataset, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	srv, err := aesgpu.NewServer(cfg, o.Key)
	if err != nil {
		return nil, nil, err
	}
	ds, err := srv.Collect(o.Samples, o.Lines, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	return srv, ds, nil
}

// ciphertexts extracts the attacker-visible ciphertext matrix.
func ciphertexts(ds *aesgpu.Dataset) [][]kernels.Line {
	out := make([][]kernels.Line, len(ds.Samples))
	for i, s := range ds.Samples {
		out[i] = s.Ciphertexts
	}
	return out
}

// avgCorrectCorrelation computes the mean, over the 16 key-byte
// positions, of the correlation between the attack's estimation vector
// for the *correct* byte value and the measurement vector — the metric
// of Figures 7b, 15, and 18a. It avoids the 256-guess sweep that the
// full recovery performs.
func avgCorrectCorrelation(a *attack.Attacker, cts [][]kernels.Line, meas []float64, trueKey [16]byte) (float64, error) {
	sum := 0.0
	for j := 0; j < attack.KeyBytes; j++ {
		r, err := stats.Pearson(a.EstimationVector(cts, j, trueKey[j]), meas)
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum / attack.KeyBytes, nil
}

// fullKeyEstimateCorrelation grants the attacker the entire correct
// key and asks how well the mechanism lets it reconstruct the total
// last-round access count: ρ(Σ_j Û_j(k_j), measurement). For
// deterministic mechanisms (baseline, FSS) this is exactly 1 against
// observed access counts; randomization drives it down. It is the
// cleanest single number for "can the access count be predicted at
// all".
func fullKeyEstimateCorrelation(a *attack.Attacker, cts [][]kernels.Line, meas []float64, trueKey [16]byte) (float64, error) {
	total := make([]float64, len(cts))
	for j := 0; j < attack.KeyBytes; j++ {
		for n, v := range a.EstimationVector(cts, j, trueKey[j]) {
			total[n] += v
		}
	}
	return stats.Pearson(total, meas)
}

// Result is what every experiment produces: something renderable plus
// a stable ID.
type Result interface {
	// Render returns the human-readable report.
	Render() string
}

// Runner executes one experiment.
type Runner func(Options) (Result, error)

// Registry maps experiment IDs (paper artifact names) to runners. It
// is populated by the per-figure files' init functions.
var Registry = map[string]Runner{}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) (Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(o)
}
