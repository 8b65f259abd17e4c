package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/dist"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/runner"
)

const (
	// defaultSeed is the seed the committed data/*.csv were made with.
	defaultSeed = 0x8C0A1
	// cores is the machine size the benchmark is pinned to: GOMAXPROCS
	// of every workload process, Options.Workers of the local pool, and
	// the number of fleet workers. The load never exceeds it.
	cores = 2
)

// workload is one fixed input set: the experiments in ids, run in
// order for each of seeds consecutive seeds starting at the run's
// seed. Samples are scaled so that one pass takes a few seconds and a
// run measures several passes.
type workload struct {
	name    string
	why     string
	ids     []string
	samples int
	seeds   int
	// journal gives every experiment a fresh checkpoint journal, so each
	// finished cell is written and fsynced.
	journal bool
	// fleet runs the grids through an in-process coordinator on
	// loopback HTTP with two single-cell workers instead of the pool.
	fleet bool
	// golden is the directory holding the expected outputs at
	// defaultSeed; empty when there are none (scaled-down test copies).
	golden string
}

var paperGrids = []string{"fig15", "fig16", "fig17"}

var workloads = []workload{
	{
		name: "case-study-1024", ids: []string{"fig18"}, samples: 2, seeds: 1,
		golden: "bench/testdata/case-study-1024",
		why:    "the 1024-line case study is the reproduction's dominant cost; SM issue, DRAM and crossbar take the host time",
	},
	{
		name: "nocoal-1024", ids: []string{"nocoal"}, samples: 5, seeds: 1,
		golden: "bench/testdata/nocoal-1024",
		why:    "uncoalesced traffic makes DRAM the top layer; it never touches the pool, the journal or dist",
	},
	{
		name: "paper-sweep", ids: paperGrids, samples: 100, seeds: 1, journal: true,
		golden: "data",
		why:    "the paper's headline grids: many short journaled 32-line cells whose CSVs must equal data/",
	},
	{
		name: "fleet-sweep", ids: paperGrids, samples: 10, seeds: 2, journal: true, fleet: true,
		golden: "bench/testdata/fleet-sweep",
		why:    "short cells leased over loopback HTTP, where lease round trips, fsync and polling dominate",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny is the workload at smoke-test scale, with no goldens.
func (w workload) tiny() workload {
	w.samples, w.seeds, w.golden = 2, 1, ""
	return w
}

func (w workload) options(seed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Samples = w.samples
	o.Seed = seed
	o.Workers = cores
	return o
}

// outputs maps an output file name to its contents.
type outputs map[string]string

// outputName names experiment id's output for the k-th seed. nocoal
// has no CSV form, so its rows are compared as JSON.
func (w workload) outputName(k int, id string) string {
	name := id + ".csv"
	if id == "nocoal" {
		name = id + ".json"
	}
	if w.seeds > 1 {
		name = fmt.Sprintf("seed%d-%s", k, name)
	}
	return name
}

func (w workload) outputNames() []string {
	var names []string
	for k := 0; k < w.seeds; k++ {
		for _, id := range w.ids {
			names = append(names, w.outputName(k, id))
		}
	}
	return names
}

func render(res experiments.Result) (string, error) {
	if c, ok := res.(experiments.CSVer); ok {
		return c.CSV(), nil
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// reference computes the workload's outputs with a plain
// single-process run of workers pool workers: no journal, no
// coordinator. A non-nil sink receives every simulator event.
func reference(w workload, seed uint64, workers int, sink gpusim.TraceSink) (outputs, error) {
	out := outputs{}
	for k := 0; k < w.seeds; k++ {
		o := w.options(seed + uint64(k))
		o.Workers = workers
		if sink != nil {
			o.Trace = sink
		}
		for _, id := range w.ids {
			res, err := experiments.Run(id, o)
			if err != nil {
				return nil, fmt.Errorf("%s at seed %d: %w", id, o.Seed, err)
			}
			if out[w.outputName(k, id)], err = render(res); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// hasGolden reports whether the expected outputs for seed are on disk.
func (w workload) hasGolden(seed uint64) bool { return w.golden != "" && seed == defaultSeed }

func (w workload) loadGolden() (outputs, error) {
	out := outputs{}
	for _, name := range w.outputNames() {
		b, err := os.ReadFile(filepath.Join(w.golden, name))
		if err != nil {
			return nil, fmt.Errorf("golden output: %w", err)
		}
		out[name] = string(b)
	}
	return out, nil
}

// simCountsPath records the exact simulated statistics of every
// workload at defaultSeed.
const simCountsPath = "bench/testdata/simcounts.json"

func loadSimCounts() (map[string]simCounts, error) {
	b, err := os.ReadFile(simCountsPath)
	if err != nil {
		return nil, err
	}
	var m map[string]simCounts
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", simCountsPath, err)
	}
	return m, nil
}

// probes are the benchmark's hooks at the program's public seams.
// Nil fields are off.
type probes struct {
	sink  *countSink        // Options.Trace
	tel   *runner.Telemetry // Options.Telemetry, local pool workloads
	spans *spanLog
	cells cellClock // fleet cells, timed around dist.Worker.Compute
}

// instance is a workload set up in a workload process, ready for its
// timed section.
type instance struct {
	w        workload
	p        *probes
	opts     []experiments.Options   // per seed
	journals [][]*checkpoint.Journal // per seed, per experiment
	fleet    *fleet
}

// setup opens the journals and, for the fleet, starts the coordinator
// and attaches the workers. dir holds the journals.
func setup(w workload, seed uint64, dir string, p *probes) (in *instance, err error) {
	in = &instance{w: w, p: p}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	for k := 0; k < w.seeds; k++ {
		o := w.options(seed + uint64(k))
		if p.sink != nil {
			o.Trace = p.sink
		}
		o.Telemetry = p.tel
		in.opts = append(in.opts, o)
		if !w.journal {
			continue
		}
		var js []*checkpoint.Journal
		for _, id := range w.ids {
			j, err := experiments.OpenJournal(filepath.Join(dir, fmt.Sprintf("seed%d-%s.journal", k, id)), id, o, false)
			if err != nil {
				return in, err
			}
			js = append(js, j)
		}
		in.journals = append(in.journals, js)
	}
	if w.fleet {
		in.fleet, err = startFleet(w.seeds, p)
	}
	return in, err
}

// run is the timed section: every experiment of every seed, rendered.
// Between two experiment runs of a local workload it calls pause, which
// the timed section excludes; the fleet never pauses, because its
// workers keep polling through a pause. It returns the outputs and the
// seconds each stretch between pauses took.
func (in *instance) run(pause func()) (outputs, []float64, error) {
	out := outputs{}
	var segments []float64
	mark := time.Now()
	for k, o := range in.opts {
		if in.fleet != nil {
			in.fleet.use(k)
		}
		for j, id := range in.w.ids {
			if in.fleet == nil && (k > 0 || j > 0) {
				segments = append(segments, time.Since(mark).Seconds())
				pause()
				mark = time.Now()
			}
			o := o
			switch {
			case in.fleet != nil:
				o.Exec = dist.NewExec(in.fleet.servers[k], id, in.journals[k][j], nil)
			case in.journals != nil:
				o.Journal = in.journals[k][j]
			}
			start := time.Now()
			res, err := experiments.Run(id, o)
			end := time.Now()
			in.p.spans.add(procBench, trackExperiments, id, start, end,
				map[string]string{"seed": fmt.Sprint(o.Seed)})
			if err != nil {
				return nil, nil, fmt.Errorf("%s at seed %d: %w", id, o.Seed, err)
			}
			if out[in.w.outputName(k, id)], err = render(res); err != nil {
				return nil, nil, err
			}
		}
	}
	return out, append(segments, time.Since(mark).Seconds()), nil
}

// work returns the grid cells computed in the timed section and, for
// the fleet, the seconds its workers spent in Compute. Pool cells are
// counted by runner.Telemetry; nocoal is not a grid and computes none.
func (in *instance) work() (cells int64, computeS float64) {
	if in.fleet != nil {
		return in.p.cells.n.Load(), float64(in.p.cells.nanos.Load()) / 1e9
	}
	st := in.p.tel.Stats()
	return int64(st.CellsDone + st.CellsFailed - st.RestoredCells), 0
}

func (in *instance) close() error {
	var errs []error
	if in.fleet != nil {
		errs = append(errs, in.fleet.close())
		in.fleet = nil
	}
	for _, js := range in.journals {
		for _, j := range js {
			errs = append(errs, j.Close())
		}
	}
	in.journals = nil
	return errors.Join(errs...)
}
