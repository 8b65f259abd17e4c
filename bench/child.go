package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcoal/internal/runner"
)

// childEnv carries a childSpec into a workload process: the benchmark
// re-executes its own binary, and main (or TestMain) runs the workload
// when the variable is set.
const childEnv = "RCOAL_BENCH_WORKLOAD"

// Iteration modes. A plain iteration has every probe off and gives the
// end-to-end metrics; profile and count iterations give the per-layer
// metrics. A setup process sets the workload up, closes it and exits,
// timing set-up alone.
const (
	modePlain   = "plain"
	modeProfile = "profile" // CPU profile and spans
	modeCount   = "count"   // counting trace sink
	modeSetup   = "setup"
)

// childTimeout bounds one workload process, so a hung fleet cannot
// hold the benchmark past its deadline.
const childTimeout = 150 * time.Second

type childSpec struct {
	Workload string `json:"workload"`
	Samples  int    `json:"samples"`
	Seeds    int    `json:"seeds"`
	Seed     uint64 `json:"seed"`
	Mode     string `json:"mode"`
	Dir      string `json:"dir"`   // scratch directory for journals and the profile
	Spans    string `json:"spans"` // span file, profile mode
}

// The pause pipes: between two experiment runs a workload process
// writes one byte to pauseOut and waits for one byte on pauseIn, while
// the benchmark process calibrates the machine's speed.
const (
	pauseIn  = 3 // first of exec.Cmd.ExtraFiles
	pauseOut = 4
)

// childResult is what a workload process reports on its stdout.
type childResult struct {
	SetupDone int64 `json:"setup_done_unix_nano"`
	// Segments are the seconds between pauses; WallS is their sum.
	Segments  []float64              `json:"segments"`
	WallS     float64                `json:"wall_s"`
	PeakRSSMB float64                `json:"peak_rss_mb"`
	Cells     int64                  `json:"cells"`
	ComputeS  float64                `json:"compute_s"`
	Outputs   outputs                `json:"outputs"`
	Runner    *runner.TelemetryStats `json:"runner,omitempty"`
	Counts    *simCounts             `json:"counts,omitempty"`
	// Fleet spans, profile mode: round trips by endpoint (seconds),
	// cell compute times, and the coordinators' lease grants.
	LeaseRTT     []float64 `json:"lease_rtt,omitempty"`
	CompleteRTT  []float64 `json:"complete_rtt,omitempty"`
	CellTimes    []float64 `json:"cell_times,omitempty"`
	LeasesIssued uint64    `json:"leases_issued,omitempty"`
}

func (s childSpec) profilePath() string { return s.Dir + "/cpu.pprof" }

// childMain runs one workload iteration and prints its childResult.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: bad workload spec:", err)
		return 2
	}
	res, err := runChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (*childResult, error) {
	pause := pauser()
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	w.samples, w.seeds = spec.Samples, spec.Seeds
	p := &probes{}
	switch spec.Mode {
	case modeCount:
		p.sink = &countSink{}
	case modeProfile:
		p.spans = &spanLog{}
	}
	if !w.fleet {
		p.tel = runner.NewTelemetry()
	}
	in, err := setup(w, spec.Seed, spec.Dir, p)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer in.close()
	if spec.Mode == modeSetup {
		res := &childResult{SetupDone: time.Now().UnixNano()}
		return res, in.close()
	}
	var prof *os.File
	if spec.Mode == modeProfile {
		if prof, err = os.Create(spec.profilePath()); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}

	res := &childResult{SetupDone: time.Now().UnixNano()}
	start := time.Now()
	out, segments, err := in.run(pause)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	res.Segments, res.Outputs = segments, out
	for _, s := range segments {
		res.WallS += s
	}
	res.Cells, res.ComputeS = in.work()
	if p.tel != nil {
		st := p.tel.Stats()
		res.Runner = &st
	}
	if p.sink != nil {
		c := p.sink.counts()
		res.Counts = &c
	}
	if in.fleet != nil && p.spans != nil {
		res.LeasesIssued = in.fleet.leasesIssued()
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if p.spans != nil {
		p.spans.add(procBench, trackWorkload, w.name, start, time.Now(),
			map[string]string{"seed": fmt.Sprint(spec.Seed)})
		res.LeaseRTT = p.spans.durations(trackHTTP, "/lease")
		res.CompleteRTT = p.spans.durations(trackHTTP, "/complete")
		res.CellTimes = p.spans.durations(trackCells, "")
		if err := p.spans.write(spec.Spans, fmt.Sprintf("%s-%d", w.name, spec.Seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// pauser returns the function that hands the machine to the benchmark process
// for a calibration and waits until it is done.
func pauser() func() {
	in, out := os.NewFile(pauseIn, "pause-in"), os.NewFile(pauseOut, "pause-out")
	return func() {
		var b [1]byte
		if _, err := out.Write(b[:]); err == nil {
			in.Read(b[:])
		}
	}
}

// peakRSSMB reads the process's peak resident set. The process's own
// high-water mark is used rather than the parent's rusage, which on
// Linux also counts the parent's memory at the moment of exec.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// iteration is one workload process as the benchmark process saw it.
type iteration struct {
	mode   string
	res    childResult
	setupS float64
	cpuS   float64            // user + system, from the process's rusage
	cals   []calTime          // before, in each pause, after
	speed  calTime            // see rescale
	layers map[string]float64 // profile mode: host seconds per layer
}

// rescale sets the iteration's speed from its calibrations: each
// stretch between pauses runs at calNominal over the mean of the two
// calibrations around it, and the iteration's speed is their mean
// weighted by time. A time in seconds times the speed is in reference
// seconds.
func (it *iteration) rescale() error {
	if len(it.cals) != len(it.res.Segments)+1 {
		return fmt.Errorf("%s iteration: %d segments but %d calibrations", it.mode, len(it.res.Segments), len(it.cals))
	}
	var t, wall, cpu float64
	for k, s := range it.res.Segments {
		t += s
		wall += s * calNominal.wall / ((it.cals[k].wall + it.cals[k+1].wall) / 2)
		cpu += s * calNominal.cpu / ((it.cals[k].cpu + it.cals[k+1].cpu) / 2)
	}
	it.speed = calTime{wall: ratio(wall, t), cpu: ratio(cpu, t)}
	return nil
}

// runIteration runs one workload process and measures it from outside,
// running cal whenever the process pauses.
func runIteration(ctx context.Context, spec childSpec, cal *calibration) (*iteration, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(spec.Dir)
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cores), childEnv+"="+string(raw))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	resumeR, resumeW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer resumeW.Close()
	pausedR, pausedW, err := os.Pipe()
	if err != nil {
		resumeR.Close()
		return nil, err
	}
	defer pausedR.Close()
	cmd.ExtraFiles = []*os.File{resumeR, pausedW} // pauseIn, pauseOut
	it := &iteration{mode: spec.Mode}
	start := time.Now()
	err = cmd.Start()
	resumeR.Close()
	pausedW.Close()
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		var b [1]byte
		for {
			if _, err := pausedR.Read(b[:]); err != nil {
				return // the process exited
			}
			it.cals = append(it.cals, cal.run())
			if _, err := resumeW.Write(b[:]); err != nil {
				return
			}
		}
	}()
	err = cmd.Wait()
	<-served
	if err != nil {
		return nil, fmt.Errorf("%s %s iteration: %w: %s", spec.Workload, spec.Mode, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &it.res); err != nil {
		return nil, fmt.Errorf("%s %s iteration: decoding result: %w", spec.Workload, spec.Mode, err)
	}
	it.setupS = float64(it.res.SetupDone-start.UnixNano()) / 1e9
	it.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if spec.Mode == modeProfile {
		if it.layers, err = layerTimes(spec.profilePath()); err != nil {
			return nil, err
		}
	}
	return it, nil
}
