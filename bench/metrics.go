package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"rcoal/internal/atomicio"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's run: its iterations, what failed, and the
// metrics computed from them.
type report struct {
	workload   string
	seed       uint64
	trace      bool
	iterations []*iteration
	setups     []timing // set-up times of every workload process
	attempted  int64    // outputs checked
	failed     int64    // failed iterations plus mismatched outputs
	problems   []string
	metrics    []metric
}

// timing is a time in raw seconds with the machine's speed when it was
// taken; raw × speed is the time in reference seconds.
type timing struct{ raw, speed float64 }

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) errorRate() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// endToEndMetrics are the user-visible metrics of untraced runs, with
// their units, in report order. Times are in reference seconds (see
// calib.go).
var endToEndMetrics = []metric{
	{Name: "wall_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "setup_s", Unit: "s"},
}

// endToEnd takes the median of each time over the untraced iterations,
// and of set-up time over every set-up of the run. Peak memory is the
// mean of the iterations' peaks: where the two workers' allocation
// peaks coincide varies from one iteration to the next, and on the
// 1024-line workloads the mean of a few iterations is steadier than
// either their median or their maximum.
func (r *report) endToEnd() []metric {
	var wall, cpu, rss, setup []float64
	for _, it := range r.plain() {
		wall = append(wall, it.res.WallS*it.speed.wall)
		cpu = append(cpu, it.cpuS*it.speed.cpu)
		rss = append(rss, it.res.PeakRSSMB)
	}
	for _, s := range r.setups {
		setup = append(setup, s.raw*s.speed)
	}
	return withValues(endToEndMetrics, median(wall), median(cpu), mean(rss), median(setup))
}

// plain returns the untraced iterations.
func (r *report) plain() []*iteration {
	var out []*iteration
	for _, it := range r.iterations {
		if it.mode == modePlain {
			out = append(out, it)
		}
	}
	return out
}

// perLayerMetrics lists the per-layer metrics of traced runs.
func perLayerMetrics() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{Name: l + ".host_s", Unit: "s"}, metric{Name: l + ".host_share", Unit: "frac"})
	}
	return append(append(ms,
		metric{Name: "sm.host_ns_per_issue", Unit: "ns"},
		metric{Name: "dram.host_ns_per_service", Unit: "ns"},
		metric{Name: "sim.issues", Unit: "count"},
		metric{Name: "sim.coalesce_ops", Unit: "count"},
		metric{Name: "sim.mem_tx", Unit: "count"},
		metric{Name: "sim.tx_per_coalesce", Unit: "tx"},
		metric{Name: "sim.replies", Unit: "count"},
		metric{Name: "sim.dram_services", Unit: "count"},
		metric{Name: "sim.dram_service_cycles_mean", Unit: "cycles"},
		metric{Name: "sim.warps_retired", Unit: "count"},
		metric{Name: "runner.cell_mean_s", Unit: "s"},
		metric{Name: "runner.cell_max_s", Unit: "s"},
		metric{Name: "runner.utilization", Unit: "frac"},
		metric{Name: "runner.retries", Unit: "count"},
		metric{Name: "runner.failed", Unit: "count"},
		metric{Name: "dist.lease_rtt_p50_ms", Unit: "ms"},
		metric{Name: "dist.lease_rtt_p95_ms", Unit: "ms"},
		metric{Name: "dist.complete_rtt_p50_ms", Unit: "ms"},
		metric{Name: "dist.complete_rtt_p95_ms", Unit: "ms"},
		metric{Name: "dist.cell_p50_s", Unit: "s"},
		metric{Name: "dist.cell_p95_s", Unit: "s"},
		metric{Name: "dist.lease_requests", Unit: "count"},
		metric{Name: "dist.grant_ratio", Unit: "frac"},
		metric{Name: "host.idle_frac", Unit: "frac"},
		metric{Name: "trace_overhead_frac", Unit: "frac"},
		metric{Name: "cells_per_s", Unit: "1/s"},
		metric{Name: "fleet_efficiency", Unit: "frac"},
	), rawMetrics...)
}

// rawMetrics are the end-to-end times before rescaling, in the
// seconds the clock read, and the machine's median speed by wall and
// by CPU time.
var rawMetrics = []metric{
	{Name: "raw.wall_s", Unit: "s"},
	{Name: "raw.cpu_s", Unit: "s"},
	{Name: "raw.setup_s", Unit: "s"},
	{Name: "host.speed", Unit: "x"},
	{Name: "host.cpu_speed", Unit: "x"},
}

// raw derives rawMetrics from the untraced iterations and every set-up.
func (r *report) raw() []metric {
	var wall, cpu, setup, speed, cpuSpeed []float64
	for _, it := range r.plain() {
		wall = append(wall, it.res.WallS)
		cpu = append(cpu, it.cpuS)
		speed = append(speed, it.speed.wall)
		cpuSpeed = append(cpuSpeed, it.speed.cpu)
	}
	for _, s := range r.setups {
		setup = append(setup, s.raw)
	}
	return withValues(rawMetrics, median(wall), median(cpu), median(setup), median(speed), median(cpuSpeed))
}

// perLayer derives the per-layer metrics: host time per layer from
// the profiled iterations, exact simulated counts from the counted
// ones, and pool, idle and overhead figures from the untraced ones.
// Host seconds are per iteration, in reference seconds.
func (r *report) perLayer() []metric {
	host := map[string]float64{}
	var profiled int
	var leaseRTT, completeRTT, cellTimes, leaseReqs []float64
	var issued, requests float64
	var counts simCounts
	var countWall, plainWall, plainRef, plainCPU, rate, eff []float64
	var cellMean, cellMax, util, retries, failed []float64
	for _, it := range r.iterations {
		switch it.mode {
		case modeProfile:
			profiled++
			for l, s := range it.layers {
				host[l] += s * it.speed.cpu
			}
			leaseRTT = append(leaseRTT, it.res.LeaseRTT...)
			completeRTT = append(completeRTT, it.res.CompleteRTT...)
			cellTimes = append(cellTimes, it.res.CellTimes...)
			leaseReqs = append(leaseReqs, float64(len(it.res.LeaseRTT)))
			issued += float64(it.res.LeasesIssued)
			requests += float64(len(it.res.LeaseRTT))
		case modeCount:
			counts = *it.res.Counts
			countWall = append(countWall, it.res.WallS*it.speed.wall)
		case modePlain:
			plainWall = append(plainWall, it.res.WallS)
			plainRef = append(plainRef, it.res.WallS*it.speed.wall)
			plainCPU = append(plainCPU, it.cpuS)
			rate = append(rate, ratio(float64(it.res.Cells), it.res.WallS*it.speed.wall))
			eff = append(eff, ratio(it.res.ComputeS, it.res.WallS*cores))
			if st := it.res.Runner; st != nil {
				cellMean = append(cellMean, st.AvgCell.Seconds())
				cellMax = append(cellMax, st.MaxCell.Seconds())
				// Telemetry's own utilization counts the pauses as idle.
				util = append(util, ratio(st.AvgCell.Seconds()*float64(it.res.Cells), it.res.WallS*float64(st.PeakWorkers)))
				retries = append(retries, float64(st.Retries))
				failed = append(failed, float64(st.CellsFailed))
			}
		}
	}
	total := 0.0
	for _, s := range host {
		total += s
	}
	var values []float64
	for _, l := range layers {
		values = append(values, ratio(host[l], float64(profiled)), ratio(host[l], total))
	}
	sort.Float64s(leaseRTT)
	sort.Float64s(completeRTT)
	sort.Float64s(cellTimes)
	perIssue := ratio(host["sm"], float64(profiled)) * 1e9
	perService := ratio(host["dram"], float64(profiled)) * 1e9
	values = append(values,
		ratio(perIssue, float64(counts.Issues)),
		ratio(perService, float64(counts.DRAMServices)),
		float64(counts.Issues),
		float64(counts.CoalesceOps),
		float64(counts.MemTx),
		ratio(float64(counts.CoalescedTx), float64(counts.CoalesceOps)),
		float64(counts.Replies),
		float64(counts.DRAMServices),
		ratio(float64(counts.DRAMCycles), float64(counts.DRAMServices)),
		float64(counts.WarpsRetired),
		median(cellMean), median(cellMax), median(util), median(retries), median(failed),
		quantile(leaseRTT, 0.50)*1e3, quantile(leaseRTT, 0.95)*1e3,
		quantile(completeRTT, 0.50)*1e3, quantile(completeRTT, 0.95)*1e3,
		quantile(cellTimes, 0.50), quantile(cellTimes, 0.95),
		median(leaseReqs),
		ratio(issued, requests),
		1-ratio(median(plainCPU), median(plainWall)*cores),
		ratio(median(countWall), median(plainRef))-1,
		median(rate), median(eff),
	)
	for _, m := range r.raw() {
		values = append(values, m.Value)
	}
	return withValues(perLayerMetrics(), values...)
}

func withValues(ms []metric, values ...float64) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.Value = values[i]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out[i] = m
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quantile interpolates linearly between the order statistics of
// sorted; 0 for an empty series.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// writeReport writes the JSON report: the environment, then every
// workload's iterations, problems and metrics.
func writeReport(path, work string, reports []*report) error {
	type iterJSON struct {
		Mode   string  `json:"mode"`
		WallS  float64 `json:"wall_s"`
		CPUS   float64 `json:"cpu_s"`
		RSSMB  float64 `json:"peak_rss_mb"`
		SetupS float64 `json:"setup_s"`
		Cells  int64   `json:"cells"`
		// The stretches between pauses, in seconds, and the wall and
		// CPU seconds of the calibrations around them.
		Segments []float64    `json:"segments"`
		Cals     [][2]float64 `json:"calibrations"`
	}
	type runJSON struct {
		Workload   string     `json:"workload"`
		Seed       uint64     `json:"seed"`
		Trace      bool       `json:"trace"`
		Correct    bool       `json:"correct"`
		Attempted  int64      `json:"attempted"`
		Failed     int64      `json:"failed"`
		ErrorRate  float64    `json:"error_rate"`
		Problems   []string   `json:"problems,omitempty"`
		Iterations []iterJSON `json:"iterations"`
		Metrics    []metric   `json:"metrics"`
	}
	doc := struct {
		Environment map[string]any `json:"environment"`
		Runs        []runJSON      `json:"runs"`
	}{Environment: environment(work)}
	for _, r := range reports {
		run := runJSON{Workload: r.workload, Seed: r.seed, Trace: r.trace, Correct: r.correct(),
			Attempted: r.attempted, Failed: r.failed, ErrorRate: r.errorRate(),
			Problems: r.problems, Metrics: r.metrics}
		for _, it := range r.iterations {
			var cals [][2]float64
			for _, c := range it.cals {
				cals = append(cals, [2]float64{c.wall, c.cpu})
			}
			run.Iterations = append(run.Iterations, iterJSON{it.mode, it.res.WallS, it.cpuS, it.res.PeakRSSMB, it.setupS, it.res.Cells, it.res.Segments, cals})
		}
		doc.Runs = append(doc.Runs, run)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(raw, '\n'), 0o644)
}

// environment describes the machine a report was measured on; work
// is the directory the journals are written to.
func environment(work string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": cores,
		"go_version": runtime.Version(),
		"commit":     commit(),
		"temp_fs":    filesystem(work),
	}
}

// commit reads the checked-out commit from .git, or "unknown" outside
// a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	id, err := os.ReadFile(".git/" + ref)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// filesystem names the filesystem holding dir, where the journals are
// written and fsynced.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}
