package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rcoal/internal/metrics"
	"rcoal/internal/runner"
)

// Prom renders metrics in the Prometheus text exposition format
// (version 0.0.4) with zero dependencies — the /metrics endpoints on
// the coordinator and workers build one per scrape. Families are
// emitted in call order; HELP/TYPE headers are written once per
// family and all samples of one family stay contiguous, as the
// format requires.
type Prom struct {
	buf  bytes.Buffer
	seen map[string]bool
}

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// NewProm returns an empty exposition builder.
func NewProm() *Prom { return &Prom{seen: map[string]bool{}} }

// Counter emits one counter family with a single (optionally
// labeled) sample.
func (p *Prom) Counter(name, help string, v float64, labels ...Label) {
	p.family(name, help, "counter")
	p.sample(name, labels, v)
}

// Gauge emits one gauge family with a single sample.
func (p *Prom) Gauge(name, help string, v float64, labels ...Label) {
	p.family(name, help, "gauge")
	p.sample(name, labels, v)
}

// GaugeSeries emits one gauge family followed by many labeled
// samples produced by fill.
func (p *Prom) GaugeSeries(name, help string, fill func(sample func(v float64, labels ...Label))) {
	p.family(name, help, "gauge")
	fill(func(v float64, labels ...Label) { p.sample(name, labels, v) })
}

// Histogram emits one metrics.HistogramValue as a Prometheus
// histogram: cumulative le buckets, _sum, and _count.
func (p *Prom) Histogram(name, help string, h metrics.HistogramValue) {
	p.family(name, help, "histogram")
	cum := uint64(0)
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		p.sample(name+"_bucket", []Label{{"le", formatFloat(float64(b))}}, float64(cum))
	}
	p.sample(name+"_bucket", []Label{{"le", "+Inf"}}, float64(h.Count))
	p.sample(name+"_sum", nil, float64(h.Sum))
	p.sample(name+"_count", nil, float64(h.Count))
}

// Snapshot encodes a whole metrics.Snapshot under the given name
// prefix: counters as counters, gauges as value+_max gauge pair,
// histograms as histograms, and tables as one gauge family with
// row/col labels. Names are emitted sorted for deterministic output.
func (p *Prom) Snapshot(prefix string, s *metrics.Snapshot) {
	if s == nil {
		return
	}
	for _, name := range sortedKeys(s.Counters) {
		p.Counter(MetricName(prefix, name), "registry counter "+name, float64(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		base := MetricName(prefix, name)
		p.Gauge(base, "registry gauge "+name, float64(g.Value))
		p.Gauge(base+"_max", "high-water mark of "+name, float64(g.Max))
	}
	for _, name := range sortedKeys(s.Histograms) {
		p.Histogram(MetricName(prefix, name), "registry histogram "+name, s.Histograms[name])
	}
	for _, name := range sortedKeys(s.Tables) {
		t := s.Tables[name]
		p.GaugeSeries(MetricName(prefix, name), "registry table "+name, func(sample func(v float64, labels ...Label)) {
			for i, row := range t.Rows {
				for j, col := range t.Cols {
					sample(float64(t.Value(i, j)), Label{"row", row}, Label{"col", col})
				}
			}
		})
	}
}

// Telemetry encodes a runner.TelemetryStats snapshot under the given
// name prefix.
func (p *Prom) Telemetry(prefix string, s runner.TelemetryStats) {
	n := func(name string) string { return MetricName(prefix, name) }
	p.Gauge(n("cells_total"), "cells in the grid (including restored)", float64(s.TotalCells))
	p.Gauge(n("cells_done"), "cells completed (including restored)", float64(s.CellsDone))
	p.Gauge(n("cells_failed"), "cells that failed", float64(s.CellsFailed))
	p.Gauge(n("cells_restored"), "cells satisfied from journal or cache", float64(s.RestoredCells))
	p.Counter(n("cache_hits_total"), "results-cache hits", float64(s.CacheHits))
	p.Counter(n("cache_misses_total"), "results-cache misses", float64(s.CacheMisses))
	p.Gauge(n("workers_active"), "workers currently inside a cell", float64(s.ActiveWorkers))
	p.Gauge(n("workers_peak"), "peak concurrent workers seen", float64(s.PeakWorkers))
	p.Gauge(n("elapsed_seconds"), "observation window length", s.Elapsed.Seconds())
	p.Gauge(n("cell_seconds_avg"), "mean fresh-cell duration", s.AvgCell.Seconds())
	p.Gauge(n("cell_seconds_min"), "fastest fresh cell", s.MinCell.Seconds())
	p.Gauge(n("cell_seconds_max"), "slowest fresh cell", s.MaxCell.Seconds())
	p.Gauge(n("cells_per_second"), "fresh-cell throughput", s.CellsPerSec)
	p.Gauge(n("eta_seconds"), "extrapolated time to finish fresh cells", s.ETA.Seconds())
	p.Gauge(n("utilization"), "fraction of worker-seconds spent in cells", s.Utilization)
}

// Bytes returns the exposition accumulated so far.
func (p *Prom) Bytes() []byte { return p.buf.Bytes() }

// WriteTo writes the exposition to w.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.buf.Bytes())
	return int64(n), err
}

func (p *Prom) family(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	fmt.Fprintf(&p.buf, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func (p *Prom) sample(name string, labels []Label, v float64) {
	p.buf.WriteString(name)
	if len(labels) > 0 {
		p.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.buf.WriteByte(',')
			}
			fmt.Fprintf(&p.buf, `%s="%s"`, sanitizeName(l.Name), escapeLabel(l.Value))
		}
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
	p.buf.WriteString(formatFloat(v))
	p.buf.WriteByte('\n')
}

// MetricName joins a prefix and a registry name into a valid
// Prometheus metric name, mapping characters outside
// [a-zA-Z0-9_:] to underscores.
func MetricName(prefix, name string) string {
	if prefix != "" {
		name = prefix + "_" + name
	}
	return sanitizeName(name)
}

func sanitizeName(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel applies the exposition format's three label escapes
// (backslash, quote, newline) and strips any other control character
// — the format recognizes no further escape sequences.
func escapeLabel(s string) string {
	s = strings.Map(func(r rune) rune {
		if r < 0x20 && r != '\n' {
			return -1
		}
		return r
	}, s)
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
