// Command rcoal-obscheck validates observability artifacts produced
// by a sweep: Prometheus text exposition scraped from /metrics, and
// the merged fleet trace written by rcoal-experiments -serve -trace-out. It
// exists so smoke scripts and CI can assert the observability plane's
// output formats without external tooling.
//
// Usage:
//
//	rcoal-obscheck -prom metrics.txt
//	rcoal-obscheck -trace fleet.json -require "lease,cell,chaos_fault"
//	rcoal-obscheck -trace fleet.json -one-trace-id
//
// -require takes comma-separated event-name prefixes; each must match
// at least one event in the trace ("lease" matches "lease k0_v1").
// -one-trace-id additionally demands that every duration/instant
// event carries the same trace_id argument as the file's otherData.
// Any failed check prints a diagnostic and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rcoal/internal/gpusim/tracevis"
	"rcoal/internal/obs"
)

func main() {
	var (
		prom    = flag.String("prom", "", "Prometheus text exposition file to lint")
		trace   = flag.String("trace", "", "Chrome/Perfetto trace JSON file to validate")
		require = flag.String("require", "", "comma-separated event-name prefixes the trace must contain (with -trace)")
		oneID   = flag.Bool("one-trace-id", false, "require every timeline event to carry the file's otherData trace_id (with -trace)")
	)
	flag.Parse()

	if *prom == "" && *trace == "" {
		fmt.Fprintln(os.Stderr, "usage: rcoal-obscheck -prom <file> | -trace <file> [-require names] [-one-trace-id]")
		os.Exit(2)
	}
	exit := 0
	if *prom != "" {
		if err := checkProm(*prom); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-obscheck: %s: %v\n", *prom, err)
			exit = 1
		} else {
			fmt.Printf("%s: valid Prometheus text exposition\n", *prom)
		}
	}
	if *trace != "" {
		if err := checkTrace(*trace, *require, *oneID); err != nil {
			fmt.Fprintf(os.Stderr, "rcoal-obscheck: %s: %v\n", *trace, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func checkProm(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return obs.LintProm(data)
}

func checkTrace(path, require string, oneID bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := tracevis.Validate(raw); err != nil {
		return err
	}
	var f tracevis.File
	if err := json.Unmarshal(raw, &f); err != nil {
		return err
	}
	traceID, _ := f.OtherData["trace_id"].(string)
	if oneID {
		if traceID == "" {
			return fmt.Errorf("otherData carries no trace_id")
		}
		for _, ev := range f.TraceEvents {
			if ev.Ph != "X" && ev.Ph != "i" && ev.Ph != "B" {
				continue
			}
			if got, _ := ev.Args["trace_id"].(string); got != traceID {
				return fmt.Errorf("event %q (ph %s) carries trace_id %q, want %q", ev.Name, ev.Ph, got, traceID)
			}
		}
	}
	if require != "" {
		names := make([]string, 0, len(f.TraceEvents))
		for _, ev := range f.TraceEvents {
			names = append(names, ev.Name)
		}
		for _, want := range strings.Split(require, ",") {
			want = strings.TrimSpace(want)
			if want == "" {
				continue
			}
			found := false
			for _, name := range names {
				if strings.HasPrefix(name, want) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("no event named %q* in trace (%d events)", want, len(f.TraceEvents))
			}
		}
	}
	fmt.Printf("%s: valid trace, %d events, trace_id %s\n", path, len(f.TraceEvents), traceID)
	return nil
}
