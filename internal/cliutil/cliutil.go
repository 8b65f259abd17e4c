// Package cliutil holds the flag checks rcoal-experiments runs before any compute.
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rcoal/internal/mechanism"
)

// CheckOutputs validates output paths before any compute, since they
// are first written only after every experiment has finished: -csv
// must name an existing directory this process can create files in
// (probed by creating and removing one), and the parent directories of
// -trace-out and -flight-out must exist. Empty paths are unused.
func CheckOutputs(csvDir, traceOut, flightOut string) error {
	if csvDir != "" {
		fi, err := os.Stat(csvDir)
		if err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("-csv %s: not a directory", csvDir)
		}
		probe, err := os.CreateTemp(csvDir, ".rcoal-probe-*")
		if err != nil {
			return fmt.Errorf("-csv %s: not writable: %w", csvDir, err)
		}
		probe.Close()
		if err := os.Remove(probe.Name()); err != nil {
			return fmt.Errorf("-csv %s: %w", csvDir, err)
		}
	}
	for _, out := range []struct{ flag, path string }{{"-trace-out", traceOut}, {"-flight-out", flightOut}} {
		if out.path == "" {
			continue
		}
		dir := filepath.Dir(out.path)
		fi, err := os.Stat(dir)
		if err != nil {
			return fmt.Errorf("%s %s: parent directory: %w", out.flag, out.path, err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("%s %s: parent %s is not a directory", out.flag, out.path, dir)
		}
	}
	return nil
}

// ParseMechanisms splits a comma-separated -mechanisms value into
// trimmed defense specs, validating each with mechanism.Parse so a bad
// spec fails before any compute rather than inside the one experiment
// that reads the filter. The specs are returned as written: they are
// part of the result fingerprint. An empty value means no filter.
func ParseMechanisms(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var specs []string
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if _, err := mechanism.Parse(spec); err != nil {
			return nil, fmt.Errorf("-mechanisms: %w", err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
