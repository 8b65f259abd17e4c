package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rcoal/internal/runner"
)

// TestComputeCellMatchesJournaledBytes is the worker-side determinism
// contract: a cell computed in isolation by ComputeCell must be
// byte-identical to the JSON a full local run journals for the same
// key — that equality is what makes distributed results splice
// seamlessly into the coordinator's ledger.
func TestComputeCellMatchesJournaledBytes(t *testing.T) {
	o := testOptions()
	o.Samples = 6
	o.Lines = 8

	jo := o
	path := filepath.Join(t.TempDir(), "fig7.journal")
	j, err := OpenJournal(path, "fig7", jo, false)
	if err != nil {
		t.Fatal(err)
	}
	jo.Journal = j
	if _, err := Run("fig7", jo); err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for _, key := range []string{"fss/1", "fss/4", "fss/32"} {
		want, ok := j.Lookup(key)
		if !ok {
			t.Fatalf("journal missing %q", key)
		}
		got, err := ComputeCell("fig7", o, key)
		if err != nil {
			t.Fatalf("ComputeCell(%q): %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ComputeCell(%q) = %s, journal has %s", key, got, want)
		}
	}
}

func TestComputeCellUnknownKey(t *testing.T) {
	o := testOptions()
	o.Samples = 2
	o.Lines = 1
	if _, err := ComputeCell("fig7", o, "rss/7"); err == nil || !strings.Contains(err.Error(), "no grid cell") {
		t.Errorf("unknown key error = %v", err)
	}
	// An experiment with no cell-parallel grid runs to completion and
	// reports the key as absent rather than hanging or panicking.
	if _, err := ComputeCell("table2", o, "anything"); err == nil || !strings.Contains(err.Error(), "no grid cell") {
		t.Errorf("gridless experiment error = %v", err)
	}
}

// TestResultsCacheWarmSweep pins the store contract: a second sweep
// against a reopened store file, under identical result-determining
// options, computes zero cells and renders identical output; cells
// computed under different options live at different addresses.
func TestResultsCacheWarmSweep(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.Samples = 6
	o.Lines = 8
	o.Workers = 1
	n := len(Fig7Subwarps)

	cold := o
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = c1
	coldTel := runner.NewTelemetry()
	cold.Telemetry = coldTel
	refRes, err := Run("fig7", cold)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if s := coldTel.Stats(); s.CellsDone-s.RestoredCells != n || s.CacheHits != 0 || s.CacheMisses != n {
		t.Errorf("cold stats = %+v, want %d cells computed, cache hit/miss 0/%d", s, n, n)
	}

	warm := o
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	warm.Cache = c2
	warmTel := runner.NewTelemetry()
	warm.Telemetry = warmTel
	res, err := Run("fig7", warm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != refRes.Render() {
		t.Error("cache-served run renders differently from cold run")
	}
	if s := warmTel.Stats(); s.CacheHits != n || s.RestoredCells != n || s.CellsDone != n {
		t.Errorf("warm stats = %+v, want all %d cells cache-hit and restored", s, n)
	}

	// Different seed → different fingerprint → no stored cell matches.
	other := o
	other.Seed++
	fp := Fingerprint("fig7", other)
	for _, m := range Fig7Subwarps {
		if _, ok := c2.Lookup(fmt.Sprintf("%s/fss/%d", fp, m)); ok {
			t.Errorf("differently-seeded cell fss/%d found in the store", m)
		}
	}
	if c2.Len() != n {
		t.Errorf("store holds %d cells, want %d", c2.Len(), n)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	o := DefaultOptions()
	base := Fingerprint("fig7", o)
	for name, variant := range map[string]Options{
		"seed":    func() Options { v := o; v.Seed++; return v }(),
		"samples": func() Options { v := o; v.Samples++; return v }(),
		"lines":   func() Options { v := o; v.Lines++; return v }(),
		"hybrid":  func() Options { v := o; v.Hybrid = true; return v }(),
		"key":     func() Options { v := o; v.Key = []byte("another 16B key!"); return v }(),
	} {
		if Fingerprint("fig7", variant) == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	if Fingerprint("fig18", o) == base {
		t.Error("fingerprint insensitive to experiment id")
	}
	// Workers/accelerators must NOT change the fingerprint: they are
	// byte-identical by contract, so their results are shareable.
	accel := o
	accel.Workers = 7
	accel.ForkPrefix = true
	if Fingerprint("fig7", accel) != base {
		t.Error("fingerprint varies with non-result-determining options")
	}
}
