package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rcoal/internal/checkpoint"
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
	// The journaled run must not share its store with ComputeCell,
	// which would answer every key from it.
	o.Cache = nil

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

// TestComputeCellUsesStore: with a store, ComputeCell records the cell
// it computes under the cell's ID and answers a second call from it;
// without one it computes every call and records nothing.
func TestComputeCellUsesStore(t *testing.T) {
	o := testOptions()
	o.Samples = 6
	o.Lines = 8
	const key = "fss/4"
	o.Cache = nil
	want, err := ComputeCell("fig7", o, key)
	if err != nil {
		t.Fatal(err)
	}

	store := checkpoint.NewMemory()
	o.Cache = store
	for call, wantHits := range []int{0, 1} {
		tel := runner.NewTelemetry()
		o.Telemetry = tel
		got, err := ComputeCell("fig7", o, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("call %d = %s, want %s", call, got, want)
		}
		if s := tel.Stats(); s.CacheHits != wantHits || s.CacheMisses != 1-wantHits {
			t.Errorf("call %d: store hit/miss %d/%d, want %d/%d",
				call, s.CacheHits, s.CacheMisses, wantHits, 1-wantHits)
		}
	}
	id := Fingerprint("fig7", o) + "/" + key
	if raw, ok := store.Lookup(id); !ok || !bytes.Equal(raw, want) || store.Len() != 1 {
		t.Errorf("store holds %d cells, %s = %s (%v); want only the computed cell",
			store.Len(), id, raw, ok)
	}

	// A stored value is what a hit returns: the call computes nothing.
	seeded := checkpoint.NewMemory()
	if _, err := seeded.RecordOnce(id, json.RawMessage(`"from the store"`)); err != nil {
		t.Fatal(err)
	}
	o.Cache = seeded
	o.Telemetry = nil
	if got, err := ComputeCell("fig7", o, key); err != nil || string(got) != `"from the store"` {
		t.Errorf("seeded store: got %s, %v; want the stored value", got, err)
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

// TestFingerprintPinned pins the content addresses of default-option
// runs: changing journalMeta orphans existing run journals and results
// stores, so it must be deliberate — a cellFormat bump when the cell
// encoding changes.
func TestFingerprintPinned(t *testing.T) {
	o := DefaultOptions()
	frontier := o
	frontier.Mechanisms = []string{"rss+rts:8"}
	for _, tc := range []struct {
		ns   string
		o    Options
		want string
	}{
		{"sweep", o, "cd77725e5fa52dee"},
		{"fig7", o, "7d042881806e5509"},
		{"fig18", o, "8e2e0c326c9a1655"},
		{"ext-defense-frontier", frontier, "0645c9d235158aa8"},
	} {
		if got := Fingerprint(tc.ns, tc.o); got != tc.want {
			t.Errorf("Fingerprint(%q) = %s, want %s", tc.ns, got, tc.want)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	o := DefaultOptions()
	base := Fingerprint("fig7", o)
	for name, variant := range map[string]Options{
		"seed":    func() Options { v := o; v.Seed++; return v }(),
		"samples": func() Options { v := o; v.Samples++; return v }(),
		"lines":   func() Options { v := o; v.Lines++; return v }(),
		"key":     func() Options { v := o; v.Key = []byte("another 16B key!"); return v }(),
	} {
		if Fingerprint("fig7", variant) == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	if Fingerprint("fig18", o) == base {
		t.Error("fingerprint insensitive to experiment id")
	}
	// Workers must NOT change the fingerprint: results are
	// byte-identical at any worker count, so they are shareable.
	parallel := o
	parallel.Workers = 7
	if Fingerprint("fig7", parallel) != base {
		t.Error("fingerprint varies with non-result-determining options")
	}
}
