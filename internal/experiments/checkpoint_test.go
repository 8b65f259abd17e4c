package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rcoal/internal/checkpoint"
	"rcoal/internal/faultinject"
	"rcoal/internal/runner"
)

// TestKillAndResumeSweepByteIdentical is the crash-safety acceptance
// test: a sweep killed mid-grid by a panicking cell, resumed from its
// journal, re-runs only the incomplete cells and produces CSV output
// byte-identical to an uninterrupted run — even after a journal line
// is corrupted on disk.
func TestKillAndResumeSweepByteIdentical(t *testing.T) {
	o := testOptions()
	o.Workers = 1 // deterministic journal order: cells complete 0, 1, 2, ...
	ms := []int{2}

	ref, err := Sweep(o, ms)
	if err != nil {
		t.Fatal(err)
	}
	refCSV := ref.CSV()

	path := filepath.Join(t.TempDir(), "sweep.journal")

	// Run 1: "crash" — cell 3 of 5 panics mid-sweep.
	crashed := o
	j, err := OpenJournal(path, "sweep", crashed, false)
	if err != nil {
		t.Fatal(err)
	}
	crashed.Journal = j
	crashed.faultHook = faultinject.CellPanic(3)
	_, err = Sweep(crashed, ms)
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.PanicError", err)
	}
	if pe.Cell != 3 {
		t.Errorf("panicking cell = %d, want 3", pe.Cell)
	}
	j.Close()

	// Run 2: resume. Cells 0-2 must come from the journal; only 3 and 4
	// may run.
	resumed := o
	j, err = OpenJournal(path, "sweep", resumed, true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("journal holds %d cells after crash, want 3", j.Len())
	}
	resumed.Journal = j
	var ran []int
	resumed.faultHook = func(cell int) error { ran = append(ran, cell); return nil }
	res, err := Sweep(resumed, ms)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(ran) != 2 || ran[0] != 3 || ran[1] != 4 {
		t.Errorf("resumed run re-ran cells %v, want [3 4]", ran)
	}
	if got := res.CSV(); got != refCSV {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s", got, refCSV)
	}

	// Run 3: corrupt one journaled cell on disk (line 0 is the meta
	// line; line 2 is the second cell). Only that cell re-runs, and the
	// output is still byte-identical.
	if err := faultinject.CorruptJournalLine(path, 2); err != nil {
		t.Fatal(err)
	}
	healed := o
	j, err = OpenJournal(path, "sweep", healed, true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", j.Discarded)
	}
	if j.Len() != 4 {
		t.Errorf("journal holds %d cells after corruption, want 4", j.Len())
	}
	healed.Journal = j
	ran = nil
	healed.faultHook = func(cell int) error { ran = append(ran, cell); return nil }
	res, err = Sweep(healed, ms)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(ran) != 1 {
		t.Errorf("corruption-recovery run re-ran cells %v, want exactly one", ran)
	}
	if got := res.CSV(); got != refCSV {
		t.Errorf("corruption-recovered CSV differs from uninterrupted run")
	}
}

// TestResumeRejectsChangedOptions: a journal written under different
// result-determining options must refuse to resume rather than splice
// incompatible cells together.
func TestResumeRejectsChangedOptions(t *testing.T) {
	o := testOptions()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, "sweep", o, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	changed := o
	changed.Samples++
	if _, err := OpenJournal(path, "sweep", changed, true); err == nil {
		t.Error("resume with changed Samples succeeded")
	}
	changed = o
	changed.Seed++
	if _, err := OpenJournal(path, "sweep", changed, true); err == nil {
		t.Error("resume with changed Seed succeeded")
	}
	changed = o
	changed.Key = []byte("RCoal eval key 2")
	if _, err := OpenJournal(path, "sweep", changed, true); err == nil {
		t.Error("resume with changed Key succeeded")
	}
	// Worker count does not affect results, so it must NOT invalidate a
	// journal.
	changed = o
	changed.Workers = 4
	j, err = OpenJournal(path, "sweep", changed, true)
	if err != nil {
		t.Errorf("resume with changed Workers rejected: %v", err)
	} else {
		j.Close()
	}
}

// TestResumeRejectsFormat1Journal: a journal written before the
// subwarp-family grids stored label-free measurements (no format field
// in its meta, and a differently shaped "baseline" cell) refuses to
// resume, so its cells never decode into zeroed measurements.
func TestResumeRejectsFormat1Journal(t *testing.T) {
	o := testOptions()
	cur := metaFor("fig15", o)
	format1 := struct {
		Experiment string `json:"experiment"`
		Samples    int    `json:"samples"`
		Lines      int    `json:"lines"`
		Seed       uint64 `json:"seed"`
		KeyHash    string `json:"keyHash"`
	}{cur.Experiment, cur.Samples, cur.Lines, cur.Seed, cur.KeyHash}
	// The format-1 meta is the current one minus its format field.
	old, _ := json.Marshal(format1)
	now, _ := json.Marshal(cur)
	if want := fmt.Sprintf(`{"format":%d,`, cellFormat) + string(old[1:]); string(now) != want {
		t.Fatalf("current meta %s, want %s", now, want)
	}

	path := filepath.Join(t.TempDir(), "fig15.journal")
	j, err := checkpoint.Create(path, format1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("baseline", map[string]float64{"BaseCycles": 1, "BaseTx": 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "fig15", o, true); err == nil || !strings.Contains(err.Error(), "different experiment configuration") {
		t.Errorf("resuming a format-1 journal: err = %v, want a configuration mismatch", err)
	}
}

// TestCellErrorPropagatesFromExperiment: an injected (non-panic) cell
// failure surfaces as an ordinary error and leaves the journal usable.
func TestCellErrorPropagatesFromExperiment(t *testing.T) {
	o := testOptions()
	o.Workers = 1
	boom := errors.New("injected cell fault")
	o.faultHook = faultinject.CellError(1, boom)
	_, err := Fig7(o)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}
