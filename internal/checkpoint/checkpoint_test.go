package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rcoal/internal/faultinject"
)

type testMeta struct {
	Experiment string `json:"experiment"`
	Samples    int    `json:"samples"`
	Seed       int64  `json:"seed"`
}

type testCell struct {
	Cell   int     `json:"cell"`
	Cycles float64 `json:"cycles"`
}

func TestCreateRecordResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	meta := testMeta{Experiment: "sweep", Samples: 30, Seed: 1}

	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(fmt.Sprintf("cell/%d", i), testCell{Cell: i, Cycles: 1.5 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 || r.Discarded != 0 {
		t.Fatalf("resumed len=%d discarded=%d, want 3/0", r.Len(), r.Discarded)
	}
	raw, ok := r.Lookup("cell/2")
	if !ok {
		t.Fatal("cell/2 missing after resume")
	}
	var c testCell
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.Cell != 2 || c.Cycles != 3.0 {
		t.Errorf("cell/2 = %+v", c)
	}
	if _, ok := r.Lookup("cell/9"); ok {
		t.Error("phantom cell found")
	}
	// Appending after resume works.
	if err := r.Record("cell/3", testCell{Cell: 3}); err != nil {
		t.Fatal(err)
	}
	r2, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 4 {
		t.Errorf("after append+resume len = %d, want 4", r2.Len())
	}
}

func TestResumeCreatesMissingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.journal")
	meta := testMeta{Experiment: "x"}
	j, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("fresh journal len = %d", j.Len())
	}
	if err := j.Record("a", testCell{}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// The meta line written on creation must satisfy a later resume.
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Errorf("len = %d, want 1", r.Len())
	}
}

func TestResumeRejectsMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := Create(path, testMeta{Experiment: "sweep", Samples: 30})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = Resume(path, testMeta{Experiment: "sweep", Samples: 50})
	if err == nil {
		t.Fatal("resume with mismatched meta succeeded")
	}
	if !strings.Contains(err.Error(), "different experiment configuration") {
		t.Errorf("undiagnostic error: %v", err)
	}
}

func TestCorruptLinesDiscardedNotFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Record(fmt.Sprintf("cell/%d", i), testCell{Cell: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Corrupt the line for cell/1 (line 2: line 0 is meta).
	if err := faultinject.CorruptJournalLine(path, 2); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", r.Discarded)
	}
	// Discards pins where and why: corrupted cell/1 is journal line 3
	// (meta line 1, cell/0 line 2 — CorruptJournalLine counts from 0).
	if len(r.Discards) != 1 {
		t.Fatalf("Discards = %+v, want one entry", r.Discards)
	}
	if d := r.Discards[0]; d.Line != 3 || d.Reason == "" {
		t.Errorf("Discard = %+v, want line 3 with a reason", d)
	}
	if _, ok := r.Lookup("cell/1"); ok {
		t.Error("corrupted cell still resolvable")
	}
	for _, k := range []string{"cell/0", "cell/2", "cell/3"} {
		if _, ok := r.Lookup(k); !ok {
			t.Errorf("healthy cell %s lost", k)
		}
	}
}

func TestTruncatedTailLineDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("cell/0", testCell{Cell: 0})
	j.Record("cell/1", testCell{Cell: 1})
	j.Close()

	// Simulate a crash mid-append: chop bytes off the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup("cell/1"); ok {
		t.Error("truncated cell still resolvable")
	}
	if _, ok := r.Lookup("cell/0"); !ok {
		t.Error("intact cell lost")
	}
	if r.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", r.Discarded)
	}
	// Re-recording the lost cell and resuming again must heal fully.
	if err := r.Record("cell/1", testCell{Cell: 1}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	healed, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if healed.Len() != 2 || healed.Discarded != 1 {
		t.Errorf("healed len=%d discarded=%d, want 2/1", healed.Len(), healed.Discarded)
	}
}

func TestLastOccurrenceWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("cell/0", testCell{Cell: 0, Cycles: 1})
	j.Record("cell/0", testCell{Cell: 0, Cycles: 2})
	j.Close()
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raw, _ := r.Lookup("cell/0")
	var c testCell
	json.Unmarshal(raw, &c)
	if c.Cycles != 2 {
		t.Errorf("cycles = %v, want the later record (2)", c.Cycles)
	}
}

func TestConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Record(fmt.Sprintf("cell/%d", i), testCell{Cell: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 16 || r.Discarded != 0 {
		t.Errorf("len=%d discarded=%d, want 16/0 (interleaved writes?)", r.Len(), r.Discarded)
	}
}

func TestLeaseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Two leases out; one completes, one (cell/1) is in flight when the
	// coordinator "crashes".
	j.RecordLease(Lease{Key: "cell/0", Worker: "w1", Seq: 1, IssuedUnixNano: 100})
	j.RecordLease(Lease{Key: "cell/1", Worker: "w2", Seq: 1, IssuedUnixNano: 200})
	j.Record("cell/0", testCell{Cell: 0})
	j.Close()

	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	leases := r.Leases()
	if len(leases) != 1 {
		t.Fatalf("Leases() = %v, want only the incomplete cell/1", leases)
	}
	l, ok := leases["cell/1"]
	if !ok || l.Worker != "w2" || l.Seq != 1 || l.IssuedUnixNano != 200 {
		t.Errorf("cell/1 lease = %+v", l)
	}
	if _, ok := r.Lookup("cell/0"); !ok {
		t.Error("completed cell lost among lease lines")
	}
}

func TestLeaseReissueLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Lease times out and is re-issued to another worker with a higher
	// seq; the ledger must report the latest issue.
	j.RecordLease(Lease{Key: "cell/0", Worker: "w1", Seq: 1, IssuedUnixNano: 100})
	j.RecordLease(Lease{Key: "cell/0", Worker: "w2", Seq: 2, IssuedUnixNano: 900})
	j.Close()
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l := r.Leases()["cell/0"]
	if l.Worker != "w2" || l.Seq != 2 {
		t.Errorf("lease after re-issue = %+v, want w2/seq 2", l)
	}
}

func TestTornLeaseLineDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j.RecordLease(Lease{Key: "cell/0", Worker: "w1", Seq: 1})
	j.RecordLease(Lease{Key: "cell/1", Worker: "w1", Seq: 1})
	j.Close()

	// Corrupt the first lease line (line 0 is meta).
	if err := faultinject.CorruptJournalLine(path, 1); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", r.Discarded)
	}
	leases := r.Leases()
	if _, ok := leases["cell/0"]; ok {
		t.Error("torn lease line still resolvable")
	}
	if _, ok := leases["cell/1"]; !ok {
		t.Error("healthy lease lost")
	}

	// A torn *tail* lease line (crash mid-append) heals the same way.
	if err := r.RecordLease(Lease{Key: "cell/2", Worker: "w2", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	healed, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if _, ok := healed.Leases()["cell/2"]; ok {
		t.Error("truncated tail lease still resolvable")
	}
	// Appending after the torn tail starts a fresh line.
	if err := healed.RecordLease(Lease{Key: "cell/3", Worker: "w2", Seq: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordOnceFirstWriterWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	meta := testMeta{Experiment: "sweep"}
	j, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := j.RecordOnce("cell/0", testCell{Cell: 0, Cycles: 1})
	if err != nil || !rec {
		t.Fatalf("first RecordOnce = (%v, %v), want recorded", rec, err)
	}
	// The duplicate (a stale lease holder reporting late) must neither
	// record nor clobber.
	rec, err = j.RecordOnce("cell/0", testCell{Cell: 0, Cycles: 99})
	if err != nil || rec {
		t.Fatalf("duplicate RecordOnce = (%v, %v), want not recorded", rec, err)
	}
	j.Close()
	r, err := Resume(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raw, _ := r.Lookup("cell/0")
	var c testCell
	json.Unmarshal(raw, &c)
	if c.Cycles != 1 {
		t.Errorf("cycles = %v, want the first write (1)", c.Cycles)
	}
	if r.Len() != 1 {
		t.Errorf("len = %d, want 1 (duplicate must not append)", r.Len())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "j"), testMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("", testCell{}); err == nil {
		t.Error("empty key accepted")
	}
}

// TestMemoryJournal: a memory-only journal answers Lookup, Record,
// RecordOnce and the lease ledger like a file-backed one, from many
// goroutines at once, and Close is a no-op.
func TestMemoryJournal(t *testing.T) {
	j := NewMemory()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("cell/%d", i%8)
			if _, err := j.RecordOnce(key, testCell{Cell: i % 8}); err != nil {
				t.Error(err)
			}
			if _, ok := j.Lookup(key); !ok {
				t.Errorf("Lookup(%q) missed right after RecordOnce", key)
			}
		}(i)
	}
	wg.Wait()
	if j.Len() != 8 {
		t.Errorf("len = %d, want 8 (RecordOnce must dedup)", j.Len())
	}
	if err := j.Record("cell/0", testCell{Cell: 0, Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	raw, _ := j.Lookup("cell/0")
	if string(raw) != `{"cell":0,"cycles":2}` {
		t.Errorf("Record did not overwrite: %s", raw)
	}
	if err := j.RecordLease(Lease{Key: "cell/9", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if l := j.Leases(); len(l) != 1 || l["cell/9"].Seq != 1 {
		t.Errorf("leases = %v, want cell/9 at seq 1", l)
	}
	if _, err := j.RecordOnce("", testCell{}); err == nil {
		t.Error("empty key accepted")
	}
	if err := j.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}
