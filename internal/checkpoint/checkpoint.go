// Package checkpoint persists per-cell experiment results to an
// append-only JSONL journal so an interrupted sweep can resume without
// re-running finished cells. The format is built for crash-time
// realities:
//
//   - one line per completed cell, appended with a single write and
//     fsynced, so a crash can at worst truncate the final line;
//   - every line carries a CRC-32 of its payload; on resume, lines
//     that fail the checksum (torn writes, disk corruption) are
//     discarded and their cells simply re-run;
//   - the first line fingerprints the experiment configuration; a
//     journal written under different options refuses to resume rather
//     than silently splicing incompatible results.
//
// Beyond completed results the journal doubles as a distributed work
// ledger: RecordLease appends a durable record that a cell was handed
// to a worker (see Lease), so a restarted coordinator knows which
// cells were in flight and can re-issue them; RecordOnce gives the
// first completion of a cell the win when a timed-out lease is
// re-issued and both holders eventually report.
//
// NewMemory gives the same interface with no file behind it, for a
// results store that only needs to live as long as the process.
//
// Values are stored as raw JSON produced by the caller. Results must
// round-trip exactly (encoding/json renders float64s with the minimal
// digits that re-parse to the same bit pattern), preserving the
// repo-wide determinism contract: a resumed sweep's output is
// byte-identical to an uninterrupted run's.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// line is the JSONL wire format for one journaled cell.
type line struct {
	// K is the caller's cell key, unique within the journal.
	K string `json:"k"`
	// C is the CRC-32 (IEEE) of V, hex-encoded.
	C string `json:"c"`
	// V is the cell's result, verbatim caller JSON.
	V json.RawMessage `json:"v"`
}

// leaseLine is the JSONL wire format for one lease record: the cell
// identified by L was handed to worker W as issue number N at unix-nano
// time T. The checksum covers the canonical payload (see leasePayload)
// so a torn lease line is discarded on resume exactly like a torn
// result line.
type leaseLine struct {
	L string `json:"l"`
	W string `json:"w"`
	N int64  `json:"n"`
	T int64  `json:"t"`
	C string `json:"c"`
}

// anyLine is the union the resume scanner parses before deciding which
// kind a line is: result lines carry K, lease lines carry L.
type anyLine struct {
	K string          `json:"k"`
	C string          `json:"c"`
	V json.RawMessage `json:"v"`
	L string          `json:"l"`
	W string          `json:"w"`
	N int64           `json:"n"`
	T int64           `json:"t"`
}

// Lease is a durable record that a cell was handed out for execution.
// Recording one before issuing the lease over the network makes the
// hand-out survive a coordinator crash: on resume the cell is known to
// be in flight (and, its holder being gone, immediately re-issuable)
// rather than silently forgotten.
type Lease struct {
	// Key is the cell the lease covers.
	Key string
	// Worker identifies the holder (informational).
	Worker string
	// Seq is the per-key issue counter; re-issues after a timeout or
	// cancellation bump it, invalidating completions of older issues.
	Seq int64
	// IssuedUnixNano is the issue time (informational; the authority on
	// expiry is the live coordinator, not the journal).
	IssuedUnixNano int64
}

func leasePayload(l Lease) string {
	return fmt.Sprintf("%s|%s|%d|%d", l.Key, l.Worker, l.Seq, l.IssuedUnixNano)
}

// metaLine is the first journal line, fingerprinting the run.
type metaLine struct {
	Meta json.RawMessage `json:"meta"`
	C    string          `json:"c"`
}

func checksum(v []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(v))
}

// Journal is an open checkpoint file, or a memory-only journal (see
// NewMemory). Record is safe for concurrent use by the runner pool's
// workers.
type Journal struct {
	mu     sync.Mutex
	f      *os.File // nil for a memory-only journal
	seen   map[string]json.RawMessage
	leases map[string]Lease

	// Discarded counts journal lines dropped on resume because they
	// were malformed or failed their checksum. The corresponding cells
	// re-run, so a nonzero count is survivable — but worth reporting.
	Discarded int
	// Discards records where and why each line was dropped, so resume
	// logs can point at the exact journal damage instead of only a
	// count.
	Discards []Discard
}

// Discard describes one journal line dropped on resume.
type Discard struct {
	// Line is the 1-based line number in the journal file.
	Line int
	// Reason classifies the damage (malformed JSON, checksum
	// mismatch, missing key).
	Reason string
}

// Create starts a fresh journal at path, truncating any previous one,
// and writes the meta fingerprint line. meta must marshal to stable
// JSON (marshal the same struct to compare later).
func Create(path string, meta any) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", path, err)
	}
	j := &Journal{f: f, seen: make(map[string]json.RawMessage), leases: make(map[string]Lease)}
	if err := j.writeMeta(meta); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// NewMemory returns a journal that lives only in memory: Lookup,
// Record, RecordOnce and the lease ledger behave as for a file-backed
// journal, but nothing is written or synced, and the contents die with
// the process.
func NewMemory() *Journal {
	return &Journal{seen: make(map[string]json.RawMessage), leases: make(map[string]Lease)}
}

// Resume opens the journal at path, creating it if missing. It
// verifies the meta fingerprint against meta — a mismatch means the
// journal belongs to a differently-configured run and resuming would
// splice incompatible results, so it is an error. Lines that are
// malformed or fail their checksum are discarded (counted in
// Discarded); their cells are simply absent from Lookup and re-run.
func Resume(path string, meta any) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	j := &Journal{f: f, seen: make(map[string]json.RawMessage), leases: make(map[string]Lease)}

	wantMeta, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: marshaling meta: %w", err)
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	first := true
	line := 0
	discard := func(reason string) {
		j.Discarded++
		j.Discards = append(j.Discards, Discard{Line: line, Reason: reason})
	}
	for sc.Scan() {
		raw := sc.Bytes()
		line++
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if first {
			first = false
			var m metaLine
			if err := json.Unmarshal(raw, &m); err != nil || m.Meta == nil || checksum(m.Meta) != m.C {
				f.Close()
				return nil, fmt.Errorf("checkpoint: %s: unreadable meta line", path)
			}
			if !bytes.Equal(compactJSON(m.Meta), compactJSON(wantMeta)) {
				f.Close()
				return nil, fmt.Errorf("checkpoint: %s was written by a different experiment configuration; delete it or drop -resume (journal meta %s, current %s)",
					path, m.Meta, wantMeta)
			}
			continue
		}
		var l anyLine
		if err := json.Unmarshal(raw, &l); err != nil {
			discard("malformed JSON (torn line)")
			continue
		}
		if l.L != "" {
			// Lease record. A torn or corrupted one is discarded like a
			// torn result line: at worst the coordinator forgets a lease
			// was out and re-issues, which is always safe.
			ls := Lease{Key: l.L, Worker: l.W, Seq: l.N, IssuedUnixNano: l.T}
			if checksum([]byte(leasePayload(ls))) != l.C {
				discard("lease checksum mismatch")
				continue
			}
			// Last lease per key wins: it carries the highest Seq issued.
			j.leases[ls.Key] = ls
			continue
		}
		if l.K == "" {
			discard("result line without key")
			continue
		}
		if checksum(l.V) != l.C {
			discard("result checksum mismatch")
			continue
		}
		// Last occurrence wins: a key re-recorded after a discarded
		// predecessor reflects the most recent completed run.
		j.seen[l.K] = l.V
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}

	if first {
		// Empty (likely just created) journal: write the meta line.
		if err := j.writeMeta(meta); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	// Position for appends. O_APPEND is not used so that the scanner
	// above and the writes below share one descriptor simply; all
	// writes happen under j.mu at the offset we set here.
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: seeking %s: %w", path, err)
	}
	// A crash mid-append can leave a torn final line with no newline.
	// Terminate it so the next Record starts on a fresh line instead of
	// concatenating onto the fragment (which would corrupt it too); the
	// fragment itself already fails its checksum and stays discarded.
	if end > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, end-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("checkpoint: terminating torn line in %s: %w", path, err)
			}
		}
	}
	return j, nil
}

func (j *Journal) writeMeta(meta any) error {
	m, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling meta: %w", err)
	}
	out, err := json.Marshal(metaLine{Meta: m, C: checksum(m)})
	if err != nil {
		return err
	}
	return j.append(out)
}

// compactJSON normalizes whitespace so fingerprint comparison is
// content-based.
func compactJSON(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// Lookup returns the journaled result for key, if any.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.seen[key]
	return v, ok
}

// Len reports how many journaled cells are available to Lookup.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Leases returns the journaled lease records for cells that have no
// completed result — the in-flight set as of the last crash or the
// current run. Keys whose result line landed are complete and omitted.
// The returned map is a copy.
func (j *Journal) Leases() map[string]Lease {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]Lease)
	for k, l := range j.leases {
		if _, done := j.seen[k]; !done {
			out[k] = l
		}
	}
	return out
}

// RecordLease journals a lease hand-out and syncs it to disk before
// returning, so the coordinator only grants a lease the ledger already
// remembers. Safe for concurrent use.
func (j *Journal) RecordLease(l Lease) error {
	if l.Key == "" {
		return fmt.Errorf("checkpoint: empty lease key")
	}
	out, err := json.Marshal(leaseLine{
		L: l.Key, W: l.Worker, N: l.Seq, T: l.IssuedUnixNano,
		C: checksum([]byte(leasePayload(l))),
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(out); err != nil {
		return err
	}
	j.leases[l.Key] = l
	return nil
}

// RecordOnce journals value under key unless a result for key is
// already present, in which case it reports recorded=false and leaves
// the journal untouched — first writer wins. This is the duplicate-
// completion guard for distributed sweeps, where a timed-out lease's
// original holder may eventually report the same (deterministic) cell
// a re-issued lease already delivered.
func (j *Journal) RecordOnce(key string, value any) (recorded bool, err error) {
	if key == "" {
		return false, fmt.Errorf("checkpoint: empty cell key")
	}
	v, err := json.Marshal(value)
	if err != nil {
		return false, fmt.Errorf("checkpoint: marshaling cell %q: %w", key, err)
	}
	out, err := json.Marshal(line{K: key, C: checksum(v), V: v})
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.seen[key]; dup {
		return false, nil
	}
	if err := j.appendLocked(out); err != nil {
		return false, err
	}
	j.seen[key] = v
	return true, nil
}

// Record journals value (marshaled to JSON) under key and syncs it to
// disk before returning, so a cell reported complete stays complete
// across a crash. Safe for concurrent use.
func (j *Journal) Record(key string, value any) error {
	if key == "" {
		return fmt.Errorf("checkpoint: empty cell key")
	}
	v, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling cell %q: %w", key, err)
	}
	out, err := json.Marshal(line{K: key, C: checksum(v), V: v})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(out); err != nil {
		return err
	}
	j.seen[key] = v
	return nil
}

func (j *Journal) append(out []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(out)
}

func (j *Journal) appendLocked(out []byte) error {
	if j.f == nil {
		return nil
	}
	// One Write call per line keeps a crash from interleaving partial
	// lines; the checksum catches the torn tail line either way.
	if _, err := j.f.Write(append(out, '\n')); err != nil {
		return fmt.Errorf("checkpoint: appending: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing: %w", err)
	}
	return nil
}

// Close releases the journal file. The journal is already durable —
// every Record synced — so Close only fails if the descriptor does.
// Closing a memory-only journal does nothing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
