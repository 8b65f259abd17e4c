// Package dist shards an experiment grid across machines: a
// coordinator enumerates the cell-parallel experiments' grids and
// hands cells out over HTTP as leases; workers pull a lease, recompute
// exactly that cell with experiments.ComputeCell, and POST the result
// back. Because every cell derives all of its randomness from explicit
// seeds (Options.Seed), cells are location-independent, and the
// final CSVs are byte-identical at any shard count — the property the
// end-to-end tests and the CI smoke step enforce.
//
// What a batch restores, shares and records is decided by
// experiments.RunBatch, the one cell ledger the local executor runs on
// too: it restores cells already in the run journal, answers cells the
// content-addressed results store holds (or an earlier cell of the
// batch with the same ID will compute) instead of leasing them, and
// hands Exec the rest. The coordinator only leases those and hands
// each accepted completion back to RunBatch, which stores it and
// journals it first-writer-wins, so a timed-out lease whose original
// holder reports late cannot clobber the re-issued lease's result
// (they are identical bytes anyway — determinism makes the race
// benign, the ledger makes it visible).
//
// The run journal doubles as the lease ledger: a lease is journaled
// (RecordLease) before it is granted, so a coordinator crash never
// forgets a cell was in flight, and on restart the coordinator resumes
// the journal, RunBatch restores every completed cell, and the rest
// re-issue with their journaled lease numbers — no cell runs more
// than once per lease timeout.
//
// The wire protocol is plain JSON over four endpoints:
//
//	POST /lease         LeaseRequest  -> LeaseResponse
//	POST /complete      CompleteRequest -> CompleteResponse
//	POST /lease/renew   RenewRequest  -> RenewResponse
//	POST /leases/cancel CancelRequest -> CancelResponse
//	GET  /status        -> Status
//
// Every mutating endpoint is idempotent under duplicated and replayed
// deliveries: a duplicated lease poll grants a second (independent)
// cell or none, a duplicated completion is rejected first-writer-wins,
// a duplicated renewal extends an already-extended deadline, and a
// duplicated cancel finds the lease already revoked. The chaos layer
// (internal/chaos) soaks the protocol under exactly those faults.
//
// The AES key under attack travels in the lease payload (hex). The
// protocol is designed for trusted lab networks (localhost, a private
// cluster), not the open internet; the key is the paper's published
// evaluation constant in every shipped configuration.
package dist

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rcoal/internal/experiments"
	"rcoal/internal/metrics"
	"rcoal/internal/obs"
)

// WireOptions is the result-determining slice of experiments.Options a
// lease carries: everything a worker needs to recompute a cell
// byte-identically, and nothing that is local policy (worker counts,
// progress sinks, journals).
type WireOptions struct {
	Samples int    `json:"samples"`
	Lines   int    `json:"lines"`
	Seed    uint64 `json:"seed"`
	KeyHex  string `json:"key_hex"`
	// Accel installs a trace cache on the worker. Byte-identical by
	// the internal/equiv contract, so it is NOT part of the
	// fingerprint — an accelerated distributed sweep must match a
	// vanilla single-process one.
	Accel bool `json:"accel,omitempty"`
	// Mechanisms is the defense-spec filter of mechanism-enumerating
	// experiments (ext-defense-frontier). It must travel with the
	// lease: a filter may name specs outside the default registry
	// enumeration (e.g. "rss+rts:8"), and a worker recomputing by key
	// only finds such a cell if it enumerates the same grid.
	Mechanisms []string `json:"mechanisms,omitempty"`
}

// WireFrom extracts the wire options from an experiment configuration.
func WireFrom(o experiments.Options) WireOptions {
	return WireOptions{
		Samples:    o.Samples,
		Lines:      o.Lines,
		Seed:       o.Seed,
		KeyHex:     hex.EncodeToString(o.Key),
		Accel:      o.TraceCache != nil,
		Mechanisms: o.Mechanisms,
	}
}

// Options reconstructs the experiment configuration a worker computes
// leased cells under. The caller supplies the accelerator state (one
// shared trace cache per worker process); width and worker counts are
// irrelevant to cell bytes and set to render-neutral values.
func (w WireOptions) Options() (experiments.Options, error) {
	key, err := hex.DecodeString(w.KeyHex)
	if err != nil {
		return experiments.Options{}, fmt.Errorf("dist: decoding lease key: %w", err)
	}
	o := experiments.DefaultOptions()
	o.Samples = w.Samples
	o.Lines = w.Lines
	o.Seed = w.Seed
	o.Key = key
	o.Mechanisms = w.Mechanisms
	o.Workers = 1
	return o, nil
}

// LeaseRequest asks the coordinator for one cell to compute.
type LeaseRequest struct {
	// Worker identifies the requester in the ledger, the status page,
	// and the per-worker rate accounting.
	Worker string `json:"worker"`
}

// LeaseGrant is one cell handed to a worker.
type LeaseGrant struct {
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	// Seq is the per-cell issue number; completions must echo it, so
	// stale holders of a canceled or re-issued lease are recognized.
	Seq     int64       `json:"seq"`
	Options WireOptions `json:"options"`
	// LeaseTimeoutMS is the lease's silence budget: the authoritative
	// deadline is set once at grant time (coordinator clock) and the
	// grant carries the budget so the holder can renew before expiry —
	// an honest computation that outlasts the budget keeps its lease
	// instead of being wastefully recomputed elsewhere.
	LeaseTimeoutMS int64 `json:"lease_timeout_ms,omitempty"`
	// DeadlineUnixNano is that authoritative deadline on the
	// coordinator's clock (informational for the worker — clocks may
	// skew; renewal scheduling uses LeaseTimeoutMS).
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
	// TraceID is the sweep's trace id. Non-empty only when the
	// coordinator is building a fleet trace; it doubles as the
	// worker's signal to collect per-cell spans and attach them to the
	// completion.
	TraceID string `json:"trace_id,omitempty"`
}

// RenewRequest extends an in-flight lease: the holder is alive and
// still computing. Renewal resets the cell's deadline to a full
// LeaseTimeout from now; a stale or finished lease is not renewable.
type RenewRequest struct {
	Worker     string `json:"worker"`
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	Seq        int64  `json:"seq"`
}

// RenewResponse reports whether the lease was extended. Renewed=false
// tells the holder its lease is gone (re-issued, canceled, or already
// complete) — it may abandon the computation or finish and let
// first-writer-wins sort the completion out.
type RenewResponse struct {
	Renewed bool   `json:"renewed"`
	Reason  string `json:"reason,omitempty"`
	// DeadlineUnixNano is the new authoritative deadline when renewed.
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`
}

// LeaseResponse answers a lease poll. Exactly one of the three shapes
// applies: a grant, Done (the coordinator has drained — the worker
// should exit), or neither: the coordinator held the poll for its
// whole hold and nothing became grantable, so the worker polls again.
type LeaseResponse struct {
	Done  bool        `json:"done,omitempty"`
	Lease *LeaseGrant `json:"lease,omitempty"`
}

// CompleteRequest reports a computed cell (or the error that killed
// it). Value is the cell's canonical JSON, byte-identical to what a
// local run would journal.
type CompleteRequest struct {
	Worker     string          `json:"worker"`
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	Seq        int64           `json:"seq"`
	Value      json.RawMessage `json:"value,omitempty"`
	// Error, when non-empty, reports that the cell failed on the
	// worker. Cell errors are deterministic in this codebase
	// (misconfiguration, not flakiness), so they fail the experiment
	// just as they would in the local pool.
	Error string `json:"error,omitempty"`
	// Trace is the worker's span report for this cell (compute and
	// delivery phases, backoff, renewals, chaos faults), attached only
	// when the grant carried a TraceID. It rides beside Value, never
	// inside it, so tracing cannot perturb result bytes.
	Trace *obs.CellTrace `json:"trace,omitempty"`
}

// CompleteResponse acknowledges a completion. Accepted=false is not an
// error condition for the worker — it means another holder already
// delivered the cell (duplicate) or the lease was canceled (stale).
type CompleteResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// CancelRequest revokes an in-flight lease. The cell returns to the
// pending queue and re-issues on the next poll (that is also the
// "retry" operation — retrying a lease is canceling it and letting a
// worker pick it back up); the revoked holder's eventual completion is
// rejected as stale.
type CancelRequest struct {
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
}

// CancelResponse reports whether a lease was actually revoked.
type CancelResponse struct {
	Canceled bool   `json:"canceled"`
	Reason   string `json:"reason,omitempty"`
}

// Status is the coordinator control plane's live view: per-experiment
// grid progress, per-worker rates, and the counter registry (lease
// traffic, cache hits/misses, restores).
type Status struct {
	Done        bool               `json:"done"`
	Experiments []ExperimentStatus `json:"experiments"`
	Workers     []WorkerStatus     `json:"workers"`
	// CellsPerSec is the fresh-completion rate (restored and cached
	// cells excluded, mirroring runner.Telemetry's rate-window rule).
	CellsPerSec float64 `json:"cells_per_sec"`
	// ETASeconds extrapolates CellsPerSec over unfinished cells; 0
	// when unknown.
	ETASeconds float64 `json:"eta_seconds"`
	// PendingCells is the total unfinished work (pending + leased)
	// across every registered experiment.
	PendingCells int `json:"pending_cells"`
	// LiveWorkers counts workers seen within the liveness window
	// (ServerConfig.LivenessWindow).
	LiveWorkers int `json:"live_workers"`
	// BacklogSeconds is the autoscaling hint: pending cells divided by
	// the aggregate completion rate of live workers — how far behind
	// the current fleet is. Scale workers up when it stays high, down
	// when it approaches zero. 0 when no live worker has a rate yet.
	BacklogSeconds float64 `json:"backlog_seconds"`
	// MedianCellsPerSec is the median per-worker completion rate among
	// live workers with enough history (the straggler baseline); 0
	// until at least one qualifies.
	MedianCellsPerSec float64 `json:"median_cells_per_sec"`
	// Metrics is the coordinator's counter registry snapshot
	// (dist_cache_hits, dist_cache_misses, dist_leases_issued, ...).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// ExperimentStatus is one experiment's grid progress.
type ExperimentStatus struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Restored int    `json:"restored"`
	CacheHit int    `json:"cache_hits"`
	Pending  int    `json:"pending"`
	Leased   int    `json:"leased"`
}

// WorkerStatus is one worker's live accounting.
type WorkerStatus struct {
	ID               string  `json:"id"`
	Active           int     `json:"active"`
	Completed        int     `json:"completed"`
	CellsPerSec      float64 `json:"cells_per_sec"`
	LastSeenUnixNano int64   `json:"last_seen_unix_nano"`
	// Live reports whether the worker was seen (poll, renew, or
	// completion) within the liveness window; dead workers keep their
	// history but drop out of the autoscaling-hint aggregate.
	Live bool `json:"live"`
	// RateRatio is this worker's rate against the live-fleet median
	// (Status.MedianCellsPerSec); 0 when no baseline exists yet.
	RateRatio float64 `json:"rate_ratio"`
	// Straggler flags a live worker with enough completions whose rate
	// has fallen below the straggler threshold of the fleet median —
	// the "which machine is dragging the sweep" signal, also surfaced
	// as a process label in the merged fleet trace.
	Straggler bool `json:"straggler"`
}
