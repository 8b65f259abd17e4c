// Package chaos is the distributed-transport analogue of
// internal/faultinject: deterministic, seed-driven network fault
// injection for the coordinator/worker lease protocol. Where
// faultinject proves the single-process robustness layer (watchdog,
// panic containment, journal corruption tolerance) actually trips,
// chaos proves the cluster-level layer does: dropped and duplicated
// deliveries, injected 5xx bursts, torn response bodies, delays, and
// timed coordinator partitions, all derived from one seed so a chaos
// run is replayable fault-for-fault.
//
// The package follows the faultinject plan idiom: a Plan is plain
// data compiled from a seed, and the decision for any request is a
// pure function of (seed, endpoint, per-endpoint request index) — no
// global randomness, no time-dependent draws. Two plans built from
// the same seed and profile produce bit-identical fault schedules;
// only the partition windows are evaluated against the wall clock,
// and their offsets too are fixed by the seed.
//
// The injection point is Transport, an http.RoundTripper faulting a
// worker's view of the network: install it on dist.Worker.Client, or
// set the rcoal-experiments -chaos-seed flag, as scripts/chaos_smoke.sh
// does for its real worker processes.
//
// Because the lease protocol is idempotent (journaled leases,
// first-writer-wins completions, stale-seq rejection) and every cell
// derives its results from explicit seeds, no transport fault may
// change experiment bytes — the chaos soak e2e and the CI smoke step
// assert CSVs stay byte-identical to the vanilla golden under the
// full fault mix.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"rcoal/internal/rng"
)

// Kind names one injected transport fault.
type Kind int

const (
	// None delivers the request and its response untouched.
	None Kind = iota
	// DropRequest loses the request before it reaches the server: the
	// client sees a transport error, the server sees nothing.
	DropRequest
	// DropResponse delivers the request but loses the response: the
	// server state changes, the client sees a transport error and will
	// retry — the fault that forces duplicate-delivery handling.
	DropResponse
	// Err5xx answers 503 without delivering the request (an overloaded
	// or restarting front end).
	Err5xx
	// Torn delivers the request but truncates the response body
	// mid-JSON, so the client's decode fails after the server
	// committed.
	Torn
	// Dup delivers the request twice back-to-back (a retrying proxy);
	// the client sees the second response.
	Dup
	// Delay delivers request and response intact after a pause.
	Delay
)

var kindNames = map[Kind]string{
	None: "none", DropRequest: "drop_request", DropResponse: "drop_response",
	Err5xx: "err_5xx", Torn: "torn", Dup: "dup", Delay: "delay",
}

func (k Kind) String() string { return kindNames[k] }

// Fault is the decision for one request: what happens to it, and for
// Delay, how long the pause is.
type Fault struct {
	Kind  Kind
	Delay time.Duration
}

// Profile sets the fault mix as per-mille rates (out of every 1000
// requests to an endpoint, how many suffer each fault; the bands are
// disjoint, so the rates must sum to <= 1000) plus the partition
// schedule parameters.
type Profile struct {
	DropRequest  int
	DropResponse int
	Err5xx       int
	Torn         int
	Dup          int
	Delay        int
	// MaxDelay bounds each injected Delay; the actual pause is a
	// seeded draw in [MaxDelay/4, MaxDelay).
	MaxDelay time.Duration
	// Partitions is how many timed coordinator partition windows the
	// plan schedules; during a window every request is dropped
	// (DropRequest) regardless of its per-request decision.
	Partitions int
	// PartitionEvery is the mean spacing between window starts,
	// measured from the injector's arm time.
	PartitionEvery time.Duration
	// PartitionLength is each window's duration.
	PartitionLength time.Duration
}

// DefaultProfile is the aggressive mix the chaos smoke runs: roughly
// a third of all traffic suffers some fault, plus one mid-run
// partition.
func DefaultProfile() Profile {
	return Profile{
		DropRequest:     80,
		DropResponse:    60,
		Err5xx:          80,
		Torn:            50,
		Dup:             60,
		Delay:           120,
		MaxDelay:        25 * time.Millisecond,
		Partitions:      1,
		PartitionEvery:  2 * time.Second,
		PartitionLength: 300 * time.Millisecond,
	}
}

func (p Profile) total() int {
	return p.DropRequest + p.DropResponse + p.Err5xx + p.Torn + p.Dup + p.Delay
}

// Window is one scheduled partition: offsets from the injector's arm
// time during which the target is unreachable.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Plan is a compiled fault schedule: the per-request decision
// function plus the partition windows, both fixed by (seed, profile).
type Plan struct {
	Seed    uint64
	Profile Profile

	windows []Window
}

// NewPlan compiles profile under seed. It panics if the profile's
// per-mille rates sum past 1000 (the bands must be disjoint) — a
// configuration error, not a runtime condition.
func NewPlan(seed uint64, profile Profile) *Plan {
	if t := profile.total(); t > 1000 {
		panic(fmt.Sprintf("chaos: profile rates sum to %d per mille (max 1000)", t))
	}
	p := &Plan{Seed: seed, Profile: profile}
	if profile.Partitions > 0 && profile.PartitionLength > 0 {
		r := rng.New(seed ^ 0x9A27_71710_15)
		at := time.Duration(0)
		for i := 0; i < profile.Partitions; i++ {
			// Window starts are spaced PartitionEvery on average, with a
			// seeded jitter of up to half the spacing either side.
			spacing := profile.PartitionEvery
			if spacing <= 0 {
				spacing = time.Second
			}
			jitter := time.Duration(r.Intn(int(spacing))) - spacing/2
			at += spacing + jitter
			if at < 0 {
				at = 0
			}
			p.windows = append(p.windows, Window{Start: at, End: at + profile.PartitionLength})
			at += profile.PartitionLength
		}
	}
	return p
}

// Windows returns the scheduled partition windows (a copy).
func (p *Plan) Windows() []Window {
	out := make([]Window, len(p.windows))
	copy(out, p.windows)
	return out
}

// Partitioned reports whether offset elapsed-since-arm falls inside a
// partition window.
func (p *Plan) Partitioned(offset time.Duration) bool {
	for _, w := range p.windows {
		if offset >= w.Start && offset < w.End {
			return true
		}
	}
	return false
}

// Decide returns the fault for the n-th request (0-based) to
// endpoint. It is a pure function of (plan seed, endpoint, n): the
// whole schedule can be enumerated without sending a byte, and two
// runs under the same seed suffer identical fault sequences
// per endpoint.
func (p *Plan) Decide(endpoint string, n uint64) Fault {
	h := fnv.New64a()
	h.Write([]byte(endpoint))
	r := rng.New(p.Seed ^ h.Sum64() ^ (n+1)*0x9E3779B97F4A7C15)
	d := r.Intn(1000)
	pr := p.Profile
	bands := []struct {
		kind Kind
		rate int
	}{
		{DropRequest, pr.DropRequest},
		{DropResponse, pr.DropResponse},
		{Err5xx, pr.Err5xx},
		{Torn, pr.Torn},
		{Dup, pr.Dup},
		{Delay, pr.Delay},
	}
	for _, b := range bands {
		if d < b.rate {
			f := Fault{Kind: b.kind}
			if b.kind == Delay && pr.MaxDelay > 0 {
				min := pr.MaxDelay / 4
				f.Delay = min + time.Duration(r.Intn(int(pr.MaxDelay-min)))
			}
			return f
		}
		d -= b.rate
	}
	return Fault{Kind: None}
}

// Describe renders the replay recipe: the seed, the rates, and the
// partition schedule — everything needed to reproduce the fault
// sequence with the same seed.
func (p *Plan) Describe() string {
	pr := p.Profile
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan seed=%#x rates(‰): drop_req=%d drop_resp=%d 5xx=%d torn=%d dup=%d delay=%d(max %s)",
		p.Seed, pr.DropRequest, pr.DropResponse, pr.Err5xx, pr.Torn, pr.Dup, pr.Delay, pr.MaxDelay)
	for i, w := range p.windows {
		fmt.Fprintf(&b, "; partition[%d] %s..%s", i, w.Start.Round(time.Millisecond), w.End.Round(time.Millisecond))
	}
	return b.String()
}
