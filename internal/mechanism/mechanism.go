// Package mechanism defines the pluggable defense-mechanism API: every
// GPU timing-attack defense the repository models — RCoal's subwarp
// coalescing families, the obfuscation defenses of Karimi et al.
// (randomized delay injection, access-pattern shuffling), and the
// no-coalescing strawman — implements one interface and registers
// itself under a CLI spec keyword.
//
// The split mirrors internal/core's policy/plan separation, lifted one
// level: a Mechanism is the *policy* (which defense, with which knobs)
// and a Launch is the *realized per-kernel-launch state* the simulator
// executes — a thread→subwarp plan for the MCU, plus optional
// per-request hooks (an issue-stage delay, a transaction-order
// shuffle) for defenses that act outside the coalescer.
//
// Two contracts every implementation must keep:
//
//   - Determinism: NewLaunch draws all randomness from the supplied
//     source, so identical (mechanism, seed) pairs realize identical
//     launches anywhere.
//   - Stream stability: a mechanism that carries no subwarp
//     randomization (whole-warp plan) must consume ZERO draws in
//     NewLaunch. This is what keeps the subwarp mechanisms
//     byte-identical through the refactor.
package mechanism

import (
	"fmt"
	"strconv"

	"rcoal/internal/core"
	"rcoal/internal/rng"
)

// Launch is one realized defense state for a kernel launch: drawn by
// NewLaunch at launch start (Section IV-D fixes it for the launch's
// duration) and consumed by the simulator's issue and coalescing
// stages.
type Launch struct {
	// Plan is the thread→subwarp mapping the modified MCU executes.
	// Mechanisms that do not randomize coalescing return the whole-warp
	// plan (one subwarp holding every thread).
	Plan core.Plan
	// PerThread bypasses the coalescer entirely: one memory transaction
	// per active thread, duplicates included (the Section III
	// no-coalescing strawman).
	PerThread bool
	// Delay, when non-nil, is the issue-stage hook: called once per
	// memory instruction with the launch's defense RNG, it returns the
	// extra stall cycles injected before the instruction issues
	// (randomized delay injection, Karimi et al.).
	Delay func(r *rng.Source) int64
	// Shuffle, when non-nil, permutes the coalesced transaction order
	// in place before the transactions queue for injection — the
	// access-pattern shuffling defense: counts are untouched, but DRAM
	// arrival order (and therefore row locality and timing) is
	// perturbed per request.
	Shuffle func(r *rng.Source, tx []uint64)
}

// HasHooks reports whether the launch carries per-request hooks that
// consume defense randomness during execution (as opposed to only at
// launch setup).
func (l Launch) HasHooks() bool { return l.Delay != nil || l.Shuffle != nil }

// Mechanism is one defense against the coalescing timing channel. All
// implementations are immutable after construction and safe to share
// across goroutines; the mutable per-launch state lives in Launch.
type Mechanism interface {
	// Spec returns the canonical registry spec string, e.g. "fss+rts:8"
	// or "delay:64". Parse(Spec()) round-trips to an equivalent
	// mechanism — the invariant the registry fuzz target enforces.
	Spec() string
	// Name returns the display name, e.g. "FSS+RTS(8)" or "Delay(64)",
	// matching the paper's naming for the RCoal families.
	Name() string
	// ValidateFor checks the mechanism against the target hardware's
	// warp size (FSS requires M to divide it, every family bounds M by
	// it). It returns an error — never panics — so a bad CLI spec is a
	// clean usage error end-to-end.
	ValidateFor(warpSize int) error
	// NewLaunch draws one launch's realized defense state from r (the
	// hardware RNG of Figure 11, or the attacker's own stream in a
	// corresponding attack). Invalid mechanisms error here too, so no
	// path from untrusted input reaches a panic.
	NewLaunch(warpSize int, r *rng.Source) (Launch, error)
}

// WholeWarpPlan returns the undefended plan: one subwarp holding every
// thread, in order. It is what core.Baseline() realizes, constructed
// without touching any random stream.
func WholeWarpPlan(warpSize int) core.Plan {
	return core.Plan{Sizes: []int{warpSize}, SID: make([]uint8, warpSize)}
}

// --- Subwarp coalescing: the first registered citizen -----------------------

// subwarp wraps a core.Config coalescing policy (the RCoal families)
// as a Mechanism.
type subwarp struct{ cfg core.Config }

// Subwarp wraps an RCoal coalescing policy as a Mechanism. The thin
// compatibility constructors below (Baseline, FSS, ...) cover the
// named families; Subwarp itself admits any core.Config, validated at
// use.
func Subwarp(cfg core.Config) Mechanism { return subwarp{cfg: cfg} }

// SubwarpConfig unwraps a subwarp-coalescing mechanism back to its
// core.Config policy, reporting false for every other defense. The
// analytical model (internal/theory) uses it to decide whether a
// closed-form ρ exists.
func SubwarpConfig(m Mechanism) (core.Config, bool) {
	s, ok := m.(subwarp)
	return s.cfg, ok
}

// Baseline returns the undefended whole-warp coalescing mechanism.
func Baseline() Mechanism { return subwarp{cfg: core.Baseline()} }

// FSS returns fixed-sized subwarps with m subwarps per warp.
func FSS(m int) Mechanism { return subwarp{cfg: core.FSS(m)} }

// FSSRTS returns FSS with random thread allocation.
func FSSRTS(m int) Mechanism { return subwarp{cfg: core.FSSRTS(m)} }

// RSS returns random-sized (skewed) subwarps.
func RSS(m int) Mechanism { return subwarp{cfg: core.RSS(m)} }

// RSSRTS returns RSS with random thread allocation.
func RSSRTS(m int) Mechanism { return subwarp{cfg: core.RSSRTS(m)} }

// RSSNormal returns the normal-sized RSS variant of Figure 9; sigma 0
// means the default spread.
func RSSNormal(m int, sigma float64) Mechanism { return subwarp{cfg: core.RSSNormal(m, sigma)} }

func (s subwarp) Spec() string {
	c := s.cfg
	if c.NumSubwarps == 1 && c.SizeDist == core.SizeFixed && !c.RandomThreads {
		return "baseline"
	}
	base := "fss"
	switch c.SizeDist {
	case core.SizeSkewed:
		base = "rss"
	case core.SizeNormal:
		base = "rss-normal"
	}
	if c.RandomThreads {
		base += "+rts"
	}
	spec := fmt.Sprintf("%s:%d", base, c.NumSubwarps)
	if c.SizeDist == core.SizeNormal && c.NormalSigma != 0 {
		spec += ":" + strconv.FormatFloat(c.NormalSigma, 'g', -1, 64)
	}
	return spec
}

func (s subwarp) Name() string { return s.cfg.Name() }

func (s subwarp) ValidateFor(warpSize int) error {
	c, err := s.sized(warpSize)
	if err != nil {
		return err
	}
	return c.Validate()
}

func (s subwarp) NewLaunch(warpSize int, r *rng.Source) (Launch, error) {
	c, err := s.sized(warpSize)
	if err != nil {
		return Launch{}, err
	}
	// core.Config.Plan draws exactly the stream positions the
	// pre-Mechanism simulator consumed, so refactored results stay
	// byte-identical (pinned by the experiment goldens).
	p, err := c.Plan(r)
	if err != nil {
		return Launch{}, err
	}
	return Launch{Plan: p}, nil
}

// sized resolves the policy's warp size against the hardware's.
func (s subwarp) sized(warpSize int) (core.Config, error) {
	c := s.cfg
	if c.WarpSize == 0 {
		c.WarpSize = warpSize
	}
	if warpSize > 0 && c.WarpSize != warpSize {
		return core.Config{}, fmt.Errorf("mechanism: subwarp policy warp size %d != hardware warp size %d", c.WarpSize, warpSize)
	}
	return c, nil
}
