package gpusim

import (
	"fmt"
	"reflect"

	"rcoal/internal/core"
	"rcoal/internal/gpusim/dram"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
)

// This file implements copy-on-write prefix forking for selective
// RCoal sweeps. Under VulnerableRounds only the listed rounds use the
// mechanism's subwarp plan; every other instruction coalesces with the
// whole-warp basePlan, whose derivation consumes zero RNG draws
// (mechanism.WholeWarpPlan never touches a stream, and plan-only
// mechanisms — the only ones forkable() admits — draw nothing at
// per-request time). The timing prefix
// up to the first vulnerable-round instruction is therefore a pure
// function of (kernel, seed), independent of the mechanism under test:
// RunPrefix simulates it once, snapshots the complete simulator state,
// and RunFork replays only the vulnerable suffix per mechanism —
// byte-identical to a full Run, which fork_test.go and internal/equiv
// enforce differentially.

// PrefixSnapshot is the frozen state of a launch paused at the first
// vulnerable-round boundary (or run to completion when the kernel has
// no vulnerable-round work). It is immutable after RunPrefix returns:
// any number of RunFork calls, from any fork-compatible GPU, may
// consume the same snapshot sequentially or from different GPUs.
type PrefixSnapshot struct {
	cfg      Config
	kernel   *Kernel
	seed     uint64
	cycle    int64 // the paused cycle; no work of this cycle has run
	finished bool  // the prefix ran to termination (nothing to fork)

	// reqs interns every in-flight request by value; subsystem
	// snapshots refer to requests by index so the snapshot survives
	// arena reuse across forks.
	reqs  []mem.Request
	warps []warpSnap
	sms   []smSnap
	dram  []*dram.Snapshot
	// toMem and toSM are the request and reply ports' next free slots.
	toMem, toSM []int64

	res       Result // deep copy; Plan zeroed (mechanism-dependent)
	remaining int
	progress  uint64
	basePlan  core.Plan
}

// Cycle returns the cycle the prefix paused at (or the total runtime
// when Finished).
func (s *PrefixSnapshot) Cycle() int64 { return s.cycle }

// Finished reports whether the prefix ran to completion without
// reaching a vulnerable round, in which case forks replay nothing.
func (s *PrefixSnapshot) Finished() bool { return s.finished }

type warpSnap struct {
	pc       int
	readyAt  int64
	pending  int
	blocked  bool
	curRound int
	done     bool
	stats    WarpStats
}

type smSnap struct {
	injectQ  []int // request indices in FIFO order
	replyQ   []replySnap
	replies  []localReply
	mshr     map[uint64][]int // nil when MSHR disabled
	schedPtr []int
	prt      int
}

// replySnap is a queued reply's source and interned request, in its
// source's FIFO order.
type replySnap struct{ src, req int }

// forkable rejects configurations the prefix-fork fast path cannot
// serve. Caches are excluded because their internal state has no
// snapshot support (and cache keys are launch-derived); traces,
// metrics, and fault seams observe prefix-internal events and would
// otherwise double-count across forks; PlanPerWarp draws per-warp
// plans from the hardware stream, which breaks the zero-draw argument
// that makes the prefix mechanism-independent.
func (g *GPU) forkable() error {
	switch {
	case len(g.cfg.VulnerableRounds) == 0:
		return fmt.Errorf("gpusim: prefix forking requires selective RCoal (set VulnerableRounds)")
	case g.cfg.PlanPerWarp:
		return fmt.Errorf("gpusim: prefix forking is incompatible with PlanPerWarp")
	case g.cfg.L1Enabled || g.cfg.L2Enabled:
		return fmt.Errorf("gpusim: prefix forking is incompatible with caches")
	case g.cfg.Trace != nil:
		return fmt.Errorf("gpusim: prefix forking is incompatible with tracing")
	case g.cfg.Metrics != nil:
		return fmt.Errorf("gpusim: prefix forking is incompatible with metrics")
	case g.cfg.Faults != nil:
		return fmt.Errorf("gpusim: prefix forking is incompatible with fault injection")
	case !mechanism.PlanOnly(g.cfg.Defense, g.cfg.WarpSize):
		// Per-request hooks (delay, shuffle) and the coalescer bypass
		// consume defense randomness — or change timing — inside the
		// prefix, so the prefix is no longer mechanism-independent.
		return fmt.Errorf("gpusim: prefix forking requires a plan-only defense, not %s", g.cfg.Defense.Spec())
	}
	return nil
}

// forkCompatible reports whether two configurations may share a prefix
// snapshot: identical in every respect except the defense mechanism
// under test.
func forkCompatible(a, b Config) bool {
	a.Defense = nil
	b.Defense = nil
	return reflect.DeepEqual(a, b)
}

// RunPrefix simulates the mechanism-independent prefix of the kernel —
// everything before the first vulnerable-round instruction issues —
// and returns a reusable snapshot. The GPU's own Defense is irrelevant
// to the prefix (conventionally mechanism.Baseline()); what matters is
// that every other Config field matches the fork GPUs'.
func (g *GPU) RunPrefix(k *Kernel, seed uint64) (*PrefixSnapshot, error) {
	if err := g.forkable(); err != nil {
		return nil, err
	}
	if err := k.Validate(g.cfg.WarpSize); err != nil {
		return nil, err
	}
	st, err := g.setup(k, seed)
	if err != nil {
		return nil, err
	}
	pausedAt, paused, err := g.loop(st, k, 0, true)
	if err != nil {
		return nil, err
	}
	snap := g.snapshotPrefix(st, k, seed)
	if paused {
		snap.cycle = pausedAt
	} else {
		// The kernel finished without touching a vulnerable round.
		// Resuming the loop at the terminal cycle re-detects
		// termination immediately with the same Cycles value, so forks
		// of a finished snapshot still return correct Results.
		snap.cycle = st.res.Cycles
		snap.finished = true
	}
	return snap, nil
}

// snapshotPrefix deep-copies the launch state. Live request pointers
// are interned by value so the snapshot is decoupled from the arena.
func (g *GPU) snapshotPrefix(st *runState, k *Kernel, seed uint64) *PrefixSnapshot {
	snap := &PrefixSnapshot{
		cfg:       g.cfg,
		kernel:    k,
		seed:      seed,
		remaining: st.remaining,
		progress:  st.progress,
	}
	snap.basePlan = core.Plan{
		Sizes: append([]int(nil), st.basePlan.Sizes...),
		SID:   append([]uint8(nil), st.basePlan.SID...),
	}
	snap.res = *st.res
	snap.res.Warps = append([]WarpStats(nil), st.res.Warps...)
	snap.res.Plan = core.Plan{}

	idx := make(map[*mem.Request]int)
	intern := func(r *mem.Request) int {
		if i, ok := idx[r]; ok {
			return i
		}
		i := len(snap.reqs)
		snap.reqs = append(snap.reqs, *r)
		idx[r] = i
		return i
	}

	snap.warps = make([]warpSnap, len(st.runs))
	for i, w := range st.runs {
		snap.warps[i] = warpSnap{
			pc: w.pc, readyAt: w.readyAt, pending: w.pending,
			blocked: w.blocked, curRound: w.curRound, done: w.done,
			stats: w.stats,
		}
	}

	snap.sms = make([]smSnap, len(st.sms))
	var scratch []*mem.Request
	for i, sm := range st.sms {
		ss := &snap.sms[i]
		scratch = sm.injectQ.Snapshot(scratch[:0])
		for _, r := range scratch {
			ss.injectQ = append(ss.injectQ, intern(r))
		}
		for src := range sm.replyQ.src {
			f := &sm.replyQ.src[src]
			for i := 0; i < f.Len(); i++ {
				ss.replyQ = append(ss.replyQ, replySnap{src: src, req: intern(f.At(i))})
			}
		}
		ss.replies = append([]localReply(nil), sm.replies...)
		if sm.mshr != nil {
			ss.mshr = make(map[uint64][]int, len(sm.mshr))
			for b, waiters := range sm.mshr {
				ss.mshr[b] = append([]int(nil), waiters...)
			}
		}
		ss.schedPtr = append([]int(nil), sm.schedPtr...)
		ss.prt = sm.prt
	}

	for _, p := range st.parts {
		snap.dram = append(snap.dram, p.ctrl.Snapshot())
	}
	snap.toMem = st.toMem.Snapshot()
	snap.toSM = st.toSM.Snapshot()
	return snap
}

// RunFork resumes a prefix snapshot under this GPU's defense
// mechanism and runs the vulnerable suffix to completion. The result
// is byte-identical to g.Run(snap kernel, snap seed). The snapshot is
// not consumed: it may be forked again, by this or another
// fork-compatible GPU.
func (g *GPU) RunFork(snap *PrefixSnapshot) (*Result, error) {
	if err := g.forkable(); err != nil {
		return nil, err
	}
	if !forkCompatible(g.cfg, snap.cfg) {
		return nil, fmt.Errorf("gpusim: fork config differs from prefix config beyond the coalescing mechanism")
	}
	k := snap.kernel // validated by RunPrefix under an identical WarpSize

	// Re-derive the launch exactly as setup would: the fork's mechanism
	// plan comes from the same hardware stream position because the
	// basePlan derivation between them consumes nothing.
	hwRNG := rng.New(snap.seed).Split(0xC0A1)
	launch, err := g.cfg.Defense.NewLaunch(g.cfg.WarpSize, hwRNG)
	if err != nil {
		return nil, err
	}
	cacheRNG := rng.New(snap.seed).Split(0xCAC8E)

	st := g.rt
	if st == nil || len(st.runs) != len(k.Warps) {
		if st, err = g.build(len(k.Warps)); err != nil {
			return nil, err
		}
		g.rt = st
	}
	// resetRuntime also zeroes every SM and scheduler wake horizon, so
	// the restored launch steps everything until its first scans.
	g.resetRuntime(st, cacheRNG)
	g.arena.reset()

	// Materialize the interned requests as fresh arena values; the
	// queues restored below resolve indices through ptrs, so forks
	// never alias the snapshot's (or each other's) request storage.
	ptrs := make([]*mem.Request, len(snap.reqs))
	for i := range snap.reqs {
		ptrs[i] = g.arena.get()
		*ptrs[i] = snap.reqs[i]
	}

	res := snap.res
	res.Warps = append([]WarpStats(nil), snap.res.Warps...)
	res.Plan = launch.Plan
	st.res = &res
	st.remaining = snap.remaining
	st.progress = snap.progress
	st.launch = launch
	st.defRNG = nil // forkable() admits plan-only defenses exclusively
	st.basePlan = snap.basePlan
	st.sub.Reset(launch.Plan)
	st.baseSub.Reset(st.basePlan)
	st.roundMask = [MaxRounds + 1]bool{}
	st.selective = true
	for _, r := range g.cfg.VulnerableRounds {
		st.roundMask[r] = true
	}

	for i, wp := range k.Warps {
		w := st.runs[i]
		ws := &snap.warps[i]
		*w = warpRun{
			prog: wp, pc: ws.pc, readyAt: ws.readyAt, pending: ws.pending,
			blocked: ws.blocked, curRound: ws.curRound, done: ws.done,
			sub: &st.sub, own: w.own, delayedPC: -1, stats: ws.stats, sched: w.sched,
		}
	}
	// Each warp's undrained count and lastDone are rebuilt from the
	// queues: a queued reply is one not yet delivered, and it is ready
	// no earlier than any the SM has taken.
	for i, sm := range st.sms {
		ss := &snap.sms[i]
		for _, ri := range ss.injectQ {
			sm.injectQ.Push(ptrs[ri])
			st.runs[ptrs[ri].Warp].undrained++
			st.markDraining(i)
		}
		for _, rs := range ss.replyQ {
			r := ptrs[rs.req]
			sm.replyQ.push(rs.src, r)
			w := st.runs[r.Warp]
			w.lastDone = max(w.lastDone, r.Done)
		}
		sm.replies = append(sm.replies[:0], ss.replies...)
		if sm.mshr != nil {
			for b, waiters := range ss.mshr {
				sm.mshr[b] = append([]int(nil), waiters...)
			}
		}
		copy(sm.schedPtr, ss.schedPtr)
		sm.prt = ss.prt
	}
	for i, p := range st.parts {
		p.ctrl.Restore(snap.dram[i])
	}
	st.toMem.Restore(snap.toMem)
	st.toSM.Restore(snap.toSM)

	if _, _, err := g.loop(st, k, snap.cycle, false); err != nil {
		return nil, err
	}
	g.finish(st)
	return st.res, nil
}
