package gpusim

import (
	"fmt"
	"math"
	"math/bits"

	"rcoal/internal/core"
	"rcoal/internal/gpusim/cache"
	"rcoal/internal/gpusim/dram"
	"rcoal/internal/gpusim/icnt"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/mechanism"
	"rcoal/internal/ringbuf"
	"rcoal/internal/rng"
)

// DefaultMaxCycles is the cycle budget when Config.MaxCycles is 0 —
// orders of magnitude above any legitimate Table I kernel (the 1024-
// line case study finishes in ~10^6 cycles).
const DefaultMaxCycles = 1 << 28

// DefaultWatchdogWindow is the forward-progress watchdog's patience
// when Config.WatchdogWindow is 0. Legitimate no-change stretches are
// bounded by the largest subsystem latency (hundreds of cycles for
// scaled GDDR5 timings); 2^20 steps leaves three orders of magnitude
// of headroom while still tripping on a wedged launch in well under a
// second.
const DefaultWatchdogWindow = 1 << 20

// GPU is a configured simulator instance. Run rebuilds the launch's
// logical state per call, but the heavy runtime structures (SM state,
// interconnect ports, DRAM controllers, caches, the request arena) are
// retained and reset between runs, so steady-state re-invocation on the
// same GPU allocates only the returned Result and the launch plan. A GPU
// can be shared sequentially across experiments; it is not safe for
// concurrent use — create one GPU per goroutine.
type GPU struct {
	cfg    Config
	timing dram.Timing // scaled into core-clock domain

	// scratch buffers for the memory-issue hot path; Run is
	// sequential, so sharing them across instructions is safe.
	blockScratch []uint64
	txScratch    []uint64
	bankScratch  []int // per-bank distinct words of a shared access

	// rt is the reusable runtime state; valid when the previous launch
	// had the same warp count.
	rt    *runState
	arena reqArena
	// locs memoizes AddressMap.Decode, direct-mapped by block: a launch
	// decodes one address per transaction but touches few distinct
	// blocks (the T-tables), and Decode divides by run-time sizes.
	locs [locSlots]locEntry

	// skipIdle enables the per-SM and per-scheduler wake horizons
	// (stepSMs, issueOne), draining ahead to the next SM event
	// (drainAhead), batched non-final replies (replyLead) and
	// request-slot recycling. It is off under FastForwardDisabled,
	// which keeps stepping every SM every cycle as the differential
	// oracle, and under Metrics, whose per-slot stall counters need
	// every scheduler visited every cycle. The memory side is never
	// stepped: each request's path back to its SM is settled when it
	// leaves the SM (arrive), in every mode.
	skipIdle bool
	// leadOcc is the reply port's occupancy when an SM may take its
	// non-final replies in batches (replyLead): under skipIdle with no
	// L1 and no MSHR, where each delivery settles one pending reply of
	// one warp. It is 0 otherwise, and the SM is visited at every
	// delivery.
	leadOcc int64

	// SkippedCycles counts the cycles event-driven fast-forward did
	// not step, drained ahead or jumped over, over the GPU's lifetime
	// (diagnostic; it never influences results).
	SkippedCycles int64
}

// New validates the configuration and returns a simulator.
func New(cfg Config) (*GPU, error) {
	if cfg.Defense == nil {
		cfg.Defense = mechanism.Baseline()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, timing: cfg.DRAMTiming.Scale(cfg.clockRatio()),
		skipIdle: !cfg.FastForwardDisabled && cfg.Metrics == nil}
	if g.skipIdle && !cfg.L1Enabled && !cfg.MSHREnabled {
		g.leadOcc = int64(mem.BlockBytes / cfg.FlitBytes)
	}
	return g, nil
}

// Config returns the configuration the GPU was built with.
func (g *GPU) Config() Config { return g.cfg }

// locSlots is the size of the GPU's decode memo (a power of two).
const locSlots = 256

// locEntry is one decode memo slot; tag is the block plus one, so the
// zero value matches no block.
type locEntry struct {
	tag uint64
	loc mem.Location
}

// decode returns the memo's physical location of block b's address,
// which callers copy out (*g.decode(b)): a Location returned by value
// is stored as 8-byte words and reloaded with one 16-byte load, which
// stalls store forwarding.
func (g *GPU) decode(b uint64) *mem.Location {
	e := &g.locs[b&(locSlots-1)]
	if e.tag != b+1 {
		*e = locEntry{tag: b + 1, loc: g.cfg.AddressMap.Decode(b * mem.BlockBytes)}
	}
	return &e.loc
}

// reqChunk is the request-arena chunk size.
const reqChunk = 512

// reqArena hands out mem.Request values from chunked storage that is
// reset (not freed) between launches: requests only live within one
// Run, so steady-state runs allocate no request memory at all. Slots
// handed back by put are reused first, so a launch whose replies are
// recycled holds only its peak in-flight requests.
type reqArena struct {
	chunks [][]mem.Request
	ci     int // current chunk
	used   int // slots used in the current chunk
	free   []*mem.Request
}

// get returns a request slot. Its contents are stale: every caller
// overwrites the whole value.
func (a *reqArena) get() *mem.Request {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free = a.free[:n-1]
		return r
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]mem.Request, reqChunk))
	}
	r := &a.chunks[a.ci][a.used]
	a.used++
	if a.used == reqChunk {
		a.ci++
		a.used = 0
	}
	return r
}

// put hands back a slot nothing references any more.
func (a *reqArena) put(r *mem.Request) { a.free = append(a.free, r) }

func (a *reqArena) reset() { a.ci, a.used, a.free = 0, 0, a.free[:0] }

// warpRun is the runtime state of one warp.
type warpRun struct {
	prog     *WarpProgram
	pc       int
	readyAt  int64
	pending  int  // outstanding memory replies
	blocked  bool // waiting on memory
	curRound int
	done     bool
	plan     core.Plan // this warp's subwarp plan
	// delayedPC marks the pc whose randomized issue delay (the defense's
	// Delay hook) has already been drawn, so a retried instruction does
	// not stall twice; -1 when no draw is pending.
	delayedPC int
	stats     WarpStats
	// sched is the warp's scheduler within its SM; structural, set by
	// build and kept across launches.
	sched int
}

// reset prepares the warp state for a new launch.
func (w *warpRun) reset(prog *WarpProgram, plan core.Plan) {
	*w = warpRun{prog: prog, plan: plan, delayedPC: -1, sched: w.sched}
	for r := 0; r <= MaxRounds; r++ {
		w.stats.RoundStart[r] = -1
		w.stats.RoundEnd[r] = -1
	}
}

// localReply is an L1 hit completing after the hit latency.
type localReply struct {
	at   int64
	warp int
}

// smState is the runtime state of one SM: its resident warps, the
// per-scheduler warp subsets, the LD/ST unit's pending transaction
// queue (the PRT drain queue of Figure 11), its memory replies in
// flight, the optional L1, and the optional MSHR merge table.
type smState struct {
	warps    []*warpRun
	sched    [][]*warpRun // per-scheduler warp subsets
	schedPtr []int
	injectQ  ringbuf.Ring[*mem.Request]
	replyQ   replyQueue
	l1       *cache.Cache
	replies  []localReply
	// mshr maps an outstanding block to the warp ids piggybacked on
	// the primary request (the primary's warp id is in the request).
	mshr map[uint64][]int
	// prt is the SM's outstanding-transaction count (the pending-
	// request-table occupancy of Figure 11); maintained only when
	// metrics are installed.
	prt int
	// schedWake[s] is scheduler s's horizon: issuing from it at any
	// cycle before is a no-op. The SM's own horizon, bounding all of
	// them, lives in runState.cal. Unless GPU.skipIdle, both keep
	// their reset values, which skip nothing.
	schedWake []int64
	// lead is the SM's reply lead as of its last step (replyLead): no
	// warp of it completes before its next reply delivery plus lead.
	lead int64
	// fewest is the fewest pending replies among the SM's warps with
	// any (math.MaxInt for none), kept by issueMemory and settle; a
	// warp's last reply may raise it, which sets refresh.
	fewest  int
	refresh bool
}

// partState is one memory partition: the optional L2 slice in front of
// the DRAM controller.
type partState struct {
	ctrl *dram.Controller
	l2   *cache.Cache
}

// runState bundles one launch's mutable state.
type runState struct {
	runs []*warpRun
	sms  []*smState
	// warpSMs lists the SMs with resident warps in id order; the others
	// never issue or receive traffic, so the cycle loop never visits
	// them.
	warpSMs []int
	parts   []*partState
	// cal holds the SMs' wake horizons: stepping an SM at any cycle
	// before its wake is a no-op, so the cycle loop visits only the SMs
	// the calendar says are due, among warpSMs.
	cal *calendar
	// draining marks the SMs whose inject queue holds transactions,
	// one bit per SM id; drain empties them ahead of the SMs' steps,
	// up to the next SM event under skipIdle (drainAhead).
	draining []uint64
	toMem    *icnt.Slots
	toSM     *icnt.Slots
	// dropSM, dropNth and dropSeen are the DropReply fault seam
	// (internal/faultinject): when dropNth > 0, the dropNth-th reply
	// SM dropSM takes off its queue in this launch vanishes.
	dropSM            int
	dropNth, dropSeen uint64
	res               *Result
	reqID             uint64
	remaining         int
	// progress counts observable state transitions (issues, request
	// injections, replies, retirements). The forward-progress watchdog
	// trips when it stops advancing while warps remain unfinished; it
	// never influences simulation behavior.
	progress uint64
	// launch is the realized defense state for this launch: the subwarp
	// plan behind res.Plan plus the per-request hooks (delay, shuffle)
	// and the coalescer bypass.
	launch mechanism.Launch
	// defRNG feeds the launch's per-request defense hooks; nil when the
	// defense has none, so plan-only mechanisms consume exactly the
	// streams they did before the Mechanism seam existed.
	defRNG    *rng.Source
	basePlan  core.Plan // whole-warp plan for non-vulnerable rounds
	roundMask [MaxRounds + 1]bool
	selective bool
}

// Run executes the kernel to completion and returns its statistics.
// The seed drives the launch's hardware randomness: the subwarp plans
// for RSS/RTS policies and the cache index keys when randomized.
// Identical (kernel, seed) pairs produce identical results, whether
// fast-forward is enabled or not (the determinism contract checked by
// TestFastForwardByteIdenticalResults).
func (g *GPU) Run(k *Kernel, seed uint64) (*Result, error) {
	if err := k.Validate(g.cfg.WarpSize); err != nil {
		return nil, err
	}
	st, err := g.setup(k, seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := g.loop(st, k, 0, false); err != nil {
		return nil, err
	}
	g.finish(st)
	return st.res, nil
}

// loop runs the cycle loop from cycle start until the launch
// terminates, setting st.res.Cycles. With pauseAtVulnerable set it
// instead returns (pausedAt, true, nil) at the top of the first cycle
// where some ready warp's next real instruction belongs to a
// vulnerable round, before any work of that cycle happens — the
// copy-on-write fork point (fork.go). The predicate is a pure function
// of simulator state, and no plan-dependent work of a vulnerable round
// can have executed before it fires, so the pause cycle and the
// pre-pause state are identical across mechanism configurations.
// Fast-forward cannot jump past the boundary: a ready warp pins the
// event horizon to now+1, and every skipped cycle provably has no
// ready warps, where the predicate is vacuously false.
func (g *GPU) loop(st *runState, k *Kernel, start int64, pauseAtVulnerable bool) (pausedAt int64, paused bool, err error) {
	fastForward := !g.cfg.FastForwardDisabled
	maxCycles := g.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	window := g.cfg.WatchdogWindow
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	// Forward-progress watchdog state: lastProgress is st.progress at
	// the most recent observable state change, stalled the consecutive
	// steps without one. Fast-forward only elides cycles proven to be
	// no-ops, so skipped cycles never age the watchdog.
	var lastProgress uint64
	var stalled int64

	st.cal.reset(start, st.warpSMs, !g.skipIdle)
	for now := start; ; now++ {
		if now > maxCycles {
			return 0, false, &MaxCyclesError{Kernel: k.Label, MaxCycles: maxCycles, Snapshot: g.snapshot(st, now, false)}
		}
		if pauseAtVulnerable && st.atVulnerableBoundary(now) {
			g.catchUp(st, now-1) // the snapshot reads as stepping would
			return now, true, nil
		}
		due := st.cal.take(now)
		g.drain(st, now)
		g.stepSMs(st, now, due)
		if st.remaining == 0 && st.idleSMs() {
			st.res.Cycles = now
			return 0, false, nil
		}
		if st.progress != lastProgress {
			lastProgress = st.progress
			stalled = 0
		} else if stalled++; stalled >= window {
			return 0, false, &NoProgressError{Kernel: k.Label, Cycle: now, Window: window, Snapshot: g.snapshot(st, now, true)}
		}
		if fastForward && (g.skipIdle || !st.anyDraining()) {
			// Event-driven fast-forward: when no SM can act before some
			// future cycle, jump straight to it. Under skipIdle the
			// cycles before it are drained first (drainAhead); otherwise
			// a non-empty inject queue drains next cycle, so there is
			// nothing to skip. Every skipped cycle is one where stepSMs
			// would have been a no-op, so results are byte-identical to
			// pure cycle-stepping.
			last := now
			if g.skipIdle {
				last = g.drainAhead(st, now, maxCycles)
			}
			next := last + 1 // an SM is due, or the budget is spent
			if !st.anyDraining() {
				next = g.nextEvent(st, last)
			}
			if next == math.MaxInt64 {
				// Warps remain unfinished yet nothing is in flight
				// anywhere: no future step can change state. Report the
				// wedge immediately instead of aging the watchdog.
				return 0, false, &NoProgressError{Kernel: k.Label, Cycle: last, Snapshot: g.snapshot(st, last, true)}
			}
			if next > now+1 {
				if next > maxCycles {
					next = maxCycles + 1 // surface the cycle budget
				}
				g.SkippedCycles += next - now - 1
				now = next - 1
			}
		}
	}
}

// finish folds the per-subsystem statistics into st.res after the loop
// terminates.
func (g *GPU) finish(st *runState) {
	for _, p := range st.parts {
		st.res.DRAM = append(st.res.DRAM, p.ctrl.Stats)
		if p.l2 != nil {
			st.res.L2 = append(st.res.L2, p.l2.Stats)
		}
	}
	for _, sm := range st.sms {
		if sm.l1 != nil {
			st.res.L1 = append(st.res.L1, sm.l1.Stats)
		}
	}
	if g.cfg.Metrics != nil {
		g.snapshotInto(st, st.res)
	}
}

// atVulnerableBoundary reports whether some ready warp's next real
// (non-RoundMark) instruction belongs to a vulnerable round. tryIssue
// consumes RoundMarks eagerly in the same issue slot as the following
// instruction, so the scan mirrors exactly what the warp would issue
// this cycle; a true result means issuing any further cycle could
// execute plan-dependent work.
func (st *runState) atVulnerableBoundary(now int64) bool {
	for _, w := range st.runs {
		if w.done || w.blocked || w.readyAt > now {
			continue
		}
		for pc := w.pc; pc < len(w.prog.Instrs); pc++ {
			ins := &w.prog.Instrs[pc]
			if ins.Kind == RoundMark {
				continue
			}
			if ins.Round >= 0 && ins.Round <= MaxRounds && st.roundMask[ins.Round] {
				return true
			}
			break
		}
	}
	return false
}

// nextEvent returns the earliest cycle strictly after now at which any
// subsystem can act, or math.MaxInt64 when nothing is in flight. The
// horizon of each subsystem is conservative: it may be earlier than
// the subsystem's next true state change (in which case the simulator
// simply steps a few idle cycles), but it is never later. The loop
// asks only while every inject queue is empty.
func (g *GPU) nextEvent(st *runState, now int64) int64 {
	// Under skipIdle the SMs' wake horizons bound every source the scan
	// below reads.
	next := int64(math.MaxInt64)
	for _, smID := range st.warpSMs {
		if g.skipIdle {
			t := st.cal.wake[smID]
			if t <= now+1 {
				return now + 1
			}
			next = min(next, t)
			continue
		}
		sm := st.sms[smID]
		for i := range sm.replies {
			if t := sm.replies[i].at; t < next {
				next = t
			}
		}
		if !sm.replyQ.empty() {
			next = min(next, st.toSM.Due(smID, sm.replyQ.next()))
		}
		for s := range sm.replyQ.src {
			// The stall counters count the cycles stepped, and those
			// include every reply's hand-off to the reply crossbar.
			f := &sm.replyQ.src[s]
			for i := 0; i < f.Len(); i++ {
				if t := f.At(i).Done; t > now {
					next = min(next, t)
					break
				}
			}
		}
		for _, w := range sm.warps {
			if w.done || w.blocked {
				continue // woken by a reply, covered above
			}
			if w.readyAt <= now {
				// Ready but not issued this cycle (scheduler bandwidth):
				// the SM is active next cycle.
				return now + 1
			}
			if w.readyAt < next {
				next = w.readyAt
			}
		}
	}
	if g.cfg.Metrics != nil {
		// Likewise every request's arrival at its partition.
		for pid := range st.parts {
			next = min(next, st.toMem.NextReserved(pid, now))
		}
	}
	return max(now+1, next)
}

// setup builds the launch state: warps on SMs, plans, interconnect,
// caches, and memory partitions. Structural state is reused from the
// previous launch when the warp count matches; per-launch state (the
// Result, the plans) is always fresh because it escapes to the caller.
func (g *GPU) setup(k *Kernel, seed uint64) (*runState, error) {
	// The defense's launch state (for subwarp mechanisms, the
	// subwarp-id mapping) is set by the hardware logic at the beginning
	// of the execution and stays fixed for the launch (Section IV-D):
	// one realization shared by every warp of the launch, unless
	// PlanPerWarp asks for per-warp randomization.
	hwRNG := rng.New(seed).Split(0xC0A1) // hardware stream; attackers never see it
	launch, err := g.cfg.Defense.NewLaunch(g.cfg.WarpSize, hwRNG)
	if err != nil {
		return nil, err
	}
	cacheRNG := rng.New(seed).Split(0xCAC8E)

	st := g.rt
	if st == nil || len(st.runs) != len(k.Warps) {
		if st, err = g.build(len(k.Warps)); err != nil {
			return nil, err
		}
		g.rt = st
	}
	// Reset also serves the fresh build: it draws the launch's cache
	// hash keys from cacheRNG in a fixed order, so rebuilt and reused
	// runtimes see identical key sequences.
	g.resetRuntime(st, cacheRNG)
	g.arena.reset()
	if m := g.cfg.Metrics; m != nil {
		m.reset() // each Run reports exactly its own launch
	}

	st.res = &Result{Plan: launch.Plan, Warps: make([]WarpStats, len(k.Warps))}
	st.reqID = 0
	st.remaining = len(st.runs)
	st.launch = launch
	st.defRNG = nil
	if launch.HasHooks() {
		// Dedicated stream for the per-request hooks: drawn lazily here
		// so plan-only mechanisms touch exactly the streams they did
		// before the Mechanism seam existed (the byte-identity contract).
		st.defRNG = rng.New(seed).Split(0xDE1A)
	}
	st.roundMask = [MaxRounds + 1]bool{}
	st.basePlan = core.Plan{}
	st.selective = len(g.cfg.VulnerableRounds) > 0
	if st.selective {
		st.basePlan = mechanism.WholeWarpPlan(g.cfg.WarpSize)
		for _, r := range g.cfg.VulnerableRounds {
			st.roundMask[r] = true
		}
	}
	for i, wp := range k.Warps {
		plan := launch.Plan
		if g.cfg.PlanPerWarp {
			wl, err := g.cfg.Defense.NewLaunch(g.cfg.WarpSize, hwRNG)
			if err != nil {
				return nil, err
			}
			plan = wl.Plan
		}
		st.runs[i].reset(wp, plan)
	}
	return st, nil
}

// build constructs the structural runtime state for a launch of
// nWarps warps: SM states with caches, warp slots distributed over SMs
// and schedulers, interconnect ports, and memory partitions. Cache hash
// keys are not drawn here — setup keys every cache through resetRuntime
// so rebuilt and reused runtimes are indistinguishable.
func (g *GPU) build(nWarps int) (*runState, error) {
	st := &runState{}
	st.sms = make([]*smState, g.cfg.NumSMs)
	for i := range st.sms {
		sm := &smState{schedPtr: make([]int, g.cfg.SchedulersPerSM),
			schedWake: make([]int64, g.cfg.SchedulersPerSM),
			replyQ:    newReplyQueue(g.replySources())}
		if g.cfg.L1Enabled {
			cfg := g.cfg.L1
			cfg.RandomizeIndex = cfg.RandomizeIndex || g.cfg.CacheRandomized
			l1, err := cache.New(cfg, 0)
			if err != nil {
				return nil, err
			}
			sm.l1 = l1
		}
		if g.cfg.MSHREnabled {
			sm.mshr = make(map[uint64][]int)
		}
		st.sms[i] = sm
	}

	st.runs = make([]*warpRun, nWarps)
	for i := range st.runs {
		w := &warpRun{}
		st.runs[i] = w
		st.sms[i%len(st.sms)].warps = append(st.sms[i%len(st.sms)].warps, w)
	}
	for smID, sm := range st.sms {
		if len(sm.warps) > 0 {
			st.warpSMs = append(st.warpSMs, smID)
		}
		sm.sched = make([][]*warpRun, g.cfg.SchedulersPerSM)
		for i, w := range sm.warps {
			s := i % g.cfg.SchedulersPerSM
			sm.sched[s] = append(sm.sched[s], w)
			w.sched = s
		}
	}

	st.cal = newCalendar(len(st.sms))

	var err error
	st.draining = make([]uint64, (len(st.sms)+63)/64)
	st.toMem, err = icnt.NewSlots(g.cfg.AddressMap.Partitions, g.cfg.ICNTLatency, 1)
	if err != nil {
		return nil, err
	}
	st.toSM, err = icnt.NewSlots(g.cfg.NumSMs, g.cfg.ICNTLatency, mem.BlockBytes/g.cfg.FlitBytes)
	if err != nil {
		return nil, err
	}
	st.toSM.ReceiverFirst = true // SMs step before the memory side settles replies
	st.parts = make([]*partState, g.cfg.AddressMap.Partitions)
	for i := range st.parts {
		p := &partState{}
		p.ctrl, err = dram.NewController(g.timing, g.cfg.AddressMap)
		if err != nil {
			return nil, err
		}
		if g.cfg.L2Enabled {
			cfg := g.cfg.L2
			cfg.RandomizeIndex = cfg.RandomizeIndex || g.cfg.CacheRandomized
			p.l2, err = cache.New(cfg, 0)
			if err != nil {
				return nil, err
			}
		}
		st.parts[i] = p
	}

	// Arm the configured test-only faults (internal/faultinject). The
	// seams survive per-launch resets, so a reused runtime keeps its
	// fault plan.
	if f := g.cfg.Faults; f != nil {
		if s := f.DRAMStall; s != nil {
			for pid, p := range st.parts {
				if s.Partition == -1 || s.Partition == pid {
					p.ctrl.InjectStall(s.AfterAccesses)
				}
			}
		}
		if d := f.DropReply; d != nil {
			st.dropSM, st.dropNth = d.Port, d.Nth
		}
	}

	// Install the metrics layer's subsystem hooks. The registry hands
	// back the same histogram objects across rebuilds, so a rebuilt
	// runtime keeps accumulating into the same series.
	if m := g.cfg.Metrics; m != nil {
		st.toMem.DepthHist = m.icntToMem
		st.toSM.DepthHist = m.icntToSM
		m.installDRAM(len(st.parts), g.cfg.AddressMap.Banks)
	}
	return st, nil
}

// resetRuntime restores the structural state to launch-start
// conditions, drawing fresh cache hash keys from cacheRNG in the same
// order build-time construction would (one per enabled L1 in SM order,
// then one per enabled L2 in partition order).
func (g *GPU) resetRuntime(st *runState, cacheRNG *rng.Source) {
	for _, sm := range st.sms {
		sm.injectQ.Reset()
		sm.replyQ.reset()
		sm.replies = sm.replies[:0]
		for i := range sm.schedPtr {
			sm.schedPtr[i] = 0
			sm.schedWake[i] = 0
			if len(sm.sched[i]) == 0 {
				sm.schedWake[i] = math.MaxInt64 // no warps: never issues
			}
		}
		sm.lead, sm.refresh = 0, true
		if sm.l1 != nil {
			sm.l1.Reset(cacheRNG.Uint64())
		}
		if sm.mshr != nil {
			clear(sm.mshr)
		}
		sm.prt = 0
	}
	for _, p := range st.parts {
		p.ctrl.Reset()
		if p.l2 != nil {
			p.l2.Reset(cacheRNG.Uint64())
		}
	}
	clear(st.draining)
	st.toMem.Reset()
	st.toSM.Reset()
	st.dropSeen = 0
}

// drain moves up to MCURate transactions from each SM's LD/ST
// injection queue into the interconnect, in SM-id order, settling each
// one's memory side and queueing its reply (arrive); only the SMs
// marked in st.draining are visited. It runs ahead of the SMs' steps,
// which is exact: a transaction queued at cycle t still drains from
// t+1, and a drain at cycle t queues only replies ready after t, which
// no SM can take before t+1+ICNTLatency, nor sort ahead of a reply an
// SM takes at t (whose data was ready before t).
func (g *GPU) drain(st *runState, now int64) {
	for w, word := range st.draining {
		for ; word != 0; word &= word - 1 {
			smID := w<<6 | bits.TrailingZeros64(word)
			q := &st.sms[smID].injectQ
			for n := 0; n < g.cfg.MCURate && q.Len() > 0; n++ {
				req := q.Pop()
				req.Issued = now
				g.arrive(st, req, st.toMem.Reserve(req.Loc.Partition, now))
				st.progress++
			}
			if q.Len() == 0 {
				st.draining[w] &^= 1 << (smID & 63)
			}
		}
	}
}

// drainAhead drains the cycles after now, in order, while some inject
// queue holds transactions, up to but not including the next SM event:
// the first cycle the calendar has an SM due, a wake arrive lowers
// meanwhile included. It never drains past maxCycles. Only SM steps
// fill the inject queues and no SM steps before that event, so each
// drain is the one stepping that cycle would run, and the state at the
// top of the event's cycle is what stepping gives. It returns the last
// cycle drained (now when none).
func (g *GPU) drainAhead(st *runState, now, maxCycles int64) int64 {
	for now < maxCycles && st.anyDraining() && !st.cal.dueBy(now+1) {
		now++
		g.drain(st, now)
	}
	return now
}

// anyDraining reports whether some SM's inject queue holds transactions.
func (st *runState) anyDraining() bool {
	for _, word := range st.draining {
		if word != 0 {
			return true
		}
	}
	return false
}

// markDraining records that SM smID's inject queue holds transactions.
func (st *runState) markDraining(smID int) { st.draining[smID>>6] |= 1 << (smID & 63) }

// stepSMs advances every SM due this cycle (the SM bits of due, the
// calendar's take) by one cycle: deliver replies and let the
// schedulers issue. An SM whose wake horizon lies in the future is
// skipped.
func (g *GPU) stepSMs(st *runState, now int64, due []uint64) {
	for w, word := range due {
		for ; word != 0; word &= word - 1 {
			smID := w<<6 | bits.TrailingZeros64(word)
			sm := st.sms[smID]
			if t := st.cal.wake[smID]; now < t {
				st.cal.insert(smID, t) // not due yet: keep a bit for its wake
				continue
			}
			// 1a. L1-hit replies maturing this cycle.
			if len(sm.replies) > 0 {
				kept := sm.replies[:0]
				for _, lr := range sm.replies {
					if lr.at <= now {
						g.settle(st, sm, smID, st.runs[lr.warp], now)
					} else {
						kept = append(kept, lr)
					}
				}
				sm.replies = kept
			}

			// 1b. Memory replies from the interconnect.
			g.deliver(st, sm, smID, now)

			// 2. Warp schedulers issue. One whose wake lies in the future
			// is skipped; one with no warps never wakes.
			for s, wake := range sm.schedWake {
				if now >= wake {
					g.issueOne(st, sm, smID, s, now)
				}
			}

			if g.skipIdle {
				sm.lead = g.replyLead(sm)
				st.cal.set(smID, st.smHorizon(sm, smID), now)
			}
		}
	}
}

// deliver takes every reply the SM's port has delivered by cycle now,
// in delivery order, and settles each at its own delivery cycle. The
// port delivers one reply per occupancy, and between the SM's visits
// it delivers only non-final ones (replyLead), which change nothing
// but pending counts, port bookings and the DropReply count; nothing
// reads those before the final delivery, whose cycle is a visit. With
// an L1 or MSHRs the SM is visited at every delivery, so it takes at
// most one.
func (g *GPU) deliver(st *runState, sm *smState, smID int, now int64) {
	for {
		r, at := g.takeReply(st, sm, smID, now)
		if r == nil {
			return
		}
		if sm.l1 != nil && r.Kind == mem.Load {
			sm.l1.Access(mem.BlockOf(r.Addr)) // fill
		}
		g.settle(st, sm, smID, st.runs[r.Warp], at)
		if sm.mshr != nil {
			block := mem.BlockOf(r.Addr)
			if waiters, ok := sm.mshr[block]; ok {
				for _, waiter := range waiters {
					g.settle(st, sm, smID, st.runs[waiter], at)
				}
				delete(sm.mshr, block)
			}
		}
		if g.skipIdle {
			g.arena.put(r) // the reply is consumed; nothing holds r
		}
	}
}

// catchUp takes, on every SM, the replies its port has delivered by
// cycle through, so the launch state reads as stepping every cycle
// gives it. Every SM's wake lies after through, so they are all
// non-final.
func (g *GPU) catchUp(st *runState, through int64) {
	for _, smID := range st.warpSMs {
		g.deliver(st, st.sms[smID], smID, through)
	}
}

// replyLead returns how far past the SM's next reply delivery its
// first warp completion lies at the least: with k the fewest pending
// replies among its warps, no warp completes before k more
// deliveries, one per leadOcc cycles, so k-1 occupancies. It is 0 when
// no warp is pending or leadOcc is 0.
func (g *GPU) replyLead(sm *smState) int64 {
	if g.leadOcc == 0 {
		return 0
	}
	if sm.refresh {
		sm.fewest, sm.refresh = math.MaxInt, false
		for _, w := range sm.warps {
			if w.pending > 0 {
				sm.fewest = min(sm.fewest, w.pending)
			}
		}
	}
	if sm.fewest == math.MaxInt {
		return 0
	}
	return int64(sm.fewest-1) * g.leadOcc
}

// smHorizon returns the SM's wake horizon after its step: the earliest
// of its schedulers' wakes, its pending L1 replies and its next
// reply-port delivery plus its reply lead. Its inject queue drains
// without it (drain). Replies queued toward the SM later lower the
// horizon again (arrive); nothing else outside the SM's own step
// changes its state.
func (st *runState) smHorizon(sm *smState, smID int) int64 {
	h := int64(math.MaxInt64)
	if !sm.replyQ.empty() {
		h = st.toSM.Due(smID, sm.replyQ.next()) + sm.lead
	}
	for _, t := range sm.schedWake {
		if t < h {
			h = t
		}
	}
	for i := range sm.replies {
		if t := sm.replies[i].at; t < h {
			h = t
		}
	}
	return h
}

// replySources returns the number of reply sources per SM: each
// partition's DRAM data and, with L2s, its L2 hits (replyQueue).
func (g *GPU) replySources() int {
	if g.cfg.L2Enabled {
		return 2 * g.cfg.AddressMap.Partitions
	}
	return g.cfg.AddressMap.Partitions
}

// takeReply returns the next reply the SM's port has delivered by
// cycle now, with its delivery cycle, or nil: the queue's head, once
// its data has crossed the interconnect and the port is free. The head
// is final by then: a reply queued later is ready later (drain).
// Taking it books the port. A reply the DropReply seam swallows books
// nothing, and the next one may come in its cycle.
func (g *GPU) takeReply(st *runState, sm *smState, smID int, now int64) (*mem.Request, int64) {
	for !sm.replyQ.empty() && now >= st.toSM.Due(smID, sm.replyQ.next()) {
		r := sm.replyQ.pop()
		if st.dropNth > 0 && smID == st.dropSM {
			if st.dropSeen++; st.dropSeen == st.dropNth {
				continue // fault injected: the reply vanishes
			}
		}
		return r, st.toSM.Reserve(smID, r.Done)
	}
	return nil, 0
}

// settle delivers one memory reply to a warp, retiring the warp if it
// has run off its program.
func (g *GPU) settle(st *runState, sm *smState, smID int, w *warpRun, now int64) {
	st.progress++
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvReply, SM: smID, Warp: w.prog.ID})
	}
	if m := g.cfg.Metrics; m != nil {
		sm.prt--
		m.prtOccupancy.Observe(int64(sm.prt))
	}
	w.pending--
	if w.pending < 0 {
		panic(fmt.Sprintf("gpusim: warp %d reply underflow", w.prog.ID))
	}
	if w.pending > 0 {
		sm.fewest = min(sm.fewest, w.pending)
	} else {
		sm.refresh = true
	}
	if w.pending == 0 && w.blocked {
		w.blocked = false
		w.readyAt = now + 1
		if now+1 < sm.schedWake[w.sched] {
			sm.schedWake[w.sched] = now + 1
		}
		if w.pc >= len(w.prog.Instrs) {
			g.retire(st, w, now)
		}
	}
}

// retire finishes a warp and emits its trace event.
func (g *GPU) retire(st *runState, w *warpRun, now int64) {
	st.progress++
	w.finish(now, &st.res.Warps[w.prog.ID])
	st.remaining--
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvRetire, Warp: w.prog.ID})
	}
}

// arrive settles request r's memory side the moment it leaves its SM,
// given its arrival cycle at at its partition, and queues its reply at
// the SM. Each port delivers in injection order and a partition takes
// every arrival the cycle it comes, so the partition's L2 and
// controller see requests in the order they are settled here: an L2
// hit's data is ready HitLatency after arrival; a miss is scheduled on
// its DRAM bank. A request a stalled controller parks never returns.
func (g *GPU) arrive(st *runState, r *mem.Request, at int64) {
	pid := r.Loc.Partition
	p := st.parts[pid]
	src, hit := pid, false // the reply's source (replyQueue)
	if p.l2 != nil {
		src *= 2
		if r.Kind == mem.Load {
			hit, _, _ = p.l2.Access(mem.BlockOf(r.Addr))
		}
	}
	if hit {
		r.Arrived = at
		r.Done = at + int64(p.l2.HitLatency())
	} else {
		if p.ctrl.Schedule(r, at) == math.MaxInt64 {
			return
		}
		if p.l2 != nil {
			src++
		}
		if g.cfg.Trace != nil {
			g.cfg.Trace.Emit(Event{Cycle: r.Done, Kind: EvDRAMService, SM: r.SM,
				Warp: r.Warp, Addr: r.Addr, Round: r.Round, Part: pid, N: r.Done - r.Arrived})
		}
	}
	sm := st.sms[r.SM]
	sm.replyQ.push(src, r)
	st.cal.lower(r.SM, st.toSM.Due(r.SM, sm.replyQ.next())+sm.lead)
}

func (st *runState) idleSMs() bool {
	for _, sm := range st.sms {
		if sm.injectQ.Len() > 0 || !sm.replyQ.empty() || len(sm.replies) > 0 {
			return false
		}
	}
	return true
}

func (w *warpRun) finish(now int64, stats *WarpStats) {
	w.done = true
	if w.curRound > 0 && w.stats.RoundEnd[w.curRound] < 0 {
		w.stats.RoundEnd[w.curRound] = now
	}
	w.stats.Finish = now
	*stats = w.stats
}

// issueOne lets scheduler s of the SM issue for at most one warp.
// Under LRR the scan starts after the last issued warp; under GTO the
// scheduler greedily retries the warp it issued last and otherwise
// falls back to the oldest ready warp (subset order encodes age).
func (g *GPU) issueOne(st *runState, sm *smState, smID, s int, now int64) {
	mine := sm.sched[s]
	nLocal := len(mine)
	start := sm.schedPtr[s]
	if g.cfg.Scheduler == GTO {
		prev := start - 1
		if prev < 0 {
			prev = nLocal - 1
		}
		if g.tryIssue(st, sm, smID, mine[prev], now) {
			sm.schedPtr[s] = prev + 1
			if sm.schedPtr[s] >= nLocal {
				sm.schedPtr[s] = 0
			}
			if m := g.cfg.Metrics; m != nil {
				m.issued.Inc()
			}
			return
		}
		start = 0
	}
	for probe := 0; probe < nLocal; probe++ {
		idx := start + probe
		if idx >= nLocal {
			idx -= nLocal
		}
		if g.tryIssue(st, sm, smID, mine[idx], now) {
			sm.schedPtr[s] = (idx + 1) % nLocal
			if m := g.cfg.Metrics; m != nil {
				m.issued.Inc()
			}
			return
		}
	}
	if m := g.cfg.Metrics; m != nil {
		// The slot went unused; classify why. Any candidate blocked on
		// memory makes it a memory stall; otherwise warps waiting out
		// pipeline latency make it a pipeline stall; with every warp
		// finished the scheduler is simply idle.
		blocked, future := false, false
		for _, w := range mine {
			if w.done {
				continue
			}
			if w.blocked || w.pending > 0 {
				blocked = true
				break
			}
			future = true
		}
		switch {
		case blocked:
			m.stallMemory.Inc()
		case future:
			m.stallPipeline.Inc()
		default:
			m.stallIdle.Inc()
		}
	}
	if g.skipIdle {
		// The failed scan left every warp done, blocked, or not ready
		// before its readyAt. Only settle can wake a blocked warp, and
		// it lowers the wake itself.
		wake := int64(math.MaxInt64)
		for _, w := range mine {
			if !w.done && !w.blocked && w.readyAt < wake {
				wake = w.readyAt
			}
		}
		sm.schedWake[s] = wake
	}
}

// tryIssue attempts to issue one instruction for the warp, reporting
// whether the warp consumed the issue slot.
func (g *GPU) tryIssue(st *runState, sm *smState, smID int, w *warpRun, now int64) bool {
	if w.done || w.blocked || w.readyAt > now {
		return false
	}
	if w.pc >= len(w.prog.Instrs) {
		// Ran off the end on a non-memory instruction: retire.
		if w.pending == 0 {
			g.retire(st, w, now)
		} else {
			w.blocked = true
			st.progress++
		}
		return false
	}

	// Consume zero-cost round markers eagerly.
	for w.pc < len(w.prog.Instrs) && w.prog.Instrs[w.pc].Kind == RoundMark {
		ins := &w.prog.Instrs[w.pc]
		if w.curRound > 0 && w.stats.RoundEnd[w.curRound] < 0 {
			w.stats.RoundEnd[w.curRound] = now
		}
		if ins.Round > 0 && ins.Round <= MaxRounds {
			if w.stats.RoundStart[ins.Round] < 0 {
				w.stats.RoundStart[ins.Round] = now
			}
			w.curRound = ins.Round
		} else {
			w.curRound = 0
		}
		w.pc++
	}
	if w.pc >= len(w.prog.Instrs) {
		if w.pending == 0 {
			g.retire(st, w, now)
		} else {
			w.blocked = true
		}
		st.progress++
		return true
	}

	ins := &w.prog.Instrs[w.pc]
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvIssue, SM: smID, Warp: w.prog.ID, PC: w.pc, Round: ins.Round})
	}
	switch ins.Kind {
	case ALU:
		lat := int64(ins.Latency)
		if lat <= 0 {
			lat = int64(g.cfg.ALULatency)
		}
		if issue := g.cfg.issueCycles(); lat < issue {
			lat = issue
		}
		w.readyAt = now + lat
		w.pc++
		st.res.ALUOps++
	case Load, Store:
		if g.delayIssue(st, w, now) {
			break // randomized-delay defense: slot consumed, pc unchanged
		}
		g.issueMemory(st, sm, smID, w, ins, now)
		w.pc++
	case SharedLoad:
		g.issueShared(st, w, ins, now)
		w.pc++
	}
	st.progress++
	return true
}

// delayIssue is the issue-stage seam for the randomized-delay defense:
// when the launch carries a Delay hook, every memory instruction draws
// one stall from the defense stream the first time it reaches the
// front of its warp. A positive draw holds the warp for that many
// cycles and reports true (the instruction retries after the stall);
// delayedPC remembers the draw so the retry — and a zero draw — issues
// immediately.
func (g *GPU) delayIssue(st *runState, w *warpRun, now int64) bool {
	if st.launch.Delay == nil || w.delayedPC == w.pc {
		return false
	}
	w.delayedPC = w.pc
	if d := st.launch.Delay(st.defRNG); d > 0 {
		w.readyAt = now + d
		return true
	}
	return false
}

// issueShared models a shared-memory access: requests to the same bank
// for different words serialize into multiple passes (same-word
// requests broadcast). The warp stalls for the conflict-serialized
// latency; no global-memory traffic is generated.
func (g *GPU) issueShared(st *runState, w *warpRun, ins *Instr, now int64) {
	degree := g.sharedConflictDegree(ins)
	lat := int64(g.cfg.SharedLatency + degree - 1)
	if degree == 0 {
		lat = 1 // fully predicated off
	}
	w.readyAt = now + lat
	round := ins.Round
	if round < 0 || round > MaxRounds {
		round = 0
	}
	w.stats.SharedPasses[round] += degree
	st.res.SharedPasses[round] += uint64(degree)
}

// sharedConflictDegree returns the number of serialized passes the
// access needs: the maximum, over banks, of distinct words requested
// in that bank (0 if no thread is active). A word counts at its first
// active lane; the warp's few lanes make rescanning the earlier ones
// cheaper than any set.
func (g *GPU) sharedConflictDegree(ins *Instr) int {
	if len(g.bankScratch) != g.cfg.SharedBanks {
		g.bankScratch = make([]int, g.cfg.SharedBanks)
	}
	perBank := g.bankScratch
	clear(perBank)
	active := func(t int) bool { return ins.Active == nil || ins.Active[t] }
	degree := 0
lanes:
	for t, a := range ins.Addrs {
		if !active(t) {
			continue
		}
		word := a / 4
		for u, b := range ins.Addrs[:t] {
			if b/4 == word && active(u) {
				continue lanes // broadcast
			}
		}
		n := &perBank[word%uint64(len(perBank))]
		*n++
		degree = max(degree, *n)
	}
	return degree
}

// planFor selects the subwarp plan governing this instruction: the
// randomized plan everywhere by default; under selective RCoal
// (VulnerableRounds) only the listed rounds are randomized and the
// rest coalesce whole-warp.
func (g *GPU) planFor(st *runState, w *warpRun, round int) core.Plan {
	if !st.selective || (round >= 0 && round <= MaxRounds && st.roundMask[round]) {
		return w.plan
	}
	return st.basePlan
}

// issueMemory runs the (modified) coalescing unit on a warp-wide
// memory instruction: per-thread addresses are reduced to block
// requests, grouped by the governing plan's subwarp ids, filtered
// through the L1 and the MSHR merge table when enabled, and the
// surviving transactions queued for injection.
func (g *GPU) issueMemory(st *runState, sm *smState, smID int, w *warpRun, ins *Instr, now int64) {
	blocks := g.blockScratch[:0]
	for _, a := range ins.Addrs {
		blocks = append(blocks, mem.BlockOf(a))
	}

	round := ins.Round
	if round < 0 || round > MaxRounds {
		round = 0
	}
	txBlocks := g.txScratch[:0]
	m := g.cfg.Metrics
	switch {
	case st.launch.PerThread:
		// Coalescer bypassed (the no-coalescing strawman): one
		// transaction per active thread, duplicates included.
		for t, b := range blocks {
			if ins.Active == nil || ins.Active[t] {
				txBlocks = append(txBlocks, b)
			}
		}
		if m != nil {
			m.observeUncoalesced(len(txBlocks), round)
		}
	case m != nil:
		// Fused pass: block keys and Algorithm-1 group sizes in one
		// coalescing scan, so metrics never re-run the MCU logic.
		var sizes []int
		txBlocks, sizes = g.planFor(st, w, ins.Round).CoalesceBlocksSizes(blocks, ins.Active, txBlocks, m.sizeScratch[:0])
		m.observeSizes(sizes, round)
		m.sizeScratch = sizes
	default:
		txBlocks = g.planFor(st, w, ins.Round).CoalesceBlocks(blocks, ins.Active, txBlocks)
	}
	if st.launch.Shuffle != nil && len(txBlocks) > 1 {
		// Access-pattern shuffling: transaction count (the coalescing
		// channel) is untouched, but the order the LD/ST unit queues
		// them — and therefore DRAM arrival order and row locality — is
		// freshly randomized per request.
		st.launch.Shuffle(st.defRNG, txBlocks)
	}
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvCoalesce, SM: smID, Warp: w.prog.ID,
			Round: round, N: int64(len(txBlocks))})
	}
	g.blockScratch = blocks[:0]

	issued := 0
	for _, b := range txBlocks {
		// Every coalesced transaction counts as an access (the
		// quantity the attack reasons about), even when a cache or
		// the MSHR absorbs it downstream.
		w.stats.RoundTx[round]++
		w.stats.TotalTx++
		st.res.RoundTx[round]++
		st.res.TotalTx++
		issued++
		w.pending++

		if ins.Kind == Load {
			// L1 probe.
			if sm.l1 != nil {
				if hit, _, _ := sm.l1.Access(b); hit {
					sm.replies = append(sm.replies,
						localReply{at: now + int64(sm.l1.HitLatency()), warp: w.prog.ID})
					continue
				}
			}
			// MSHR merge with an outstanding miss to the same block.
			if sm.mshr != nil {
				if _, outstanding := sm.mshr[b]; outstanding {
					sm.mshr[b] = append(sm.mshr[b], w.prog.ID)
					st.res.MSHRMerges++
					continue
				}
				sm.mshr[b] = nil // primary in flight
			}
		}

		if g.cfg.Trace != nil {
			g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvMemTx, SM: smID, Warp: w.prog.ID, Addr: b * mem.BlockBytes, Round: round})
		}
		st.reqID++
		// Field by field: a composite literal is built aside and
		// copied, which costs as much again on this path.
		req := g.arena.get()
		req.ID, req.Addr, req.Kind = st.reqID, b*mem.BlockBytes, kindOf(ins.Kind)
		req.SM, req.Warp, req.Round = smID, w.prog.ID, round
		req.Issued, req.Arrived, req.Done = 0, 0, 0
		req.Loc = *g.decode(b)
		sm.injectQ.Push(req)
		st.markDraining(smID)
		if m := g.cfg.Metrics; m != nil {
			m.injectDepth.Observe(int64(sm.injectQ.Len()))
		}
	}
	g.txScratch = txBlocks[:0]
	if issued > 0 {
		sm.fewest = min(sm.fewest, w.pending)
		if m := g.cfg.Metrics; m != nil {
			sm.prt += issued
			m.prtOccupancy.Observe(int64(sm.prt))
		}
		w.blocked = true
	} else {
		// Fully predicated-off instruction: nothing to wait for.
		w.readyAt = now + 1
	}
}
