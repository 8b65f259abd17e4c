package gpusim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNoProgress is the sentinel wrapped by every *NoProgressError:
// the forward-progress watchdog found the launch wedged — no subsystem
// changed state for a full watchdog window (or provably never will)
// while warps remained unfinished. Match with errors.Is; recover the
// diagnostic snapshot with errors.As into a *NoProgressError.
var ErrNoProgress = errors.New("gpusim: no forward progress")

// ErrMaxCycles is the sentinel wrapped by every *MaxCyclesError: the
// launch exhausted its Config.MaxCycles budget.
var ErrMaxCycles = errors.New("gpusim: cycle budget exhausted")

// NoProgressError reports a wedged launch: which kernel, when the
// watchdog tripped, and a diagnostic snapshot of where every request
// and warp was stuck.
type NoProgressError struct {
	// Kernel is the launch's label.
	Kernel string
	// Cycle is the simulated cycle at which the watchdog tripped.
	Cycle int64
	// Window is how many consecutive no-change steps it waited; 0 means
	// the watchdog proved immediately that no future step could change
	// state (nothing in flight, warps still unfinished).
	Window int64
	// Snapshot is the launch state at the trip point.
	Snapshot *Snapshot
}

func (e *NoProgressError) Error() string {
	why := fmt.Sprintf("no state change for %d steps", e.Window)
	if e.Window == 0 {
		why = "nothing in flight can ever complete"
	}
	return fmt.Sprintf("gpusim: kernel %q made no forward progress at cycle %d (%s)\n%s",
		e.Kernel, e.Cycle, why, e.Snapshot)
}

// Unwrap lets errors.Is(err, ErrNoProgress) match.
func (e *NoProgressError) Unwrap() error { return ErrNoProgress }

// MaxCyclesError reports a launch that exhausted its cycle budget,
// with the same diagnostic snapshot a watchdog trip carries.
type MaxCyclesError struct {
	// Kernel is the launch's label.
	Kernel string
	// MaxCycles is the exhausted budget.
	MaxCycles int64
	// Snapshot is the launch state when the budget ran out.
	Snapshot *Snapshot
}

func (e *MaxCyclesError) Error() string {
	return fmt.Sprintf("gpusim: kernel %q exceeded %d cycles\n%s", e.Kernel, e.MaxCycles, e.Snapshot)
}

// Unwrap lets errors.Is(err, ErrMaxCycles) match.
func (e *MaxCyclesError) Unwrap() error { return ErrMaxCycles }

// Snapshot is a diagnostic dump of a launch's runtime state, attached
// to watchdog and cycle-budget errors so a wedged multi-hour sweep
// reports where it was stuck instead of hanging.
type Snapshot struct {
	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle int64
	// RemainingWarps counts unfinished warps across the launch.
	RemainingWarps int
	// SMs holds one entry per SM with resident warps.
	SMs []SMSnapshot
	// ToMemPending / ToSMPending are the packet totals in transit in
	// the SM→partition and partition→SM crossbars: requests that left
	// their SM but have not reached their partition, and replies not
	// yet delivered.
	ToMemPending, ToSMPending int
	// Partitions holds one entry per memory partition.
	Partitions []PartitionSnapshot
}

// SMSnapshot is one SM's state: warp-scheduler occupancy and the PRT
// (pending request table) pressure of its LD/ST unit.
type SMSnapshot struct {
	// SM is the SM id.
	SM int
	// Warps/Done/Blocked/Ready partition the resident warps: Blocked
	// warps wait on memory replies, Ready warps could issue.
	Warps, Done, Blocked, Ready int
	// PRTEntries is the PRT occupancy: outstanding memory replies
	// summed over the SM's warps.
	PRTEntries int
	// InjectQueue is the LD/ST unit's queued-transaction count (the
	// PRT drain queue of Figure 11).
	InjectQueue int
	// LocalReplies counts maturing L1-hit replies.
	LocalReplies int
}

// PartitionSnapshot is one memory partition's controller state.
type PartitionSnapshot struct {
	// Partition is the partition id.
	Partition int
	// Queued counts the requests a stalled controller parked
	// unscheduled; InFlight counts arrived requests whose data has not
	// returned.
	Queued, InFlight int
	// L2Replies counts maturing L2-hit replies.
	L2Replies int
}

// String renders the snapshot as a compact multi-line diagnostic,
// omitting fully idle SMs and partitions.
func (s *Snapshot) String() string {
	if s == nil {
		return "  (no snapshot)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  snapshot @ cycle %d: %d warps unfinished; icnt to-mem=%d to-sm=%d\n",
		s.Cycle, s.RemainingWarps, s.ToMemPending, s.ToSMPending)
	for _, sm := range s.SMs {
		if sm.Done == sm.Warps && sm.PRTEntries == 0 && sm.InjectQueue == 0 && sm.LocalReplies == 0 {
			continue
		}
		fmt.Fprintf(&b, "  sm %d: warps %d (done %d, blocked %d, ready %d), prt %d, injectq %d, l1-replies %d\n",
			sm.SM, sm.Warps, sm.Done, sm.Blocked, sm.Ready, sm.PRTEntries, sm.InjectQueue, sm.LocalReplies)
	}
	for _, p := range s.Partitions {
		if p.Queued == 0 && p.InFlight == 0 && p.L2Replies == 0 {
			continue
		}
		fmt.Fprintf(&b, "  partition %d: queued %d, in-flight %d, l2-replies %d\n",
			p.Partition, p.Queued, p.InFlight, p.L2Replies)
	}
	return strings.TrimRight(b.String(), "\n")
}

// snapshot captures the launch state for a diagnostic error, taken at
// cycle now after its step, or before it when stepped is false. Each
// queued reply counts where its request is as of the last cycle
// stepped: on its way to its partition, there until its data is ready
// (an L2 hit, or in flight at the controller), then on the reply
// crossbar until its SM takes it. Replies delivered by then that an SM
// has not taken yet (non-final ones wait for its next visit) are taken
// first, so the snapshot reads as stepping every cycle gives it.
func (g *GPU) snapshot(st *runState, now int64, stepped bool) *Snapshot {
	reached := now
	if !stepped {
		reached--
	}
	g.catchUp(st, reached)
	s := &Snapshot{Cycle: now, RemainingWarps: st.remaining}
	for pid, p := range st.parts {
		s.Partitions = append(s.Partitions, PartitionSnapshot{Partition: pid, Queued: p.ctrl.Parked()})
	}
	for smID, sm := range st.sms {
		if len(sm.warps) == 0 {
			continue
		}
		snap := SMSnapshot{SM: smID, Warps: len(sm.warps),
			InjectQueue: sm.injectQ.Len(), LocalReplies: len(sm.replies)}
		for _, w := range sm.warps {
			switch {
			case w.done:
				snap.Done++
			case w.blocked:
				snap.Blocked++
			default:
				snap.Ready++
			}
			snap.PRTEntries += w.pending
		}
		s.SMs = append(s.SMs, snap)
		for src := range sm.replyQ.src {
			f := &sm.replyQ.src[src]
			l2 := g.cfg.L2Enabled && src%2 == 0
			for i := 0; i < f.Len(); i++ {
				switch r := f.At(i); {
				case r.Arrived > reached:
					s.ToMemPending++
				case r.Done <= reached:
					s.ToSMPending++
				case l2:
					s.Partitions[r.Loc.Partition].L2Replies++
				default:
					s.Partitions[r.Loc.Partition].InFlight++
				}
			}
		}
	}
	return s
}
