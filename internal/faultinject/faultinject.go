// Package faultinject provides deterministic, test-only fault hooks
// for the robustness layer: every defense the repository claims — the
// simulator's forward-progress watchdog, the worker pool's panic
// containment, the experiment journal's corruption tolerance — has a
// fault here that proves it actually trips.
//
// The faults are plain data (a Plan wired through gpusim.Config) or
// tiny helpers with no dependencies, so production packages can expose
// injection seams without importing test machinery. Nothing in this
// package is randomized: a fault fires at an exact, configured point,
// so a test that injects one reproduces bit-for-bit.
package faultinject

import (
	"fmt"
	"os"
)

// Plan names the hardware faults a simulator launch should suffer.
// It is carried by gpusim.Config.Faults and wired into the subsystem
// seams (dram.Controller.InjectStall, the simulator's per-SM reply
// queues) when the runtime is built. The zero value (and a nil *Plan) injects
// nothing.
type Plan struct {
	// DRAMStall, when non-nil, freezes a DRAM controller's scheduler:
	// queued requests are never serviced again. Upstream this must
	// surface as a no-progress error, not a hang.
	DRAMStall *DRAMStall
	// DropReply, when non-nil, silently swallows one memory reply on
	// its way from a partition to its SM. The requesting warp then waits
	// forever; upstream this must surface as a no-progress error.
	DropReply *DropReply
}

// DRAMStall freezes the scheduler of one (or every) DRAM controller
// after it has serviced AfterAccesses requests.
type DRAMStall struct {
	// Partition selects the controller; -1 stalls every partition.
	Partition int
	// AfterAccesses is how many requests the controller schedules
	// before freezing; 0 freezes it from the first request on.
	AfterAccesses uint64
}

// DropReply swallows the Nth reply toward SM Port, in the order the
// SM's reply port delivers them; the port books no slot for it.
type DropReply struct {
	// Port is the destination SM id.
	Port int
	// Nth counts the launch's replies to that SM, 1-based: the Nth
	// vanishes.
	Nth uint64
}

// CellPanic returns a per-cell hook that panics when invoked for the
// target cell index and is a no-op everywhere else — the "one bad cell
// must not kill the pool" fault.
func CellPanic(target int) func(cell int) error {
	return func(cell int) error {
		if cell == target {
			panic(fmt.Sprintf("faultinject: injected panic in cell %d", cell))
		}
		return nil
	}
}

// CellError returns a per-cell hook that fails the target cell with
// err and is a no-op everywhere else.
func CellError(target int, err error) func(cell int) error {
	return func(cell int) error {
		if cell == target {
			return err
		}
		return nil
	}
}

// TornTail truncates the final drop bytes of the file at path — the
// crash-mid-append fault: the last journal line loses its tail (and
// its newline), so a resume must discard it by checksum and terminate
// the fragment rather than concatenating onto it.
func TornTail(path string, drop int) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if int64(drop) >= info.Size() {
		return fmt.Errorf("faultinject: %s has only %d bytes, cannot drop %d", path, info.Size(), drop)
	}
	return os.Truncate(path, info.Size()-int64(drop))
}

// CorruptJournalLine overwrites the payload of line n (0-based) of the
// file at path with garbage of the same length, preserving the line
// structure — the torn-write/bit-rot fault a checkpoint journal must
// detect and discard rather than replay.
func CorruptJournalLine(path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	line := 0
	start := 0
	for i, b := range data {
		if line == n {
			end := i
			for end < len(data) && data[end] != '\n' {
				end++
			}
			if start == end {
				return fmt.Errorf("faultinject: line %d of %s is empty", n, path)
			}
			for j := start; j < end; j++ {
				data[j] = '#'
			}
			return os.WriteFile(path, data, 0o644)
		}
		if b == '\n' {
			line++
			start = i + 1
		}
	}
	if line == n && start < len(data) {
		for j := start; j < len(data); j++ {
			data[j] = '#'
		}
		return os.WriteFile(path, data, 0o644)
	}
	return fmt.Errorf("faultinject: %s has no line %d", path, n)
}
