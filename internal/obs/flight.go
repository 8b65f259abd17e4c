package obs

import (
	"encoding/json"
	"sync"
	"time"

	"rcoal/internal/atomicio"
)

// FlightEvent is one structured event captured in the recorder ring.
type FlightEvent struct {
	Seq   uint64            `json:"seq"`
	At    int64             `json:"time_unix_nano"`
	Level string            `json:"level"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder keeps a bounded ring of recent structured events —
// the last N things the process saw before something went wrong. It
// fills passively (the Logger tees every record into it) and is
// dumped atomically to disk on watchdog trips, panics, worker
// failures and shutdown signals, so a post-mortem has the lead-up
// even when stderr scrolled away or the process died. A nil recorder
// ignores all calls.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int    // ring write position
	n    int    // events currently held (≤ len(buf))
	seq  uint64 // monotonically increasing event number
	now  func() time.Time
}

// DefaultFlightCapacity is the ring size used when NewFlightRecorder
// is given a non-positive capacity: enough to cover the chatty tail
// of a chaos-faulted sweep without unbounded memory.
const DefaultFlightCapacity = 256

// NewFlightRecorder returns a recorder holding the most recent
// capacity events (DefaultFlightCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

func (r *FlightRecorder) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Record appends one event, evicting the oldest when the ring is full.
func (r *FlightRecorder) Record(level, msg string, attrs map[string]string) {
	if r == nil {
		return
	}
	now := r.clock()
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = FlightEvent{Seq: r.seq, At: now.UnixNano(), Level: level, Msg: msg, Attrs: attrs}
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot copies the held events, oldest first.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// FlightDump is the on-disk schema of a dumped recorder.
type FlightDump struct {
	Reason  string        `json:"reason"`
	TraceID string        `json:"trace_id,omitempty"`
	At      int64         `json:"dumped_at_unix_nano"`
	Events  []FlightEvent `json:"events"`
}

// Dump writes the ring atomically to path as indented JSON, tagged
// with the reason (e.g. "watchdog", "panic", "worker failure") and the
// sweep's trace id. On a nil recorder it is a no-op returning nil, so
// error paths can dump unconditionally.
func (r *FlightRecorder) Dump(path, reason, traceID string) error {
	if r == nil {
		return nil
	}
	d := FlightDump{Reason: reason, TraceID: traceID, At: r.clock().UnixNano(), Events: r.Snapshot()}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(raw, '\n'), 0o644)
}
