package runner

import "fmt"

// PanicError is a recovered cell panic. The pool converts panics into
// errors so one bad cell cancels its siblings and surfaces like any
// other failure (lowest index first) instead of killing the process —
// a multi-hour sweep then reports the cell and stack and can be
// resumed from its journal.
type PanicError struct {
	// Cell is the panicking cell's index.
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}
