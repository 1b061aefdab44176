package parmsf

import (
	"errors"
	"fmt"

	"parmsf/internal/ingest"
)

// The package's error taxonomy. Every error returned by the public API is
// (or wraps) one of these sentinels, so callers dispatch with errors.Is:
//
//   - validation errors (ErrBadEdge, ErrExists, ErrNotFound, ErrCapacity,
//     ErrTooFewVertices) reject one operation and leave the forest intact;
//   - lifecycle errors (ErrClosed, ErrPoisoned) mean the forest — not the
//     operation — is the problem: ErrPoisoned failures carry a *PoisonError
//     with the recovered panic and the stage it escaped from (errors.As),
//     and clear after a successful Recover;
//   - admission errors (ErrQueueFull, ErrTimeout) report backpressure
//     policy decisions on the ingest queue; the update was never accepted
//     and may simply be resubmitted.
var (
	// ErrExists reports insertion of an already-present edge.
	ErrExists = errors.New("parmsf: edge already present")
	// ErrNotFound reports deletion of an absent edge.
	ErrNotFound = errors.New("parmsf: edge not present")
	// ErrCapacity reports exceeding the configured MaxEdges.
	ErrCapacity = errors.New("parmsf: edge capacity exhausted")
	// ErrBadEdge reports a self loop, an out-of-range vertex, or a weight
	// below MinWeight.
	ErrBadEdge = errors.New("parmsf: invalid edge")
	// ErrTooFewVertices reports a New or Build call with n < 2.
	ErrTooFewVertices = errors.New("parmsf: need at least two vertices")
	// ErrClosed reports a Submit or Flush after Close.
	ErrClosed = ingest.ErrClosed
	// ErrPoisoned reports an operation on a forest whose engine caught a
	// panic mid-update: mutators and submissions fail fast until Recover
	// rebuilds the engine from the live-edge journal (reads keep serving
	// the last published snapshot throughout). Failures wrap a
	// *PoisonError; test with errors.Is(err, ErrPoisoned).
	ErrPoisoned = errors.New("parmsf: forest poisoned by engine panic")
	// ErrQueueFull reports a Submit rejected by the SubmitFail admission
	// policy (or a SubmitWait that timed out) because QueueDepth updates
	// were already waiting. The update was not accepted.
	ErrQueueFull = ingest.ErrFull
	// ErrTimeout reports a Flush that exceeded Options.FlushTimeout. The
	// flushed updates remain queued and will still apply.
	ErrTimeout = ingest.ErrFlushTimeout
)

// PoisonError is the concrete error carried by every ErrPoisoned failure:
// the panic value the containment layer recovered, the stage of the serving
// plane it escaped from, and the stack captured at the recovery site. One
// PoisonError is minted per poisoning and shared by every operation that
// fails fast on it; Unwrap yields ErrPoisoned so errors.Is works, and
// errors.As(*PoisonError) recovers the cause.
type PoisonError struct {
	Stage string // commit the panic escaped from: "insert" or "delete"
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery site
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("parmsf: forest poisoned by engine panic in %s: %v", e.Stage, e.Value)
}

// Unwrap ties every PoisonError to the ErrPoisoned sentinel.
func (e *PoisonError) Unwrap() error { return ErrPoisoned }
