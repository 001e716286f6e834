// Package core implements the parallel-nested software transactional memory
// of Barreto et al. (PPoPP 2010) together with the epoch-based work-stealing
// runtime it relies on (paper §3–§6).
//
// The package couples four mechanisms that the paper designs as one system:
//
//   - a fork–join scheduler with P worker slots and a single global block
//     queue (§3), where a context that forks parks and the last finishing
//     child hands its slot directly to the parked continuation;
//   - constant-time transaction begin/commit over reserved bitnums (§4.1);
//   - eager conflict detection on per-object access stacks using one-word
//     ancestor sets (§4.2);
//   - lazy bitnum reclaiming through a background publisher and committed
//     masks (§5), with comDesc notes preventing the pathological false
//     conflicts of §5.2, and the §6 machinery (parent limiter, borrowing,
//     serialization fallback, unilateral discard) that lets a bounded
//     identifier space support unbounded transaction trees.
package core

import "errors"

// ErrClosed is returned by Run after the runtime has been closed.
var ErrClosed = errors.New("core: runtime is closed")

// conflictSignal unwinds a transaction body when an access detects a
// conflict. It is recovered inside Atomic, which rolls back and retries;
// it never escapes the package. obj is the object whose access failed
// the conflict test — carried for abort attribution (D35) and
// propagated when the conflict escalates to the parent, so the event
// stream pins the blame on the contended object at every level.
type conflictSignal struct {
	obj *Object
}
