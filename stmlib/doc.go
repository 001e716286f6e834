// Package stmlib is a library of transactional data structures built on
// the parallel-nesting STM in package pnstm.
//
// The structures follow Assa et al., "Using Nesting to Push the Limits of
// Transactional Data Structure Libraries" (DISC 2021): a data structure
// operation is itself a (nested) transaction, so structure operations
// compose — an Atomic body may touch a TMap, a TQueue, a TCounter and
// plain TVars and the whole body commits or aborts as one unit. What this
// runtime uniquely adds is the paper's parallel nesting: a single bulk
// operation (TMap.Snapshot, TMap.BulkUpdate, a TSortedMap scan)
// forks one child transaction per group of buckets or leaves via
// fork.Each, at most one group per worker of the runtime, so the bulk
// work runs on all worker slots while still being one atomic step of the
// enclosing transaction. Every fork site is priced by one table
// (internal/fork): a group must carry enough work to pay for its child,
// so a short scan wave runs as one nested child instead, and a counter's
// Sum never forks.
//
// Three structures ship today:
//
//   - TMap[K, V]: a bucketed hash map. Point operations (Get, Put,
//     Delete) touch one bucket; bulk operations fan out one
//     nested child per bucket group.
//   - TQueue[T]: a two-stack FIFO queue over persistent (immutable) cons
//     lists, so aborts never alias live state.
//   - TCounter: a striped counter. Add touches one stripe (concurrent
//     non-ancestor adders rarely collide); Sum reads all stripes in one
//     nested child.
//
// Every operation takes the caller's *pnstm.Ctx and may be called either
// inside an enclosing Atomic (the operation becomes a nested child and
// joins the caller's atom) or at block level (the operation runs as its
// own root transaction). Under pnstm.Config{Serial: true} the same
// programs run with serial nesting — Parallel degrades to sequential
// inline children — which is the baseline the benchmarks compare against.
//
// # Containers are copied, values are shared
//
// The structures keep their state with persistent-data-structure
// discipline: a transactional write stores a fresh copy of what it
// changes — a map bucket's hash-sorted entry slice, a sorted-map leaf, a
// list node — and never writes into a stored one, because the STM's
// rollback restores previous values by reference. The V/T payloads
// themselves are not copied: a value handed to Put/Push is stored as is
// and handed back as is, so callers must treat it as frozen. If a payload
// must be mutable, store a pointer to data guarded elsewhere or copy
// before mutating.
package stmlib
