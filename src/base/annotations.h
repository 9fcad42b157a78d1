// Thread-safety capability annotations: the vocabulary of the repo's
// concurrency contract.
//
// Two kinds of shared state exist in this tree, and each gets its own
// statically checkable marking:
//
//  1. *Lock-protected* state — the ShardBarrier phase fields, and the
//     process-wide Zeta cache that shards share at set-up. These carry Clang
//     thread-safety capability attributes: the mutex is declared a
//     capability (NOMAD_CAPABILITY), the fields it protects are
//     NOMAD_GUARDED_BY it, and the accessors spell their locking protocol
//     with NOMAD_ACQUIRE/NOMAD_RELEASE/NOMAD_REQUIRES. Clang's
//     -Wthread-safety analysis (promoted to -Werror in CI's clang builds)
//     then rejects any unlocked access at compile time. See
//     src/base/mutex.h for the annotated std::mutex wrappers the analysis
//     understands.
//
//  2. *Shard-confined* state — everything a Sim owns (MemorySystem, frame
//     pool, counters, trace sink, PCQ, admission controller, ...). These
//     are single-threaded by construction: exactly one worker thread
//     drives a shard during an epoch, and shards exchange nothing: the
//     lockstep controller reads each shard's report record only inside
//     the epoch barrier's completion. No mutex exists to annotate, so
//     the marking is NOMAD_SHARD_CONFINED — an `annotate` attribute on
//     clang (visible to AST tools), nothing on other compilers — which
//     seeds tools/nomad_analyze's ownership map. The analyzer rejects
//     pointers to confined state escaping into cross-thread lambdas or
//     static storage, and cross-shard access outside the lockstep
//     runtime's entry points.
//
// Every macro compiles to nothing on non-Clang compilers (and under
// SWIG-style tooling that chokes on GNU attributes), so GCC builds see
// plain C++.
//
// Naming follows the Clang thread-safety documentation and Abseil's
// thread_annotations.h so the vocabulary is familiar; the NOMAD_ prefix
// keeps the repo's single-namespace convention.
#ifndef SRC_BASE_ANNOTATIONS_H_
#define SRC_BASE_ANNOTATIONS_H_

#if defined(__clang__)
#define NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op on GCC and friends
#endif

// --- capability declarations -------------------------------------------

// Declares a type to be a capability ("mutex" in every use here). Lock()
// acquires the capability, Unlock() releases it; the analysis tracks which
// capabilities are held at every statement.
#define NOMAD_CAPABILITY(x) NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

// Declares an RAII type whose constructor acquires and destructor releases
// a capability (MutexLock in src/base/mutex.h).
#define NOMAD_SCOPED_CAPABILITY NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

// --- data annotations ---------------------------------------------------

// The field may only be read or written while holding capability x.
#define NOMAD_GUARDED_BY(x) NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

// The *pointee* of this pointer field may only be dereferenced while
// holding capability x (the pointer itself is unguarded).
#define NOMAD_PT_GUARDED_BY(x) NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

// Lock-ordering declarations (deadlock prevention).
#define NOMAD_ACQUIRED_BEFORE(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define NOMAD_ACQUIRED_AFTER(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

// --- function annotations ----------------------------------------------

// The caller must hold the capability when calling; the function neither
// acquires nor releases it.
#define NOMAD_REQUIRES(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

// The function acquires / releases the capability and holds it past the
// call boundary (the bread and butter of Lock()/Unlock() wrappers).
#define NOMAD_ACQUIRE(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define NOMAD_RELEASE(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define NOMAD_TRY_ACQUIRE(...) \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

// The caller must NOT already hold the capability (non-reentrancy).
#define NOMAD_EXCLUDES(...) NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

// The function returns a reference to the given capability.
#define NOMAD_RETURN_CAPABILITY(x) NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

// Escape hatch: disables the analysis inside one function. Every use needs
// a comment saying which out-of-band mechanism provides the exclusion.
#define NOMAD_NO_THREAD_SAFETY_ANALYSIS \
  NOMAD_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

// --- shard confinement ---------------------------------------------------

// Marks a class whose instances belong to exactly one shard (or to the
// single-threaded setup/merge phases): only the worker thread currently
// driving the owning shard may touch them, and pointers/references to them
// must never cross a shard boundary — not through by-reference lambda
// captures handed to other threads, not through static storage. There is no runtime token to check, so the
// attribute exists for tools: clang records it in the AST (an `annotate`
// attribute), and tools/nomad_analyze seeds its ownership map from it,
// then closes the map over the marked classes' member object graphs
// (everything a Sim owns is confined with it).
#if defined(__clang__)
#define NOMAD_SHARD_CONFINED __attribute__((annotate("nomad::shard_confined")))
#else
#define NOMAD_SHARD_CONFINED
#endif

#endif  // SRC_BASE_ANNOTATIONS_H_
