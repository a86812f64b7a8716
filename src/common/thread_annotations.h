// Portable Clang Thread Safety Analysis annotations.
//
// The locking disciplines in this codebase (per-shard PayloadStore mutexes,
// the MergeServer session/fanout split, the obs registries, the engine's
// control-op queue) are *compile-time checked* invariants, not comments:
// every mutex is an annotated lmerge::Mutex (common/mutex.h), every member
// it protects carries LM_GUARDED_BY, and every function that expects a lock
// held carries LM_REQUIRES.  Building with
//
//   clang++ -Wthread-safety -Werror=thread-safety
//
// (the `static-analysis` CI job; enabled automatically whenever the compiler
// is Clang) turns any unlocked access, double-acquire, or forgotten release
// into a build error on every path — including interleavings TSan never
// schedules.  Under GCC the macros expand to nothing and the annotations
// are pure documentation.
//
// Naming follows the Clang attribute names with an LM_ prefix; see
// docs/STATIC_ANALYSIS.md for the how-to and
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.

#ifndef LMERGE_COMMON_THREAD_ANNOTATIONS_H_
#define LMERGE_COMMON_THREAD_ANNOTATIONS_H_

// 1 when the compiler implements the analysis (Clang), 0 otherwise.  Tests
// assert this tracks the compiler so a toolchain change cannot silently turn
// the annotations off.
#if defined(__clang__) && !defined(SWIG)
#define LMERGE_THREAD_SAFETY_ENABLED 1
#else
#define LMERGE_THREAD_SAFETY_ENABLED 0
#endif

#if LMERGE_THREAD_SAFETY_ENABLED
#define LM_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define LM_THREAD_ANNOTATION__(x)  // no-op
#endif

// --- Capability (mutex) declarations ---

// Marks a class as a capability ("mutex" names it in diagnostics).
#define LM_CAPABILITY(x) LM_THREAD_ANNOTATION__(capability(x))

// Marks an RAII class whose lifetime acquires/releases a capability.
#define LM_SCOPED_CAPABILITY LM_THREAD_ANNOTATION__(scoped_lockable)

// --- Data annotations ---

// Member access requires holding capability `x`.
#define LM_GUARDED_BY(x) LM_THREAD_ANNOTATION__(guarded_by(x))

// Dereferencing this pointer member requires holding capability `x` (the
// pointer itself may be read freely).
#define LM_PT_GUARDED_BY(x) LM_THREAD_ANNOTATION__(pt_guarded_by(x))

// --- Lock-ordering annotations (checked with -Wthread-safety-beta) ---

#define LM_ACQUIRED_BEFORE(...) \
  LM_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define LM_ACQUIRED_AFTER(...) \
  LM_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

// --- Function annotations ---

// Caller must hold the capability (exclusively / shared) on entry; it is
// still held on return.
#define LM_REQUIRES(...) \
  LM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define LM_REQUIRES_SHARED(...) \
  LM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// Function acquires / releases the capability itself.
#define LM_ACQUIRE(...) \
  LM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define LM_ACQUIRE_SHARED(...) \
  LM_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define LM_RELEASE(...) \
  LM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define LM_RELEASE_SHARED(...) \
  LM_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

// Function acquires the capability iff it returns `b`.
#define LM_TRY_ACQUIRE(...) \
  LM_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (deadlock prevention: e.g. the merge
// thread's fan-out path must never hold the server session lock).
#define LM_EXCLUDES(...) LM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Function returns a reference to the named capability.
#define LM_RETURN_CAPABILITY(x) LM_THREAD_ANNOTATION__(lock_returned(x))

// Runtime assertion that the capability is held (informs the analysis).
#define LM_ASSERT_CAPABILITY(x) \
  LM_THREAD_ANNOTATION__(assert_capability(x))

// Escape hatch: disables the analysis for one function.  Every use must
// carry a comment explaining why the discipline cannot be expressed.
#define LM_NO_THREAD_SAFETY_ANALYSIS \
  LM_THREAD_ANNOTATION__(no_thread_safety_analysis)

// --- Whole-program contracts checked by tools/analyzer/lmerge_analyze ---
//
// Clang's per-function thread-safety pass cannot see call-graph-wide
// properties; these annotations feed the project analyzer instead
// (tools/analyzer/, the `analyzer` / `analyzer_self_test` ctest entries).
// Under Clang they become `annotate` attributes the LibTooling extractor
// reads from the AST; the fallback frontend matches the macro tokens, so
// both backends see the same contract.  Under GCC they compile to nothing.

// The function mutates merge state owned by the merge thread and may only
// be reached from ConcurrentMerger::MergeLoop (directly or through a
// control op / CallOnMergeThread callee).  The analyzer proves no IO-loop,
// session, fanout, or HttpExporter entry point reaches it; legitimate
// pre-thread exceptions (checkpoint restore before the merge thread
// exists) are declared in tools/analyzer/analyzer_config.json with a
// reason.
#define LM_MERGE_THREAD_ONLY \
  LM_THREAD_ANNOTATION__(annotate("lmerge::merge_thread_only"))

// The function is on the per-element hot path (ProcessBatch, ring drains,
// serialize-once encode).  The analyzer
// rejects transitive heap allocation (operator new, malloc-family,
// unreserved container growth) reachable from it unless the site is in the
// machine-readable allowlist with a justification (amortized index growth,
// once-per-batch buffers).
#define LM_HOT_PATH LM_THREAD_ANNOTATION__(annotate("lmerge::hot_path"))

#endif  // LMERGE_COMMON_THREAD_ANNOTATIONS_H_
