//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size thread pool. The bootstrapping framework analyzes
/// pointer clusters independently of one another (the paper's key
/// parallelization claim), so the scheduler only needs fire-and-wait
/// batch semantics: submit N cluster jobs, wait for all of them.
///
/// Exception safety: a job that throws does not take the process down.
/// The first exception thrown by any job of a batch is captured and
/// rethrown from the next waitAll() call (first-error-wins); the
/// remaining queued jobs still drain, so waitAll() always returns (or
/// throws) with the pool quiescent and reusable. An error captured
/// after the last waitAll() survives shutdown() and is claimable via
/// takeError(); debug builds assert it was claimed before destruction.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_THREADPOOL_H
#define BSAA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bsaa {

/// Fixed-size pool of worker threads executing queued jobs.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (0 means hardware concurrency, min 1).
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains all pending work, then joins the workers (see shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Job for execution on some worker. Returns false (and
  /// does not enqueue) once shutdown() has begun: a job submitted after
  /// that point would never run, so silently accepting it is a bug.
  bool submit(std::function<void()> Job);

  /// Blocks until every submitted job has finished. If any job of the
  /// batch threw, rethrows the first captured exception (clearing it, so
  /// the pool stays usable for the next batch).
  ///
  /// waitAll() waits for *global* quiescence, not a per-caller batch:
  /// with several producers submitting concurrently (e.g. two tenants'
  /// drain paths sharing one pool), every waiter waits for all of them,
  /// and a captured error is delivered to whichever waiter rethrows
  /// first. Callers that need per-batch waiting or per-batch errors
  /// must track their own completion (the serving registry does --
  /// see serving/TenantRegistry.cpp) instead of calling waitAll().
  ///
  /// Calling waitAll() from one of this pool's own worker threads would
  /// deadlock -- the calling job itself counts in Pending, so the wait
  /// can never be satisfied. That call is detected and throws
  /// std::logic_error instead of hanging.
  void waitAll();

  /// Drains the queue, joins all workers, and rejects any further
  /// submit(). Idempotent; called by the destructor. An exception
  /// captured from a job but never observed via waitAll() survives
  /// shutdown and stays claimable through takeError() -- it is never
  /// silently discarded.
  void shutdown();

  /// Claims the first captured-but-unobserved job exception (null if
  /// none), clearing it. This is the post-shutdown() counterpart of
  /// waitAll()'s rethrow: the destructor must not throw, so callers
  /// that skip the final waitAll() collect the error here instead. In
  /// debug builds the destructor asserts that no error is left
  /// unclaimed.
  std::exception_ptr takeError();

private:
  void workerLoop();

  /// True when the calling thread is one of this pool's workers.
  bool onWorkerThread() const;

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Jobs;
  std::mutex Mutex;
  std::condition_variable JobAvailable;
  std::condition_variable AllDone;
  unsigned Pending = 0; ///< Queued + running jobs.
  bool ShuttingDown = false;
  std::exception_ptr FirstError; ///< First job exception of the batch.
};

} // namespace bsaa

#endif // BSAA_SUPPORT_THREADPOOL_H
