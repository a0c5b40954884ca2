#ifndef HILLVIEW_UTIL_THREAD_POOL_H_
#define HILLVIEW_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace hillview {

/// Fixed-size worker pool. Hillview runs one leaf dataset per micropartition
/// and schedules their summarize() calls on a shared pool (§5.3: "there is a
/// thread pool that serves leafs with work to do").
///
/// Cancellation needs no lane of its own: queued tasks poll their token when
/// they are dequeued (and summarizes at every morsel boundary), so a
/// cancelled query's work drains without running.
///
/// Locking discipline (checked by -Wthread-safety): `mutex_` guards the
/// queue, the active-task count and the shutdown flag; both condition
/// variables are signalled against it, and every predicate over guarded
/// state is evaluated with the lock held.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    if (num_threads < 1) num_threads = 1;
    threads_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks run FIFO. Returns false when the pool is shut
  /// down and the task was dropped — callers coordinating through completion
  /// latches must then run the task themselves.
  bool Submit(std::function<void()> task) EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (shutdown_) return false;
      queue_.push_back(std::move(task));
    }
    cv_.NotifyOne();
    return true;
  }

  /// Blocks until every task submitted so far has finished.
  void Wait() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!(queue_.empty() && active_ == 0)) idle_cv_.Wait(mutex_);
  }

  /// Stops accepting work, drains in-flight tasks, joins threads. Idempotent.
  void Shutdown() EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (shutdown_) return;
      shutdown_ = true;
    }
    cv_.NotifyAll();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  /// Blocks until a task is available (fills `*task`, increments `active_`,
  /// returns true) or the pool is shut down with an empty queue (returns
  /// false). Shutdown with queued work still hands out tasks: the pool
  /// drains. The predicate over `queue_`/`shutdown_` is evaluated under the
  /// lock the annotation requires.
  bool PopTask(std::function<void()>* task) REQUIRES(mutex_) {
    while (queue_.empty() && !shutdown_) cv_.Wait(mutex_);
    if (queue_.empty()) return false;
    *task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    return true;
  }

  void WorkerLoop() EXCLUDES(mutex_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mutex_);
        if (!PopTask(&task)) return;
      }
      task();
      // Destroy the closure BEFORE reporting idle: task closures own shared
      // state (streams, merge trees, worker references), and a Wait()er must
      // be able to assume all of it is released — not merely finished — or a
      // closure holding the last reference to an object gets destroyed on
      // this pool thread after Wait() returned, racing teardown (worst case:
      // destroying this pool's own Worker here, a self-join).
      task = nullptr;
      {
        MutexLock lock(mutex_);
        --active_;
        if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
      }
    }
  }

  Mutex mutex_;
  CondVar cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;
  int active_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

/// Runs `fn(0) .. fn(num_items - 1)` with the pool's threads *and the calling
/// thread working together*, returning once every item has finished. Items
/// are claimed from a shared counter, so uneven item costs still balance.
///
/// The caller participates, which is what makes this safe to run on the SAME
/// pool the caller occupies: the caller never parks waiting for queue
/// capacity, only for items that some thread is actively executing — so even
/// when every pool thread is blocked inside its own ParallelApply (nested
/// fan-out on a saturated pool), each caller drains its own items and
/// terminates. Helper tasks that wake up after all items are claimed exit
/// immediately. `fn` must not block on work queued behind it on the same
/// pool.
///
/// Item index order across threads is unspecified; callers needing a
/// deterministic result must combine per-item outputs by item index (write
/// into a pre-sized slot array), never by completion order.
inline void ParallelApply(ThreadPool* pool, int num_items,
                          const std::function<void(int)>& fn) {
  if (num_items <= 0) return;
  if (pool == nullptr || num_items == 1 || pool->num_threads() < 1) {
    for (int i = 0; i < num_items; ++i) fn(i);
    return;
  }
  // Heap-shared state: helper tasks can outlive this call (they may be
  // dequeued after every item is claimed and finished), so the latch cannot
  // live on the caller's stack. `fn` itself is only dereferenced for claimed
  // items, all of which complete before the caller returns.
  struct State {
    Mutex mu;
    CondVar done_cv;
    int next GUARDED_BY(mu) = 0;
    int done GUARDED_BY(mu) = 0;
    int total = 0;
    const std::function<void(int)>* fn = nullptr;
  };
  auto state = std::make_shared<State>();
  state->total = num_items;
  state->fn = &fn;
  auto run_items = [state] {
    for (;;) {
      int item;
      {
        MutexLock lock(state->mu);
        if (state->next >= state->total) return;
        item = state->next++;
      }
      (*state->fn)(item);
      MutexLock lock(state->mu);
      if (++state->done == state->total) state->done_cv.NotifyAll();
    }
  };
  // The caller is one worker already; extra helpers beyond num_items - 1
  // would only wake up to find nothing left. A shut-down pool drops the
  // submission and the caller simply runs everything itself.
  const int helpers = std::min(pool->num_threads(), num_items - 1);
  for (int h = 0; h < helpers; ++h) {
    if (!pool->Submit(run_items)) break;
  }
  run_items();
  MutexLock lock(state->mu);
  while (state->done < state->total) state->done_cv.Wait(state->mu);
}

}  // namespace hillview

#endif  // HILLVIEW_UTIL_THREAD_POOL_H_
