#ifndef HILLVIEW_REACTIVE_OBSERVABLE_H_
#define HILLVIEW_REACTIVE_OBSERVABLE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hillview {

/// A partial result flowing up the execution tree: a summary over the
/// fraction `progress` of leaves completed so far. The stream of partial
/// results is monotone in `progress` and converges to the final summary.
///
/// `coverage` is the fault-tolerance dual of progress (§5.7's "results
/// obtained from the remaining machines"): the weighted fraction of leaf
/// partitions that are (still) contributing to this summary. It stays 1.0 on
/// the healthy path; an aggregation node running in degraded mode lowers it
/// when a child is lost for good, and the final value then reports exactly
/// which share of the data the summary covers. Unlike progress it is not
/// monotone — it only ever drops when a child is declared dead.
template <typename T>
struct PartialResult {
  double progress = 0.0;  // in [0, 1]; 1.0 accompanies the final value
  T value{};
  double coverage = 1.0;  // partitions merged / total partitions
};

/// Single-producer push stream with buffering: events pushed before a
/// subscriber attaches are replayed in order. This is the minimal slice of
/// Rx used by Hillview: OnNext* (partial results), then exactly one
/// OnComplete carrying a Status.
///
/// Thread-safe; exactly one subscriber is supported (the web-server root in
/// the real system). One capability-annotated mutex guards the buffer, the
/// callbacks and the completion state — partial results stream across worker
/// threads, and they must stay race-free for progressive rendering to be
/// trustworthy. The blocking helpers wait for completion; RunSketch reads
/// its query's final value through BlockingLast.
template <typename T>
class Stream {
 public:
  using NextFn = std::function<void(const T&)>;
  using DoneFn = std::function<void(const Status&)>;

  /// Producer side: push one event. The subscriber callback (if attached)
  /// runs synchronously under the stream lock, which guarantees events are
  /// observed in exactly the order they were produced. Callbacks must not
  /// re-enter the same stream (downstream streams are fine — lock order
  /// follows the dataflow and is acyclic).
  void OnNext(T value) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (done_) return;  // Events after completion are dropped.
    last_ = value;
    // No notify: blocked readers wait for completion only, and waking them
    // per event costs a context switch each.
    if (next_) {
      next_(value);
    } else {
      buffer_.push_back(std::move(value));
    }
  }

  /// Producer side: complete the stream (exactly once).
  void OnComplete(Status status) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (done_) return;
    done_ = true;
    final_status_ = status;
    if (done_fn_) done_fn_(status);
    cv_.NotifyAll();
  }

  /// Consumer side. Replays buffered events in order, then receives live
  /// events from producer threads; the shared lock makes the hand-off from
  /// replay to live delivery seamless.
  void Subscribe(NextFn next, DoneFn done = nullptr) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    next_ = std::move(next);
    done_fn_ = std::move(done);
    while (!buffer_.empty()) {
      if (next_) next_(buffer_.front());
      buffer_.pop_front();
    }
    if (done_ && done_fn_) done_fn_(final_status_);
  }

  /// Blocks until the producer completes and returns the last event seen
  /// (nullopt if the stream completed empty). With a `cancel` token the wait
  /// also ends as soon as the token flips: the stream is left running, and
  /// the caller checks the token to tell the two apart. The token is polled
  /// (every kCancelPollMs) because nobody notifies this stream's condvar when
  /// it flips: cancellation can originate in a different session.
  std::optional<T> BlockingLast(const CancellationTokenPtr& cancel = nullptr)
      EXCLUDES(mutex_) {
    constexpr double kCancelPollMs = 2.0;
    MutexLock lock(mutex_);
    while (!done_) {
      if (cancel == nullptr) {
        cv_.Wait(mutex_);
      } else if (cancel->IsCancelled()) {
        break;
      } else {
        cv_.WaitFor(mutex_, kCancelPollMs);
      }
    }
    return last_;
  }

  /// Blocks until completion and returns every buffered event (only valid if
  /// no Subscribe callback consumed them first).
  std::vector<T> BlockingCollect() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!done_) cv_.Wait(mutex_);
    std::vector<T> out(buffer_.begin(), buffer_.end());
    buffer_.clear();
    return out;
  }

  /// Final status; valid after completion.
  Status final_status() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return final_status_;
  }

  bool IsDone() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return done_;
  }

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<T> buffer_ GUARDED_BY(mutex_);
  std::optional<T> last_ GUARDED_BY(mutex_);
  NextFn next_ GUARDED_BY(mutex_);
  DoneFn done_fn_ GUARDED_BY(mutex_);
  Status final_status_ GUARDED_BY(mutex_);
  bool done_ GUARDED_BY(mutex_) = false;
};

template <typename T>
using StreamPtr = std::shared_ptr<Stream<T>>;

}  // namespace hillview

#endif  // HILLVIEW_REACTIVE_OBSERVABLE_H_
