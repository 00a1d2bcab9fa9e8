// Cooperative execution control for anytime matching runs (§7 future work:
// improving time-to-first good mapping requires an API that can *stop*).
//
// A matching run is no longer all-or-nothing: callers hand MatchWithState an
// ExecutionControl carrying a shared CancelToken, an absolute wall-clock
// deadline, and an early-exit mapping budget. The generator inner loops poll
// an ExecutionMonitor at node-expansion granularity, so a run stops within
// one candidate trial of the signal and returns everything found so far with
// a typed terminal status (MatchResult::execution).
//
// This header is deliberately dependency-free (std only): the generate layer
// includes it without pulling in the rest of core.
#ifndef XSM_CORE_EXECUTION_CONTROL_H_
#define XSM_CORE_EXECUTION_CONTROL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>

namespace xsm::obs {
class TraceContext;  // obs/trace.h — forward-declared to stay std-only
}  // namespace xsm::obs

namespace xsm::core {

/// Why a matching run stopped.
enum class ExecutionStatus {
  kCompleted = 0,         ///< ran to the natural end of the search
  kCancelled = 1,         ///< CancelToken fired
  kDeadlineExceeded = 2,  ///< wall-clock deadline passed
  kEarlyStopped = 3,      ///< stop_after_n_mappings budget reached
};

/// Stable lowercase name: "completed", "cancelled", "deadline_exceeded",
/// "early_stopped".
std::string_view ExecutionStatusName(ExecutionStatus status);

/// Shared cancellation flag. Copies share one flag, so a caller keeps a
/// token, hands a copy to the run (possibly on another thread), and flips
/// both with one Cancel(). Thread-safe; cancellation is sticky.
class CancelToken {
 public:
  CancelToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { cancelled_->store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Flow-control limits of one matching run. Default-constructed: unlimited
/// (the run behaves exactly like the historical blocking API).
struct ExecutionControl {
  /// Cooperative cancellation; keep a copy to Cancel() from another thread.
  CancelToken cancel;

  /// Absolute wall-clock deadline. Absolute (not a duration) so queue wait
  /// in a serving layer counts against it.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Stop after this many mappings (Δ ≥ δ) have been emitted; 0 = no limit.
  /// The run keeps the mappings found and reports kEarlyStopped only if the
  /// budget actually cut the search short.
  uint64_t stop_after_n_mappings = 0;

  /// Per-query span collector (obs/trace.h); nullptr = tracing off. Not
  /// part of any cache key — purely observational. Instrumented stages
  /// are null-safe, so the untraced path pays one pointer test.
  obs::TraceContext* trace = nullptr;

  /// Convenience: a control whose deadline is `seconds` from now.
  static ExecutionControl WithDeadline(double seconds);

  /// True if any limit is configured (a cancel token always is).
  bool limited() const {
    return deadline.has_value() || stop_after_n_mappings != 0;
  }
};

/// Per-run polling state over one ExecutionControl, shared by every
/// generator call of the run. ShouldStop() is the hot-path check: the cancel
/// flag (one relaxed atomic load) and the mapping budget are checked every
/// call, the clock only every kDeadlineStride calls. The first non-OK
/// verdict is sticky. Not thread-safe — one monitor per run, polled from the
/// run's own thread.
class ExecutionMonitor {
 public:
  /// No control: never stops (blocking behaviour).
  ExecutionMonitor() = default;
  /// `control` must outlive the monitor.
  explicit ExecutionMonitor(const ExecutionControl& control)
      : control_(&control) {}

  /// Returns true when the run must stop, recording why in status().
  bool ShouldStop();

  /// Records one emitted mapping: advances the early-stop budget and fires
  /// on_emit. Called by the generators right after appending to the output.
  void RecordEmitted() {
    ++emitted_;
    if (on_emit) on_emit();
  }

  /// Records one emitted partial mapping (observer hook only; partial
  /// mappings do not consume the stop_after_n_mappings budget).
  void RecordPartialEmitted() {
    if (on_partial_emit) on_partial_emit();
  }

  ExecutionStatus status() const { return status_; }
  bool stopped() const { return status_ != ExecutionStatus::kCompleted; }
  uint64_t emitted() const { return emitted_; }

  /// Adaptive top-N floor: with MatchOptions::adaptive_top_n, the N-th best
  /// Δ the run has emitted so far (−∞ until N mappings are known). The
  /// branch-and-bound generator reads it at every bound check and emission
  /// test as max(δ, floor), so a cluster's search tightens the moment a
  /// better mapping enters the running top N. Only ever rises.
  double delta_floor() const { return delta_floor_; }
  void RaiseDeltaFloor(double floor) {
    delta_floor_ = std::max(delta_floor_, floor);
  }

  /// Fired by RecordEmitted / RecordPartialEmitted; the new mapping is the
  /// last element of the run's output vector. Wired to MatchObserver by
  /// Bellflower; empty by default.
  std::function<void()> on_emit;
  std::function<void()> on_partial_emit;

 private:
  /// Node expansions between deadline clock reads. The first ShouldStop()
  /// reads the clock immediately, so an already-expired deadline stops the
  /// run before any work.
  static constexpr uint32_t kDeadlineStride = 128;

  const ExecutionControl* control_ = nullptr;
  ExecutionStatus status_ = ExecutionStatus::kCompleted;
  uint64_t emitted_ = 0;
  uint32_t until_clock_check_ = 0;
  double delta_floor_ = -std::numeric_limits<double>::infinity();
};

}  // namespace xsm::core

#endif  // XSM_CORE_EXECUTION_CONTROL_H_
