#ifndef VAQ_CORE_CANCEL_H_
#define VAQ_CORE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace vaq {

/// Thrown by a query that observed its `CancelToken` expired — either an
/// explicit `Cancel()` or a missed deadline. A *typed* abort: the engine
/// delivers it through the query's future, the sharded gather rethrows
/// it over any leg error, and the CLI maps it to its own exit code.
/// Carries no partial results by design — an aborted query's output is
/// undefined, so callers only ever see all-or-nothing.
class QueryAbortedError : public std::runtime_error {
 public:
  enum class Reason { kCancelled, kDeadline };

  explicit QueryAbortedError(Reason reason)
      : std::runtime_error(reason == Reason::kDeadline
                               ? "query aborted: deadline exceeded"
                               : "query aborted: cancelled"),
        reason_(reason) {}

  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

/// Cooperative cancellation + deadline for one query execution.
///
/// Queries never block on the token; they poll it at block boundaries
/// (every `kRefineBlock` candidates in the shared refine kernel, every
/// generation of the Voronoi flood), so an abort is observed within
/// O(one block) of work after it becomes effective — the deadline bound
/// `bench_fault_tail` measures.
///
/// Tokens chain: a scatter leg's token carries a pointer to the parent
/// query's token, so cancelling (or timing out) the parent aborts every
/// leg without touching them individually. The parent must outlive the
/// child's use — the scatter gather guarantees it by draining every leg
/// before its own frame unwinds.
///
/// Thread safety: `Cancel()`/`Expired()` may race freely (one relaxed
/// atomic); `SetDeadline`/`set_parent` are configuration and must happen
/// before the token is shared.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  /// Requests cancellation; takes effect at the next poll.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  void SetDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Links this token under `parent`: the child is expired whenever the
  /// parent is. Null unlinks.
  void set_parent(const CancelToken* parent) { parent_ = parent; }

  /// Whether the query should stop: cancelled, past deadline, or an
  /// ancestor expired. One relaxed load when nothing else is configured;
  /// the clock read happens only for tokens that carry a deadline.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && Clock::now() >= deadline_) return true;
    return parent_ != nullptr && parent_->Expired();
  }

  /// Polls and throws the matching `QueryAbortedError` when expired — the
  /// check the kernels place at block boundaries.
  void Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      throw QueryAbortedError(QueryAbortedError::Reason::kCancelled);
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      throw QueryAbortedError(QueryAbortedError::Reason::kDeadline);
    }
    if (parent_ != nullptr) parent_->Check();
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
};

}  // namespace vaq

#endif  // VAQ_CORE_CANCEL_H_
