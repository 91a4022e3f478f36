// TokenPool: a counting semaphore with a FIFO waiter queue and *runtime
// resize* semantics. This is the paper's "soft resource" in the abstract:
// a web/app server thread pool or an app-tier DB connection pool — the knob
// the ConScale software agent turns (§IV-A "Soft resource adaption").
//
// Resize semantics mirror what JMX-driven pool reconfiguration does in
// Tomcat: growing the pool admits queued waiters immediately; shrinking
// never interrupts a holder — capacity drains lazily as tokens are released.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "simcore/simulation.h"

namespace conscale {

class TokenPool {
 public:
  using GrantCallback = Callback;

  TokenPool(std::string name, std::size_t capacity);

  /// Requests a token. If one is free the callback fires synchronously
  /// (before acquire returns); otherwise the request queues FIFO.
  /// Returns a ticket id that can cancel a *queued* request.
  std::uint64_t acquire(GrantCallback on_grant);

  /// Cancels a queued (not yet granted) request. Returns true on success.
  bool cancel(std::uint64_t ticket);

  /// Returns one token and grants the head waiter, if any.
  void release();

  /// Runtime resize (soft-resource actuation). Growing grants waiters now;
  /// shrinking lets in-use tokens drain naturally.
  void resize(std::size_t capacity);

  /// Crash semantics: every holder is gone and every waiter is dropped
  /// (no callbacks fire). Capacity is kept — the pool is empty and free, as
  /// after a process restart. Callers must not release() tokens that were
  /// held across a reset.
  void reset();

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return in_use_; }
  std::size_t waiting() const { return queue_.size(); }
  std::size_t available() const {
    return in_use_ >= capacity_ ? 0 : capacity_ - in_use_;
  }

  /// Lifetime counters for tests and metrics.
  std::uint64_t total_grants() const { return total_grants_; }
  std::uint64_t total_queued() const { return total_queued_; }

 private:
  struct Waiter {
    std::uint64_t ticket;
    GrantCallback on_grant;
  };

  void grant_waiters();

  std::string name_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::deque<Waiter> queue_;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t total_grants_ = 0;
  std::uint64_t total_queued_ = 0;
  bool granting_ = false;
};

}  // namespace conscale
