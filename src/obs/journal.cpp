#include "obs/journal.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/sync.hpp"

namespace nsrel::obs {

namespace {
thread_local std::uint64_t tls_scope = 0;
}  // namespace

EventArg& Event::next_arg() {
  // Past capacity, overwrite the last slot: a probe never throws, and a
  // clobbered trailing arg is more useful than a crashed run.
  const std::uint32_t slot =
      arg_count < kMaxEventArgs ? arg_count++ : kMaxEventArgs - 1;
  return args[slot];
}

Event& Event::arg(const char* key, std::uint64_t value) {
  EventArg& a = next_arg();
  a.key = key;
  a.kind = EventArg::Kind::kUint;
  a.uint_value = value;
  return *this;
}

Event& Event::arg(const char* key, double value) {
  EventArg& a = next_arg();
  a.key = key;
  a.kind = EventArg::Kind::kDouble;
  a.double_value = value;
  return *this;
}

Event& Event::arg(const char* key, const char* literal) {
  EventArg& a = next_arg();
  a.key = key;
  a.kind = EventArg::Kind::kLiteral;
  a.literal_value = literal;
  return *this;
}

std::uint64_t current_scope() { return tls_scope; }

ScopeGuard::ScopeGuard(std::uint64_t scope) : saved_(tls_scope) {
  tls_scope = scope;
}

ScopeGuard::~ScopeGuard() { tls_scope = saved_; }

Event seq_event(const char* name) {
  Event event;
  event.name = name;
  event.domain = ClockDomain::kSequence;
  event.seq = tls_scope;
  return event;
}

Event sim_event(const char* name, std::uint64_t seq, double sim_seconds) {
  Event event;
  event.name = name;
  event.domain = ClockDomain::kSimTime;
  event.seq = seq;
  event.sim_seconds = sim_seconds;
  return event;
}

/// One thread's private ring. Only the owning thread writes; the
/// contents are read either by that same thread (drain) or under the
/// journal mutex after the owner has exited (retire) — the thread join
/// provides the happens-before edge, so the slots need no atomics.
struct Journal::Ring {
  std::array<Event, kRingCapacity> slots;
  std::size_t next = 0;      ///< write cursor (wraps)
  std::size_t count = 0;     ///< live events, <= kRingCapacity
  std::uint64_t dropped = 0; ///< oldest events overwritten

  void push(const Event& event) {
    if (count == kRingCapacity) ++dropped;
    else ++count;
    slots[next] = event;
    next = (next + 1) % kRingCapacity;
  }

  void reset() {
    next = 0;
    count = 0;
    dropped = 0;
  }
};

/// Thread-local ring ownership, mirroring the registry's ShardHolder:
/// acquired lazily on the first event a thread records, folded into the
/// committed list and returned to the free list at thread exit. At
/// namespace scope so the Journal friend declaration names this type.
struct RingHolder {
  Journal::Ring* ring = nullptr;
  ~RingHolder() {
    if (ring != nullptr) Journal::instance().retire(ring);
  }
};

namespace {
thread_local RingHolder tls_ring;
}  // namespace

Journal& Journal::instance() {
  static Journal* leaked = new Journal;  // never destroyed, see header
  return *leaked;
}

void Journal::begin() {
  clear();
  set_armed(kJournalSink, true);
}

void Journal::disable() { set_armed(kJournalSink, false); }

void Journal::clear() {
  const util::MutexLock lock(mutex_);
  for (const auto& ring : owned_) ring->reset();
  committed_.clear();
  dropped_ = 0;
}

Journal::Ring& Journal::local_ring() {
  if (tls_ring.ring == nullptr) {
    const util::MutexLock lock(mutex_);
    if (!free_.empty()) {
      tls_ring.ring = free_.back();
      free_.pop_back();
    } else {
      owned_.push_back(std::make_unique<Ring>());
      tls_ring.ring = owned_.back().get();
    }
    active_.push_back(tls_ring.ring);
  }
  return *tls_ring.ring;
}

void Journal::retire(Ring* ring) {
  const util::MutexLock lock(mutex_);
  flush_locked(*ring);
  active_.erase(std::find(active_.begin(), active_.end(), ring));
  free_.push_back(ring);
}

/// Appends `ring`'s events to the committed list oldest-first and
/// resets it. Caller holds the mutex and owns the ring's contents
/// (it is the writing thread, or the writer has been joined).
void Journal::flush_locked(Ring& ring) {
  const std::size_t start =
      (ring.next + kRingCapacity - ring.count) % kRingCapacity;
  for (std::size_t i = 0; i < ring.count; ++i) {
    committed_.push_back(ring.slots[(start + i) % kRingCapacity]);
  }
  dropped_ += ring.dropped;
  ring.reset();
}

void Journal::record(const Event& event) {
  if (!enabled()) return;
  local_ring().push(event);
}

void Journal::drain() {
  if (tls_ring.ring == nullptr) return;
  const util::MutexLock lock(mutex_);
  flush_locked(*tls_ring.ring);
}

std::vector<Event> Journal::events() const {
  const util::MutexLock lock(mutex_);
  std::vector<Event> sorted = committed_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return sorted;
}

std::uint64_t Journal::dropped() const {
  const util::MutexLock lock(mutex_);
  return dropped_;
}

}  // namespace nsrel::obs
