#include "repair/repair.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "brick/object_store.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/probe_names.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nsrel::repair {

namespace {

using brick::Chunk;
using brick::ObjectStore;
using brick::ShardLocation;
using brick::StripeRef;
using brick::StripeStatus;

struct RepairProbes {
  obs::Counter shards_repaired;
  obs::Counter replans;
  obs::Counter retries;
  obs::Counter injected_faults;
  obs::Counter stripes_failed;
};

RepairProbes repair_probes() {
  auto& registry = obs::Registry::instance();
  return {registry.counter(obs::probe::kRepairShardsRepaired),
          registry.counter(obs::probe::kRepairReplans),
          registry.counter(obs::probe::kRepairRetries),
          registry.counter(obs::probe::kRepairInjectedFaults),
          registry.counter(obs::probe::kRepairStripesFailed)};
}

std::string stripe_label(const StripeRef& ref) {
  return "object " + std::to_string(ref.object) + " stripe " +
         std::to_string(ref.stripe);
}

/// The whole mutable state of one run. Everything here is read and
/// written only from the serial phases; the parallel decode phase sees
/// the store read-only and its own result slot.
class Run {
 public:
  Run(ObjectStore& store, const FaultSchedule& schedule,
      const RepairOptions& options)
      : store_(store), options_(options) {
    jobs_ = options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
    NSREL_EXPECTS(jobs_ >= 1);
    NSREL_EXPECTS(options.max_retries >= 0);
    NSREL_EXPECTS(options.retry_backoff_seconds >= 0.0);
    NSREL_EXPECTS(options.timing.bytes_per_second > 0.0);
    for (const FaultEvent& event : schedule.events) {
      events_.push_back({event, false});
    }
    if (jobs_ > 1) pool_.emplace(jobs_);
  }

  RepairReport execute() {
    obs::Probe run_span(obs::layer::kRepairRun);
    enqueue_degraded();
    while (true) {
      if (fire_due_events()) {
        replan();
        barrier_callback();
        continue;
      }
      if (pending_.empty()) {
        if (const std::optional<double> next = next_time_event()) {
          // Idle with time-triggered faults still pending: let simulated
          // idle time pass to the next trigger instead of compressing
          // the rest of the schedule into one instant.
          sim_time_ = std::max(sim_time_, *next);
          if (fire_due_events()) {
            replan();
            barrier_callback();
            continue;
          }
        }
        if (fire_remaining_events()) {
          replan();
          barrier_callback();
          continue;
        }
        break;
      }
      const std::vector<RepairTask> batch = form_batch();
      if (batch.empty()) continue;
      const std::vector<Expected<std::vector<Chunk>>> decoded =
          decode_batch(batch);
      commit_batch(batch, decoded);
      barrier_callback();
    }
    report_.duration_seconds = sim_time_;
    // Final join: decode workers never journal, so every event is in
    // the serial thread's ring (or already committed at a barrier).
    if (obs::Journal::enabled()) obs::Journal::instance().drain();
    run_span.arg("stripes",
                 static_cast<std::uint64_t>(report_.stripes_attempted));
    run_span.arg("shards", static_cast<std::uint64_t>(report_.shards_repaired));
    run_span.arg("faults", report_.injected_faults);
    return std::move(report_);
  }

 private:
  struct ScheduledEvent {
    FaultEvent event;
    bool fired = false;
  };

  [[nodiscard]] double chunk_bytes() const {
    return store_.params().chunk_size.value();
  }
  [[nodiscard]] int data_shards() const {
    return store_.params().redundancy_set_size -
           store_.params().fault_tolerance;
  }

  [[nodiscard]] double task_duration(std::size_t lost) const {
    const double bytes =
        (static_cast<double>(data_shards()) + static_cast<double>(lost)) *
        chunk_bytes();
    return bytes / options_.timing.bytes_per_second;
  }

  /// (Re)builds the pending queue from every currently degraded stripe,
  /// skipping stripes already reported as permanently lost. Carries the
  /// cumulative retry count so retries stay bounded across re-plans.
  void enqueue_degraded() {
    pending_.clear();
    for (const StripeRef& ref : store_.degraded_stripes()) {
      if (failed_stripes_.contains(ref)) continue;
      RepairTask task;
      task.stripe = ref;
      task.retries = cumulative_retries_[ref];
      pending_.push_back(std::move(task));
      attempted_stripes_.insert(ref);
    }
    report_.stripes_attempted = attempted_stripes_.size();
  }

  void replan() {
    const std::uint64_t invalidated =
        static_cast<std::uint64_t>(pending_.size());
    enqueue_degraded();
    report_.replans += invalidated;
    if (invalidated != 0 && obs::Registry::enabled()) {
      obs::Registry::instance().add(repair_probes().replans, invalidated);
    }
    if (invalidated != 0 && obs::Journal::enabled()) {
      obs::Journal::instance().record(
          obs::sim_event(obs::event::kRepairReplan, ++event_seq_, sim_time_)
              .arg("invalidated", invalidated));
    }
  }

  bool apply_fault(const FaultEvent& event) {
    const bool changed =
        event.kind == FaultKind::kNode
            ? store_.fail_node(event.node)
            : store_.fail_drive(event.node, event.drive);
    if (changed) {
      ++report_.injected_faults;
      if (obs::Registry::enabled()) {
        obs::Registry::instance().add(repair_probes().injected_faults);
      }
    }
    if (obs::Journal::enabled()) {
      obs::Event journal_event =
          obs::sim_event(obs::event::kRepairFault, ++event_seq_, sim_time_)
              .arg("node", static_cast<std::uint64_t>(event.node));
      if (event.kind == FaultKind::kDrive) {
        journal_event.arg("drive", static_cast<std::uint64_t>(event.drive));
      }
      journal_event.arg("applied", static_cast<std::uint64_t>(changed ? 1 : 0));
      obs::Journal::instance().record(journal_event);
    }
    return changed;
  }

  [[nodiscard]] bool event_due(const FaultEvent& event) const {
    switch (event.trigger) {
      case TriggerKind::kBeforeTask:
        return committed_ >= event.index;
      case TriggerKind::kAfterTask:
        return committed_ >= event.index + 1;
      case TriggerKind::kAtTime:
        return sim_time_ >= event.time_seconds;
    }
    return false;
  }

  /// Fires every schedule event whose trigger is satisfied at this
  /// barrier, in list order. Returns true when any event fired (the
  /// caller re-plans; even a no-op fault consumed its schedule slot).
  bool fire_due_events() {
    bool fired = false;
    for (ScheduledEvent& scheduled : events_) {
      if (scheduled.fired || !event_due(scheduled.event)) continue;
      scheduled.fired = true;
      fired = true;
      (void)apply_fault(scheduled.event);
    }
    return fired;
  }

  /// End-of-run barrier: events whose trigger never came due (a task
  /// index past the plan, a time past the last commit) still fire, so a
  /// compressed schedule never drops a failure.
  bool fire_remaining_events() {
    bool fired = false;
    for (ScheduledEvent& scheduled : events_) {
      if (scheduled.fired) continue;
      scheduled.fired = true;
      fired = true;
      (void)apply_fault(scheduled.event);
    }
    return fired;
  }

  /// Every batch boundary lands here, with the store consistent and
  /// the simulated clock advanced. The barrier's journal event carries
  /// the serial sequence that foreground work observes as its scope, so
  /// degraded-read/failed-read events emitted by the callback sort
  /// directly after the barrier that served them. The drain is safe:
  /// decode workers never journal, so the serial ring holds everything.
  void barrier_callback() {
    const std::uint64_t seq = ++event_seq_;
    if (obs::Journal::enabled()) {
      obs::Journal::instance().record(
          obs::sim_event(obs::event::kRepairBarrier, seq, sim_time_)
              .arg("batch", ++barrier_index_)
              .arg("committed", committed_));
    } else {
      ++barrier_index_;
    }
    {
      const obs::ScopeGuard journal_scope(seq);
      if (options_.on_barrier) options_.on_barrier(store_, sim_time_);
    }
    if (obs::Journal::enabled()) obs::Journal::instance().drain();
  }

  /// How many more commits until the earliest unfired task-count event
  /// is due (max() when none).
  [[nodiscard]] std::uint64_t tasks_until_task_event() const {
    std::uint64_t limit = ~0ULL;
    for (const ScheduledEvent& scheduled : events_) {
      if (scheduled.fired) continue;
      const FaultEvent& e = scheduled.event;
      if (e.trigger == TriggerKind::kBeforeTask) {
        limit = std::min(limit, e.index - committed_);
      } else if (e.trigger == TriggerKind::kAfterTask) {
        limit = std::min(limit, e.index + 1 - committed_);
      }
    }
    return limit;
  }

  [[nodiscard]] std::optional<double> next_time_event() const {
    std::optional<double> earliest;
    for (const ScheduledEvent& scheduled : events_) {
      if (scheduled.fired ||
          scheduled.event.trigger != TriggerKind::kAtTime) {
        continue;
      }
      if (!earliest || scheduled.event.time_seconds < *earliest) {
        earliest = scheduled.event.time_seconds;
      }
    }
    return earliest;
  }

  /// Pops tasks off the queue, refreshes their shard status, assigns
  /// rebuild targets against a fresh capacity ledger, and stops at the
  /// next fault barrier (task-count distance, or the simulated clock
  /// projecting past a time trigger). Tasks that cannot be planned are
  /// retried or finalized here; they never enter the batch.
  std::vector<RepairTask> form_batch() {
    std::vector<RepairTask> batch;
    const std::uint64_t task_limit = tasks_until_task_event();
    NSREL_ASSERT(task_limit > 0);  // due events fired before batching
    const std::optional<double> time_limit = next_time_event();
    std::vector<double> planned_free(
        static_cast<std::size_t>(store_.params().node_count), 0.0);
    for (int n = 0; n < store_.params().node_count; ++n) {
      planned_free[static_cast<std::size_t>(n)] =
          store_.node(n).free_bytes();
    }
    double projected = sim_time_;
    std::size_t poppable = pending_.size();  // re-enqueues wait a barrier
    while (!pending_.empty() && poppable > 0 &&
           batch.size() < task_limit) {
      --poppable;
      RepairTask task = std::move(pending_.front());
      pending_.erase(pending_.begin());

      const StripeStatus status = store_.stripe_status(task.stripe);
      task.lost_shards.clear();
      for (std::size_t i = 0; i < status.available.size(); ++i) {
        if (!status.available[i]) {
          task.lost_shards.push_back(static_cast<int>(i));
        }
      }
      if (task.lost_shards.empty()) {
        // Healed by earlier partial commits: finalize as success.
        finalize_success(task);
        continue;
      }
      if (status.missing() > store_.params().fault_tolerance) {
        finalize_failure(
            task, Error{ErrorCode::kDataLoss, "repair.run",
                        stripe_label(task.stripe) +
                            " lost more shards than the code tolerates"});
        continue;
      }
      if (!assign_targets(task, status, planned_free)) continue;

      const double duration = task_duration(task.lost_shards.size());
      if (time_limit && !batch.empty() &&
          projected + task.delay_seconds + duration > *time_limit) {
        // The time trigger lands before this task would finish; close
        // the batch here so the fault fires at the right barrier.
        pending_.insert(pending_.begin(), std::move(task));
        break;
      }
      projected += task.delay_seconds + duration;
      batch_status_.push_back(status);
      batch.push_back(std::move(task));
    }
    return batch;
  }

  /// Picks one live target node per lost shard: outside the stripe's
  /// surviving set, distinct from the task's other targets, with the
  /// most planned-free capacity (ties: lowest node id). Reserves the
  /// chunk in the ledger. On failure the task is retried or finalized
  /// with kCapacityExhausted; returns false in that case.
  bool assign_targets(RepairTask& task, const StripeStatus& status,
                      std::vector<double>& planned_free) {
    const int node_count = store_.params().node_count;
    std::vector<bool> occupied(static_cast<std::size_t>(node_count), false);
    for (std::size_t i = 0; i < status.shards.size(); ++i) {
      if (status.available[i]) {
        occupied[static_cast<std::size_t>(status.shards[i].node)] = true;
      }
    }
    task.targets.assign(task.lost_shards.size(), -1);
    for (std::size_t j = 0; j < task.lost_shards.size(); ++j) {
      int best = -1;
      double best_free = chunk_bytes() - 1.0;
      for (int n = 0; n < node_count; ++n) {
        if (!store_.node(n).alive() || occupied[static_cast<std::size_t>(n)]) {
          continue;
        }
        if (planned_free[static_cast<std::size_t>(n)] > best_free) {
          best = n;
          best_free = planned_free[static_cast<std::size_t>(n)];
        }
      }
      if (best < 0) {
        retry_or_finalize(
            task, Error{ErrorCode::kCapacityExhausted, "repair.run",
                        stripe_label(task.stripe) +
                            ": no live node with spare capacity outside "
                            "the stripe"});
        return false;
      }
      task.targets[j] = best;
      occupied[static_cast<std::size_t>(best)] = true;
      planned_free[static_cast<std::size_t>(best)] -= chunk_bytes();
    }
    return true;
  }

  /// Parallel phase: each task decodes its stripe into its own slot.
  /// Read-only against the store, so claim order cannot matter.
  std::vector<Expected<std::vector<Chunk>>> decode_batch(
      const std::vector<RepairTask>& batch) {
    std::vector<Expected<std::vector<Chunk>>> results(batch.size());
    if (jobs_ == 1 || batch.size() == 1) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[i] = store_.try_reconstruct_stripe(batch[i].stripe);
      }
      return results;
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.size()) break;
        results[i] = store_.try_reconstruct_stripe(batch[i].stripe);
      }
    };
    std::vector<std::future<void>> done;
    const std::size_t lanes =
        std::min(static_cast<std::size_t>(jobs_), batch.size());
    done.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      done.push_back(pool_->submit(worker));
    }
    for (std::future<void>& f : done) f.get();
    return results;
  }

  /// Serial phase: commits every task's shards in batch order. Target
  /// drive choice, chunk ids, accounting, and the simulated clock all
  /// advance here, single-threaded — this ordering is the determinism
  /// guarantee.
  void commit_batch(const std::vector<RepairTask>& batch,
                    const std::vector<Expected<std::vector<Chunk>>>& decoded) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      RepairTask task = batch[i];
      sim_time_ += task.delay_seconds;
      task.delay_seconds = 0.0;  // consumed; a retry adds only new backoff
      if (!decoded[i].has_value()) {
        // Decode can only fail with data_loss; it is permanent.
        finalize_failure(task, decoded[i].error());
        continue;
      }
      std::vector<Chunk> shards = decoded[i].value();
      bool all_committed = true;
      for (std::size_t j = 0; j < task.lost_shards.size(); ++j) {
        const int shard_index = task.lost_shards[j];
        Expected<ShardLocation> committed = store_.commit_repaired_shard(
            task.stripe, shard_index, task.targets[j],
            std::move(shards[static_cast<std::size_t>(shard_index)]));
        if (!committed.has_value()) {
          retry_or_finalize(task, committed.error());
          all_committed = false;
          break;
        }
        committed_shards_[task.stripe].push_back(
            ShardRepair{shard_index, committed.value()});
        report_.received_bytes[committed.value().node] += chunk_bytes();
        report_.bytes_reconstructed += chunk_bytes();
        ++report_.shards_repaired;
        if (obs::Registry::enabled()) {
          obs::Registry::instance().add(repair_probes().shards_repaired);
        }
      }
      if (!all_committed) continue;
      // Decode consumed the first k survivors in shard-index order
      // (matching ObjectStore::rebuild's accounting and §5.1's flows).
      const StripeStatus& status = batch_status_[i];
      int inputs = 0;
      for (std::size_t s = 0;
           s < status.available.size() && inputs < data_shards(); ++s) {
        if (!status.available[s]) continue;
        report_.sourced_bytes[status.shards[s].node] += chunk_bytes();
        ++inputs;
      }
      sim_time_ += task_duration(task.lost_shards.size());
      ++committed_;
      finalize_success(task);
    }
    batch_status_.clear();
  }

  void finalize_success(const RepairTask& task) {
    obs::Probe span(obs::layer::kRepairTask);
    if (span.tracing()) {
      span.arg("stripe", stripe_label(task.stripe));
      span.arg("outcome", "ok");
      span.arg("retries", static_cast<std::uint64_t>(task.retries));
    }
    StripeRepair repair;
    repair.retries = task.retries;
    const auto it = committed_shards_.find(task.stripe);
    if (it != committed_shards_.end()) {
      repair.shards = std::move(it->second);
      committed_shards_.erase(it);
    }
    report_.outcomes.push_back(
        RepairOutcome{task.stripe, std::move(repair)});
  }

  void finalize_failure(const RepairTask& task, Error error) {
    obs::Probe span(obs::layer::kRepairTask);
    if (span.tracing()) {
      span.arg("stripe", stripe_label(task.stripe));
      span.arg("outcome", error_code_name(error.code));
      span.arg("retries", static_cast<std::uint64_t>(task.retries));
    }
    failed_stripes_.insert(task.stripe);
    committed_shards_.erase(task.stripe);
    ++report_.stripes_failed;
    if (obs::Registry::enabled()) {
      obs::Registry::instance().add(repair_probes().stripes_failed);
    }
    report_.outcomes.push_back(RepairOutcome{task.stripe, std::move(error)});
  }

  /// An execution failure (dead target, fragmented node) consumes one
  /// bounded retry: the task re-enters the queue with exponential
  /// backoff on the simulated clock and is re-planned from scratch at
  /// its next attempt. Retries exhausted -> typed failure outcome.
  void retry_or_finalize(RepairTask& task, const Error& error) {
    if (task.retries >= options_.max_retries) {
      finalize_failure(task, error);
      return;
    }
    double backoff = options_.retry_backoff_seconds;
    for (int i = 0; i < task.retries; ++i) backoff *= 2.0;
    ++task.retries;
    cumulative_retries_[task.stripe] = task.retries;
    ++report_.retries;
    if (obs::Registry::enabled()) {
      obs::Registry::instance().add(repair_probes().retries);
    }
    if (obs::Journal::enabled()) {
      obs::Journal::instance().record(
          obs::sim_event(obs::event::kRepairRetry, ++event_seq_, sim_time_)
              .arg("object", static_cast<std::uint64_t>(task.stripe.object))
              .arg("stripe", static_cast<std::uint64_t>(task.stripe.stripe))
              .arg("retries", static_cast<std::uint64_t>(task.retries)));
    }
    RepairTask requeued;
    requeued.stripe = task.stripe;
    requeued.retries = task.retries;
    requeued.delay_seconds = task.delay_seconds + backoff;
    pending_.push_back(std::move(requeued));
  }

  ObjectStore& store_;
  const RepairOptions& options_;
  int jobs_ = 1;
  std::optional<ThreadPool> pool_;
  std::vector<ScheduledEvent> events_;
  std::vector<RepairTask> pending_;
  std::vector<StripeStatus> batch_status_;  ///< parallel to current batch
  std::set<StripeRef> failed_stripes_;
  std::set<StripeRef> attempted_stripes_;
  std::map<StripeRef, std::vector<ShardRepair>> committed_shards_;
  std::map<StripeRef, int> cumulative_retries_;
  std::uint64_t committed_ = 0;
  std::uint64_t event_seq_ = 0;      ///< serial journal sequence
  std::uint64_t barrier_index_ = 0;  ///< 1-based batch number
  double sim_time_ = 0.0;
  RepairReport report_;
};

}  // namespace

RepairPlan plan_repair(const brick::ObjectStore& store) {
  RepairPlan plan;
  for (const StripeRef& ref : store.degraded_stripes()) {
    const StripeStatus status = store.stripe_status(ref);
    RepairTask task;
    task.stripe = ref;
    for (std::size_t i = 0; i < status.available.size(); ++i) {
      if (!status.available[i]) task.lost_shards.push_back(static_cast<int>(i));
    }
    task.targets.assign(task.lost_shards.size(), -1);
    plan.tasks.push_back(std::move(task));
  }
  return plan;
}

RepairReport run_repair(brick::ObjectStore& store,
                        const FaultSchedule& schedule,
                        const RepairOptions& options) {
  Run run(store, schedule, options);
  return run.execute();
}

RepairReport run_repair(brick::ObjectStore& store) {
  return run_repair(store, FaultSchedule{}, RepairOptions{});
}

std::string render_repair_report(const RepairReport& report) {
  std::ostringstream out;
  out << "repair report\n"
      << "  stripes attempted:   " << report.stripes_attempted << "\n"
      << "  stripes failed:      " << report.stripes_failed << "\n"
      << "  shards repaired:     " << report.shards_repaired << "\n"
      << "  bytes reconstructed: " << report.bytes_reconstructed << "\n"
      << "  replans:             " << report.replans << "\n"
      << "  retries:             " << report.retries << "\n"
      << "  injected faults:     " << report.injected_faults << "\n"
      << "  simulated duration:  " << report.duration_seconds << " s\n";
  out << "  sourced bytes by node:\n";
  for (const auto& [node, bytes] : report.sourced_bytes) {
    out << "    node " << node << ": " << bytes << "\n";
  }
  out << "  received bytes by node:\n";
  for (const auto& [node, bytes] : report.received_bytes) {
    out << "    node " << node << ": " << bytes << "\n";
  }
  out << "  outcomes:\n";
  for (const RepairOutcome& outcome : report.outcomes) {
    out << "    " << stripe_label(outcome.stripe) << ": ";
    if (outcome.result.has_value()) {
      const StripeRepair& repair = outcome.result.value();
      out << "ok (" << repair.shards.size() << " shards, " << repair.retries
          << " retries)";
    } else {
      out << outcome.result.error().message();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace nsrel::repair
