#include "skypeer/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace skypeer::sim {

int Simulator::AddNode(Node* node) {
  SKYPEER_CHECK(node != nullptr);
  nodes_.push_back(node);
  clock_.push_back(0.0);
  cp_.push_back(0.0);
  return static_cast<int>(nodes_.size()) - 1;
}

void Simulator::Connect(int a, int b, const LinkParams& params) {
  SKYPEER_CHECK(a >= 0 && a < num_nodes());
  SKYPEER_CHECK(b >= 0 && b < num_nodes());
  SKYPEER_CHECK(a != b);
  links_[{a, b}] = LinkState{params, 0.0};
  links_[{b, a}] = LinkState{params, 0.0};
}

bool Simulator::AreConnected(int a, int b) const {
  return links_.find({a, b}) != links_.end();
}

void Simulator::SetFaultPlan(FaultPlan plan) {
  fault_rng_.emplace(plan.seed);
  fault_plan_ = std::move(plan);
}

void Simulator::ClearFaultPlan() {
  fault_plan_.reset();
  fault_rng_.reset();
}

Simulator::LinkState* Simulator::FindLink(int src, int dst) {
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : &it->second;
}

void Simulator::Send(int src, int dst, size_t bytes,
                     std::shared_ptr<const MessageBody> body) {
  SKYPEER_CHECK(src >= 0 && src < num_nodes());
  SKYPEER_CHECK(dst >= 0 && dst < num_nodes());
  LinkState* link = FindLink(src, dst);
  SKYPEER_CHECK(link != nullptr);  // Only adjacent nodes may communicate.

  const double departure = clock_[src];
  const double start = std::max(departure, link->busy_until);
  const double transfer =
      link->params.bandwidth == kInfiniteBandwidth
          ? 0.0
          : static_cast<double>(bytes) / link->params.bandwidth;
  link->busy_until = start + transfer;
  double arrival = start + transfer + link->params.latency;

  // The transmission happened either way: wire statistics and link
  // occupancy account for lost messages too (the loss is in flight).
  total_bytes_ += bytes;
  ++num_messages_;

  if (fault_plan_.has_value()) {
    if (fault_plan_->LinkDownAt(src, dst, start)) {
      ++dropped_messages_;
      return;
    }
    const double drop_prob = fault_plan_->DropProbFor(src, dst);
    if (drop_prob > 0.0 && fault_rng_->Uniform() < drop_prob) {
      ++dropped_messages_;
      return;
    }
    if (fault_plan_->delay_jitter > 0.0) {
      arrival += fault_rng_->Uniform(0.0, fault_plan_->delay_jitter);
    }
  }

  events_.push(Event{arrival, next_seq_++, cp_[src], /*timer_id=*/0,
                     Message{src, dst, bytes, std::move(body)}});
}

void Simulator::Post(int dst, std::shared_ptr<const MessageBody> body) {
  SKYPEER_CHECK(dst >= 0 && dst < num_nodes());
  events_.push(Event{now_, next_seq_++, /*cp=*/now_, /*timer_id=*/0,
                     Message{-1, dst, 0, std::move(body)}});
}

uint64_t Simulator::ScheduleTimer(int node, double delay,
                                  std::shared_ptr<const MessageBody> body) {
  SKYPEER_CHECK(node >= 0 && node < num_nodes());
  SKYPEER_CHECK(delay >= 0.0);
  const double fire = std::max(now_, clock_[node]) + delay;
  const uint64_t timer_id = next_timer_id_++;
  // The delay is a wait, not CPU work: the timer carries the node's cp.
  events_.push(Event{fire, next_seq_++, cp_[node], timer_id,
                     Message{node, node, 0, std::move(body)}});
  return timer_id;
}

void Simulator::CancelTimer(uint64_t timer_id) {
  if (timer_id != 0) {
    cancelled_timers_.insert(timer_id);
  }
}

void Simulator::ChargeCpu(double seconds) {
  SKYPEER_CHECK(handling_node_ >= 0);
  SKYPEER_CHECK(seconds >= 0.0);
  clock_[handling_node_] += seconds;
  cp_[handling_node_] += seconds;
}

RunStatus Simulator::Run(const RunBudget& budget) {
  uint64_t processed = 0;
  while (!events_.empty()) {
    if (budget.max_events > 0 && processed >= budget.max_events) {
      return RunStatus::kEventBudgetExceeded;
    }
    Event event = events_.top();
    events_.pop();
    if (event.timer_id != 0 &&
        cancelled_timers_.erase(event.timer_id) > 0) {
      continue;  // Cancelled before firing.
    }
    now_ = event.time;
    ++processed;
    const int dst = event.message.dst;
    if (fault_plan_.has_value() && fault_plan_->NodeDownAt(dst, event.time)) {
      // Crashed destination: the delivery (message or timer) vanishes.
      ++suppressed_deliveries_;
      continue;
    }
    // Processing starts once the node has finished earlier work.
    clock_[dst] = std::max(clock_[dst], event.time);
    cp_[dst] = std::max(cp_[dst], event.cp);
    handling_node_ = dst;
    nodes_[dst]->HandleMessage(this, event.message);
    handling_node_ = -1;
  }
  return RunStatus::kCompleted;
}

void Simulator::Reset() {
  while (!events_.empty()) {
    events_.pop();
  }
  std::fill(clock_.begin(), clock_.end(), 0.0);
  std::fill(cp_.begin(), cp_.end(), 0.0);
  for (auto& [key, link] : links_) {
    link.busy_until = 0.0;
  }
  now_ = 0.0;
  handling_node_ = -1;
  total_bytes_ = 0;
  num_messages_ = 0;
  next_seq_ = 0;
  dropped_messages_ = 0;
  suppressed_deliveries_ = 0;
  next_timer_id_ = 1;
  cancelled_timers_.clear();
  if (fault_plan_.has_value()) {
    // Reseed the dedicated stream: every run of the same event sequence
    // sees identical faults.
    fault_rng_.emplace(fault_plan_->seed);
  }
}

}  // namespace skypeer::sim
