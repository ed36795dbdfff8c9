// Tests of the discrete-event simulator: delivery semantics, bandwidth
// and latency arithmetic, FIFO links, CPU serialization, the zero-delay
// clock, statistics and reset behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "skypeer/sim/simulator.h"

namespace skypeer::sim {
namespace {

struct Ping : MessageBody {
  explicit Ping(int hops_left = 0) : hops_left(hops_left) {}
  int hops_left;
};

/// Records every delivery; optionally charges CPU and forwards.
class Recorder : public Node {
 public:
  struct Delivery {
    double arrival;     // Event time.
    double start;       // When processing actually began.
    double cp;          // The node's zero-delay clock at that point.
    int src;
    size_t bytes;
  };

  explicit Recorder(double cpu_per_message = 0.0)
      : cpu_per_message_(cpu_per_message) {}

  void HandleMessage(Simulator* simulator, const Message& message) override {
    deliveries_.push_back(Delivery{simulator->now(),
                                   simulator->CurrentNodeClock(),
                                   simulator->CurrentNodeCp(), message.src,
                                   message.bytes});
    if (cpu_per_message_ > 0.0) {
      simulator->ChargeCpu(cpu_per_message_);
    }
    const auto* ping = dynamic_cast<const Ping*>(message.body.get());
    if (ping != nullptr && ping->hops_left > 0 && forward_to_ >= 0) {
      simulator->Send(self_, forward_to_, forward_bytes_,
                      std::make_shared<Ping>(ping->hops_left - 1));
    }
  }

  void ConfigureForward(int self, int to, size_t bytes) {
    self_ = self;
    forward_to_ = to;
    forward_bytes_ = bytes;
  }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  double cpu_per_message_;
  int self_ = -1;
  int forward_to_ = -1;
  size_t forward_bytes_ = 0;
  std::vector<Delivery> deliveries_;
};

TEST(Simulator, PostDeliversImmediately) {
  Simulator sim;
  Recorder node;
  const int id = sim.AddNode(&node);
  sim.Post(id, std::make_shared<Ping>());
  sim.Run();
  ASSERT_EQ(node.deliveries().size(), 1u);
  EXPECT_EQ(node.deliveries()[0].arrival, 0.0);
  EXPECT_EQ(node.deliveries()[0].src, -1);
}

TEST(Simulator, TransferTimeIsBytesOverBandwidth) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{1024.0, 0.0});
  a.ConfigureForward(ia, ib, 4096);  // 4 KB over 1 KB/s -> 4 s.
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 4.0);
}

TEST(Simulator, LatencyAddsOnTop) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{1024.0, 0.5});
  a.ConfigureForward(ia, ib, 1024);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 1.5);
}

TEST(Simulator, InfiniteBandwidthMeansZeroTransfer) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  a.ConfigureForward(ia, ib, 1 << 30);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 0.0);
}

TEST(Simulator, LinkIsFifoAndSerializesTransfers) {
  // Two messages sent back-to-back share the link: the second waits.
  Simulator sim;
  Recorder b;

  class DoubleSender : public Node {
   public:
    void HandleMessage(Simulator* simulator, const Message&) override {
      simulator->Send(0, 1, 1024, std::make_shared<Ping>());
      simulator->Send(0, 1, 1024, std::make_shared<Ping>());
    }
  } a;

  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  ASSERT_EQ(ia, 0);
  ASSERT_EQ(ib, 1);
  sim.Connect(0, 1, LinkParams{1024.0, 0.0});
  sim.Post(0, std::make_shared<Ping>());
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(b.deliveries()[1].arrival, 2.0);
}

TEST(Simulator, OppositeDirectionsDoNotShareCapacity) {
  // a->b and b->a are independent channels.
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{1024.0, 0.0});
  a.ConfigureForward(ia, ib, 1024);
  b.ConfigureForward(ib, ia, 1024);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Post(ib, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(a.deliveries().size(), 2u);  // Post + reply... both directions.
  ASSERT_EQ(b.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(b.deliveries()[1].arrival, 1.0);
  EXPECT_DOUBLE_EQ(a.deliveries()[1].arrival, 1.0);
}

TEST(Simulator, CpuChargesSerializeProcessing) {
  // Node b takes 2 s per message; two messages arriving at ~0 finish at
  // 2 and 4.
  Simulator sim;
  Recorder a;
  Recorder b(/*cpu_per_message=*/2.0);
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});

  class TwoPings : public Node {
   public:
    void HandleMessage(Simulator* simulator, const Message&) override {
      simulator->Send(0, 1, 1, std::make_shared<Ping>());
      simulator->Send(0, 1, 1, std::make_shared<Ping>());
    }
  };
  // Replace a's behavior by sending via a helper node is overkill; reuse
  // forward with 0 hops by posting two external messages instead:
  (void)a;
  sim.Post(ib, std::make_shared<Ping>());
  sim.Post(ib, std::make_shared<Ping>());
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].start, 0.0);
  // Second message arrived at t=0 but processing began once the first
  // finished.
  EXPECT_DOUBLE_EQ(b.deliveries()[1].start, 2.0);
  EXPECT_DOUBLE_EQ(sim.NodeClock(ib), 4.0);
}

TEST(Simulator, SendDepartsAfterCpuCharge) {
  // A node that charges CPU then forwards: the message departs at its
  // advanced clock, not the arrival time.
  Simulator sim;
  Recorder a(/*cpu_per_message=*/3.0);
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  a.ConfigureForward(ia, ib, 8);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 1u);
  // ChargeCpu happens before the forward in Recorder::HandleMessage.
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 3.0);
}

TEST(Simulator, MultiHopChainAccumulatesDelay) {
  Simulator sim;
  Recorder n0;
  Recorder n1;
  Recorder n2;
  const int i0 = sim.AddNode(&n0);
  const int i1 = sim.AddNode(&n1);
  const int i2 = sim.AddNode(&n2);
  sim.Connect(i0, i1, LinkParams{1024.0, 0.0});
  sim.Connect(i1, i2, LinkParams{512.0, 0.0});
  n0.ConfigureForward(i0, i1, 1024);  // 1 s.
  n1.ConfigureForward(i1, i2, 1024);  // 2 s.
  sim.Post(i0, std::make_shared<Ping>(2));
  sim.Run();
  ASSERT_EQ(n2.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(n2.deliveries()[0].arrival, 3.0);
}

TEST(Simulator, StatisticsCountBytesAndMessages) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib);
  a.ConfigureForward(ia, ib, 100);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  EXPECT_EQ(sim.total_bytes(), 100u);
  EXPECT_EQ(sim.num_messages(), 1u);  // Post is free; Send counts.
}

TEST(Simulator, ResetClearsStateButKeepsTopology) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{1024.0, 0.0});
  a.ConfigureForward(ia, ib, 2048);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  EXPECT_GT(sim.total_bytes(), 0u);
  EXPECT_GT(sim.NodeClock(ib), 0.0);

  sim.Reset();
  EXPECT_EQ(sim.total_bytes(), 0u);
  EXPECT_EQ(sim.num_messages(), 0u);
  EXPECT_DOUBLE_EQ(sim.NodeClock(ib), 0.0);
  EXPECT_TRUE(sim.AreConnected(ia, ib));

  // Link backlog cleared: a fresh send sees a free link.
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(b.deliveries()[1].arrival, 2.0);
}

TEST(Simulator, EqualTimestampsProcessedInSendOrder) {
  Simulator sim;
  Recorder b;
  const int ib_expected = 0;
  const int ib = sim.AddNode(&b);
  ASSERT_EQ(ib, ib_expected);
  // Three posts at t=0 must arrive in post order.
  sim.Post(ib, std::make_shared<Ping>(10));
  sim.Post(ib, std::make_shared<Ping>(20));
  sim.Post(ib, std::make_shared<Ping>(30));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 3u);
  // All at time zero; order verified via the shared body pointer not
  // being exposed — instead rely on deterministic arrival ordering by
  // construction: all arrivals at 0.0.
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(b.deliveries()[2].arrival, 0.0);
}

// --- zero-delay clock (cp) ----------------------------------------------

TEST(Simulator, ChainCpSumsCpuWhileTheClockAddsTransfers) {
  // n0 -> n1 -> n2 over 1 s and 2 s transfers, charging 1, 0.5 and 0.25
  // s of CPU: cp is the CPU sum, the clock adds the transfer times.
  Simulator sim;
  Recorder n0(1.0);
  Recorder n1(0.5);
  Recorder n2(0.25);
  const int i0 = sim.AddNode(&n0);
  const int i1 = sim.AddNode(&n1);
  const int i2 = sim.AddNode(&n2);
  sim.Connect(i0, i1, LinkParams{1024.0, 0.0});
  sim.Connect(i1, i2, LinkParams{512.0, 0.0});
  n0.ConfigureForward(i0, i1, 1024);  // 1 s.
  n1.ConfigureForward(i1, i2, 1024);  // 2 s.
  sim.Post(i0, std::make_shared<Ping>(2));
  sim.Run();
  ASSERT_EQ(n2.deliveries().size(), 1u);
  EXPECT_EQ(n1.deliveries()[0].start, 2.0);
  EXPECT_EQ(n1.deliveries()[0].cp, 1.0);
  EXPECT_EQ(n2.deliveries()[0].start, 4.5);
  EXPECT_EQ(n2.deliveries()[0].cp, 1.5);
  EXPECT_EQ(sim.NodeCp(i2), 1.75);
  EXPECT_EQ(sim.NodeClock(i2), 4.75);
}

TEST(Simulator, CpOfAReceiverIsTheMaxOfNodeAndEventCp) {
  // a (3 s of CPU) and b (1 s) each send c one message over a 1 s
  // transfer; c charges 2.5 s per message. b's message arrives first
  // (t = 2) and its cp 1 beats c's idle cp 0. a's arrives at t = 4, but
  // c's own cp 3.5 beats the message's 3.
  Simulator sim;
  Recorder a(3.0);
  Recorder b(1.0);
  Recorder c(2.5);
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  const int ic = sim.AddNode(&c);
  sim.Connect(ia, ic, LinkParams{1024.0, 0.0});
  sim.Connect(ib, ic, LinkParams{1024.0, 0.0});
  a.ConfigureForward(ia, ic, 1024);
  b.ConfigureForward(ib, ic, 1024);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Post(ib, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(c.deliveries().size(), 2u);
  EXPECT_EQ(c.deliveries()[0].src, ib);
  EXPECT_EQ(c.deliveries()[0].start, 2.0);
  EXPECT_EQ(c.deliveries()[0].cp, 1.0);
  EXPECT_EQ(c.deliveries()[1].src, ia);
  EXPECT_EQ(c.deliveries()[1].start, 4.5);
  EXPECT_EQ(c.deliveries()[1].cp, 3.5);
  EXPECT_EQ(sim.NodeCp(ic), 6.0);
  EXPECT_EQ(sim.NodeClock(ic), 7.0);
}

TEST(Simulator, CpEqualsTheClockOnInfiniteZeroLatencyLinks) {
  // Without transfer, latency or timer delays the two clocks evolve by
  // the same operations, so they agree bit for bit: a ping-pong with
  // CPU charges that are not binary fractions, plus a third node that
  // queues two posts.
  Simulator sim;
  Recorder a(0.1);
  Recorder b(0.3);
  Recorder c(0.7);
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  const int ic = sim.AddNode(&c);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  sim.Connect(ib, ic, LinkParams{kInfiniteBandwidth, 0.0});
  a.ConfigureForward(ia, ib, 64);
  b.ConfigureForward(ib, ia, 64);
  sim.Post(ia, std::make_shared<Ping>(25));
  sim.Post(ic, std::make_shared<Ping>());
  sim.Post(ic, std::make_shared<Ping>());
  sim.Run();
  for (const Recorder* node : {&a, &b, &c}) {
    ASSERT_FALSE(node->deliveries().empty());
    for (const auto& delivery : node->deliveries()) {
      EXPECT_EQ(delivery.cp, delivery.start);
    }
  }
  for (int id : {ia, ib, ic}) {
    EXPECT_GT(sim.NodeCp(id), 0.0);
    EXPECT_EQ(sim.NodeCp(id), sim.NodeClock(id)) << id;
  }
}

TEST(Simulator, TimerDelayDoesNotAdvanceCp) {
  // A node charges 1 s, then arms a 2 s timer whose handler charges
  // 0.5 s: the timer fires at t = 3 with the cp of its scheduling (1).
  class TimerNode : public Node {
   public:
    void HandleMessage(Simulator* simulator, const Message&) override {
      starts.push_back(simulator->CurrentNodeClock());
      cps.push_back(simulator->CurrentNodeCp());
      if (starts.size() == 1) {
        simulator->ChargeCpu(1.0);
        simulator->ScheduleTimer(0, 2.0, std::make_shared<Ping>());
      } else {
        simulator->ChargeCpu(0.5);
      }
    }
    std::vector<double> starts;
    std::vector<double> cps;
  } node;
  Simulator sim;
  ASSERT_EQ(sim.AddNode(&node), 0);
  sim.Post(0, std::make_shared<Ping>());
  sim.Run();
  EXPECT_EQ(node.starts, (std::vector<double>{0.0, 3.0}));
  EXPECT_EQ(node.cps, (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(sim.NodeCp(0), 1.5);
  EXPECT_EQ(sim.NodeClock(0), 3.5);

  sim.Reset();
  EXPECT_EQ(sim.NodeCp(0), 0.0);
}

// --- timers -------------------------------------------------------------

TEST(Simulator, TimersFireAtScheduledDelaysInOrder) {
  Simulator sim;
  Recorder node;
  const int id = sim.AddNode(&node);
  sim.ScheduleTimer(id, 0.5, std::make_shared<Ping>());
  sim.ScheduleTimer(id, 0.2, std::make_shared<Ping>());
  sim.Run();
  ASSERT_EQ(node.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(node.deliveries()[0].arrival, 0.2);
  EXPECT_DOUBLE_EQ(node.deliveries()[1].arrival, 0.5);
}

TEST(Simulator, CancelledTimerNeverFires) {
  Simulator sim;
  Recorder node;
  const int id = sim.AddNode(&node);
  const uint64_t keep = sim.ScheduleTimer(id, 0.1, std::make_shared<Ping>());
  const uint64_t cancel = sim.ScheduleTimer(id, 0.2, std::make_shared<Ping>());
  (void)keep;
  sim.CancelTimer(cancel);
  sim.CancelTimer(987654u);  // Unknown handles are a no-op.
  sim.Run();
  ASSERT_EQ(node.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(node.deliveries()[0].arrival, 0.1);
}

// --- run budgets --------------------------------------------------------

TEST(Simulator, EventBudgetStopsAndResumesWithoutLoss) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  a.ConfigureForward(ia, ib, 64);
  b.ConfigureForward(ib, ia, 64);
  sim.Post(ia, std::make_shared<Ping>(40));  // 41 deliveries in total.

  RunBudget budget;
  budget.max_events = 10;
  EXPECT_EQ(sim.Run(budget), RunStatus::kEventBudgetExceeded);
  const size_t after_budget = a.deliveries().size() + b.deliveries().size();
  EXPECT_EQ(after_budget, 10u);
  // Resumes where it stopped.
  EXPECT_EQ(sim.Run(RunBudget{}), RunStatus::kCompleted);
  EXPECT_EQ(a.deliveries().size() + b.deliveries().size(), 41u);
}

// --- fault injection ----------------------------------------------------

TEST(Simulator, DropProbabilityIsSeedDeterministic) {
  const auto run = [](uint64_t seed) {
    Simulator sim;
    Recorder a;
    Recorder b;
    const int ia = sim.AddNode(&a);
    const int ib = sim.AddNode(&b);
    sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_prob = 0.5;
    sim.SetFaultPlan(plan);
    a.ConfigureForward(ia, ib, 64);
    b.ConfigureForward(ib, ia, 64);
    sim.Post(ia, std::make_shared<Ping>(100));
    sim.Run();
    return std::make_pair(sim.dropped_messages(),
                          a.deliveries().size() + b.deliveries().size());
  };
  const auto first = run(42);
  const auto second = run(42);
  EXPECT_GT(first.first, 0u);          // Some messages were lost...
  EXPECT_GT(first.second, 1u);         // ...but not all.
  EXPECT_EQ(first, second);            // Same seed, same realization.
}

TEST(Simulator, ResetReseedsTheFaultRng) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.4;
  sim.SetFaultPlan(plan);
  a.ConfigureForward(ia, ib, 64);
  b.ConfigureForward(ib, ia, 64);

  sim.Post(ia, std::make_shared<Ping>(60));
  sim.Run();
  const uint64_t first_run_drops = sim.dropped_messages();
  const size_t first_run_deliveries =
      a.deliveries().size() + b.deliveries().size();

  sim.Reset();
  sim.Post(ia, std::make_shared<Ping>(60));
  sim.Run();
  EXPECT_EQ(sim.dropped_messages(), first_run_drops);
  EXPECT_EQ(a.deliveries().size() + b.deliveries().size(),
            2 * first_run_deliveries);
}

TEST(Simulator, DelayJitterIsDeterministicAndBounded) {
  const auto arrivals = [](uint64_t seed) {
    Simulator sim;
    Recorder a;
    Recorder b;
    const int ia = sim.AddNode(&a);
    const int ib = sim.AddNode(&b);
    sim.Connect(ia, ib, LinkParams{1024.0, 0.0});
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_jitter = 0.5;
    sim.SetFaultPlan(plan);
    a.ConfigureForward(ia, ib, 1024);
    sim.Post(ia, std::make_shared<Ping>(1));
    sim.Run();
    std::vector<double> times;
    for (const auto& d : b.deliveries()) {
      times.push_back(d.arrival);
    }
    return times;
  };
  const auto first = arrivals(9);
  ASSERT_EQ(first.size(), 1u);
  // Base transfer time is 1 s; jitter adds [0, 0.5).
  EXPECT_GE(first[0], 1.0);
  EXPECT_LT(first[0], 1.5);
  EXPECT_EQ(first, arrivals(9));
}

TEST(Simulator, CrashedNodeDeliveriesAndTimersAreSuppressed) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  FaultPlan plan;
  plan.CrashNode(ib);
  sim.SetFaultPlan(plan);
  a.ConfigureForward(ia, ib, 64);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.ScheduleTimer(ib, 0.5, std::make_shared<Ping>());
  sim.Run();
  EXPECT_EQ(a.deliveries().size(), 1u);  // The Post itself.
  EXPECT_TRUE(b.deliveries().empty());
  EXPECT_EQ(sim.suppressed_deliveries(), 2u);  // Message + timer.
}

TEST(Simulator, NodeCrashWindowSuppressesOnlyInsideTheInterval) {
  Simulator sim;
  Recorder node;
  const int id = sim.AddNode(&node);
  FaultPlan plan;
  plan.CrashNode(id, 1.0, 3.0);
  sim.SetFaultPlan(plan);
  sim.ScheduleTimer(id, 0.5, std::make_shared<Ping>());  // Before: fires.
  sim.ScheduleTimer(id, 2.0, std::make_shared<Ping>());  // Inside: lost.
  sim.ScheduleTimer(id, 4.0, std::make_shared<Ping>());  // After: fires.
  sim.Run();
  ASSERT_EQ(node.deliveries().size(), 2u);
  EXPECT_DOUBLE_EQ(node.deliveries()[0].arrival, 0.5);
  EXPECT_DOUBLE_EQ(node.deliveries()[1].arrival, 4.0);
  EXPECT_EQ(sim.suppressed_deliveries(), 1u);
}

TEST(Simulator, LinkDownWindowDropsSendsInsideTheWindow) {
  Simulator sim;
  Recorder a;
  Recorder b;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  FaultPlan plan;
  plan.TakeLinkDown(ia, ib, 0.0, 1.0);
  sim.SetFaultPlan(plan);
  a.ConfigureForward(ia, ib, 64);
  // A forward triggered at t=0 is inside the outage; one triggered by a
  // timer at t=2 is after it.
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.ScheduleTimer(ia, 2.0, std::make_shared<Ping>(1));
  sim.Run();
  ASSERT_EQ(b.deliveries().size(), 1u);
  EXPECT_DOUBLE_EQ(b.deliveries()[0].arrival, 2.0);
  EXPECT_EQ(sim.dropped_messages(), 1u);
}

TEST(Simulator, PerLinkDropProbabilityOverridesGlobal) {
  Simulator sim;
  Recorder a;
  Recorder b;
  Recorder c;
  const int ia = sim.AddNode(&a);
  const int ib = sim.AddNode(&b);
  const int ic = sim.AddNode(&c);
  sim.Connect(ia, ib, LinkParams{kInfiniteBandwidth, 0.0});
  sim.Connect(ia, ic, LinkParams{kInfiniteBandwidth, 0.0});
  FaultPlan plan;
  plan.seed = 4;
  plan.drop_prob = 0.0;
  plan.SetLinkDropProb(ia, ib, 1.0 - 1e-12);  // Effectively certain loss.
  sim.SetFaultPlan(plan);
  a.ConfigureForward(ia, ib, 64);
  sim.Post(ia, std::make_shared<Ping>(5));
  sim.Run();
  EXPECT_TRUE(b.deliveries().empty());  // Lossy direction killed them all.
  EXPECT_EQ(sim.dropped_messages(), 1u);
  // The untouched link still works.
  a.ConfigureForward(ia, ic, 64);
  sim.Post(ia, std::make_shared<Ping>(1));
  sim.Run();
  EXPECT_EQ(c.deliveries().size(), 1u);
}

}  // namespace
}  // namespace skypeer::sim
