// Unit tests for the SPMD machine simulator: point-to-point messaging,
// simulated-clock semantics, cost charging, stats, and the abort protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "oocc/sim/collectives.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc::sim {
namespace {

TEST(MachineTest, RunsBodyOncePerRank) {
  Machine machine(4, MachineCostModel::zero());
  std::atomic<int> mask{0};
  machine.run([&](SpmdContext& ctx) {
    EXPECT_EQ(ctx.nprocs(), 4);
    mask.fetch_or(1 << ctx.rank());
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(MachineTest, RejectsNonPositiveProcCount) {
  EXPECT_THROW(Machine(0, MachineCostModel::zero()), Error);
  EXPECT_THROW(Machine(-3, MachineCostModel::zero()), Error);
}

TEST(MachineTest, SendRecvMovesData) {
  Machine machine(2, MachineCostModel::zero());
  machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> data{1.5, 2.5, 3.5};
      ctx.send<double>(1, 7, std::span<const double>(data));
    } else {
      const std::vector<double> got = ctx.recv<double>(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST(MachineTest, TagAndSourceMatching) {
  // Rank 1 receives tag 2 before tag 1 even though they were sent in the
  // opposite order; matching must be by tag, not arrival.
  Machine machine(2, MachineCostModel::zero());
  machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value<int>(1, 1, 111);
      ctx.send_value<int>(1, 2, 222);
    } else {
      EXPECT_EQ(ctx.recv_value<int>(0, 2), 222);
      EXPECT_EQ(ctx.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(MachineTest, NonOvertakingPerSourceAndTag) {
  Machine machine(2, MachineCostModel::zero());
  machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        ctx.send_value<int>(1, 5, i);
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(ctx.recv_value<int>(0, 5), i);
      }
    }
  });
}

TEST(MachineTest, WildcardReceive) {
  Machine machine(3, MachineCostModel::zero());
  machine.run([](SpmdContext& ctx) {
    if (ctx.rank() != 0) {
      ctx.send_value<int>(0, 9, ctx.rank());
    } else {
      int sum = 0;
      sum += ctx.recv_value<int>(kAnySource, 9);
      sum += ctx.recv_value<int>(kAnySource, 9);
      EXPECT_EQ(sum, 3);  // ranks 1 + 2 in some order
    }
  });
}

TEST(MachineTest, SimulatedTimeFollowsHockneyModel) {
  MachineCostModel cost = MachineCostModel::unit_test();
  Machine machine(2, cost);
  RunReport report = machine.run([&](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> payload(1000);  // 8000 bytes
      ctx.send<double>(1, 0, std::span<const double>(payload));
    } else {
      (void)ctx.recv<double>(0, 0);
      const double expected = cost.comm.send_overhead_s +
                              cost.comm.latency_s +
                              8000.0 / cost.comm.bandwidth_Bps;
      EXPECT_NEAR(ctx.clock().now(), expected, 1e-12);
    }
  });
  // The receiver's clock is the makespan; the sender only paid overhead.
  EXPECT_NEAR(report.procs[0].sim_time_s, cost.comm.send_overhead_s, 1e-12);
  EXPECT_GT(report.procs[1].sim_time_s, report.procs[0].sim_time_s);
}

TEST(MachineTest, ReceiverNotDelayedWhenMessageAlreadyOld) {
  // If the receiver's clock is already past the arrival time, recv must
  // not move it backwards.
  Machine machine(2, MachineCostModel::unit_test());
  machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value<int>(1, 0, 1);
    } else {
      ctx.charge_flops(1e9);  // 1 second of local compute at unit-test rate
      const double before = ctx.clock().now();
      (void)ctx.recv_value<int>(0, 0);
      EXPECT_DOUBLE_EQ(ctx.clock().now(), before);
    }
  });
}

TEST(MachineTest, ChargeFlopsAdvancesClockAndStats) {
  Machine machine(1, MachineCostModel::unit_test());
  RunReport report = machine.run([](SpmdContext& ctx) {
    ctx.charge_flops(5000.0);
    EXPECT_NEAR(ctx.clock().now(), 5000.0 * 1e-9, 1e-15);
  });
  EXPECT_DOUBLE_EQ(report.procs[0].flops, 5000.0);
  EXPECT_NEAR(report.procs[0].compute_time_s, 5e-6, 1e-15);
}

TEST(MachineTest, StatsCountMessagesAndBytes) {
  Machine machine(2, MachineCostModel::zero());
  RunReport report = machine.run([](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<std::int32_t> data(25);
      ctx.send<std::int32_t>(1, 0, std::span<const std::int32_t>(data));
    } else {
      (void)ctx.recv<std::int32_t>(0, 0);
    }
  });
  EXPECT_EQ(report.procs[0].messages_sent, 1u);
  EXPECT_EQ(report.procs[0].bytes_sent, 100u);
  EXPECT_EQ(report.procs[1].messages_received, 1u);
  EXPECT_EQ(report.procs[1].bytes_received, 100u);
  EXPECT_EQ(report.total_messages(), 1u);
}

TEST(MachineTest, SelfSendIsAllowed) {
  Machine machine(1, MachineCostModel::zero());
  machine.run([](SpmdContext& ctx) {
    ctx.send_value<int>(0, 3, 77);
    EXPECT_EQ(ctx.recv_value<int>(0, 3), 77);
  });
}

TEST(MachineTest, InvalidDestinationThrows) {
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([](SpmdContext& ctx) {
                 ctx.send_value<int>(5, 0, 1);  // all ranks throw identically
               }),
               Error);
}

TEST(MachineTest, AbortReleasesBlockedPeers) {
  // Rank 0 throws; rank 1 is blocked in recv on a message that will never
  // come. The abort protocol must unblock rank 1 and the run must rethrow.
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([](SpmdContext& ctx) {
                 if (ctx.rank() == 0) {
                   OOCC_THROW(ErrorCode::kRuntimeError, "rank 0 dies");
                 } else {
                   (void)ctx.recv_value<int>(0, 0);  // never sent
                 }
               }),
               Error);
}

TEST(MachineTest, RethrowsTheErrorThatStartedTheAbort) {
  // Rank 2 fails while the others wait in a barrier; the abort then fails
  // them too, with "aborted by another rank". The run must surface rank 2's
  // error, not the lowest rank's secondary one.
  Machine machine(4, MachineCostModel::zero());
  try {
    machine.run([](SpmdContext& ctx) {
      if (ctx.rank() == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        OOCC_THROW(ErrorCode::kCompileError, "root cause on rank 2");
      }
      barrier(ctx);
    });
    FAIL() << "the failing region did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCompileError);
    EXPECT_NE(std::string(e.what()).find("root cause on rank 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(MachineTest, MachineReusableAfterAbort) {
  Machine machine(2, MachineCostModel::zero());
  EXPECT_THROW(machine.run([](SpmdContext& ctx) {
                 if (ctx.rank() == 0) {
                   OOCC_THROW(ErrorCode::kRuntimeError, "boom");
                 } else {
                   (void)ctx.recv_value<int>(0, 0);
                 }
               }),
               Error);
  // A subsequent clean region must work (stale abort tokens are drained).
  std::atomic<int> ran{0};
  machine.run([&](SpmdContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value<int>(1, 0, 5);
    } else {
      EXPECT_EQ(ctx.recv_value<int>(0, 0), 5);
    }
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(MachineTest, ReservedTagRejected) {
  Machine machine(1, MachineCostModel::zero());
  EXPECT_THROW(machine.run([](SpmdContext& ctx) {
                 ctx.send_value<int>(0, kAbortTag, 1);
               }),
               Error);
}

TEST(MachineTest, ResetAccountingZeroesClockAndStats) {
  Machine machine(2, MachineCostModel::unit_test());
  RunReport report = machine.run([](SpmdContext& ctx) {
    ctx.charge_flops(1e6);
    barrier(ctx);
    ctx.reset_accounting();
    ctx.charge_flops(1000.0);
  });
  for (const auto& p : report.procs) {
    EXPECT_DOUBLE_EQ(p.flops, 1000.0);
    EXPECT_NEAR(p.sim_time_s, 1e-6, 1e-12);
  }
}

TEST(MachineTest, RunReportAggregates) {
  Machine machine(3, MachineCostModel::unit_test());
  RunReport report = machine.run([](SpmdContext& ctx) {
    ctx.charge_flops(1e6 * (ctx.rank() + 1));
  });
  EXPECT_NEAR(report.max_sim_time_s(), 3e-3, 1e-9);
  EXPECT_GT(report.wall_time_s, 0.0);
}

TEST(ClockTest, RewindNeverMovesForward) {
  Clock c;
  c.advance(5.0);
  c.rewind_to(7.0);
  EXPECT_DOUBLE_EQ(c.now(), 5.0);
  c.rewind_to(2.0);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  c.wait_until(1.0);  // never backwards
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
}

TEST(CostModelTest, Presets) {
  const MachineCostModel delta = MachineCostModel::touchstone_delta();
  EXPECT_GT(delta.comm.latency_s, 0.0);
  EXPECT_GT(delta.compute.seconds_per_flop, 0.0);
  const MachineCostModel zero = MachineCostModel::zero();
  EXPECT_DOUBLE_EQ(zero.compute.flops_time(1e12), 0.0);
  EXPECT_NEAR(zero.comm.transfer_time(1e12), 0.0, 1e-15);
}

}  // namespace
}  // namespace oocc::sim
