// MiniMPI runtime: collectives, point-to-point ordering, VM integration,
// per-rank trace files (the paper's parallel tracer shape, §IV-A), the
// abort/deadlock liveness model, record-and-replay of per-rank
// communication, and multi-rank campaign determinism.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "fault/rank_campaign.h"
#include "hl/builder.h"
#include "mpi/world.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/file.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

TEST(World, AllreduceSum) {
  mpi::World world(4);
  std::vector<double> results(4);
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    results[rank] = ep.allreduce(static_cast<double>(rank + 1),
                                 ir::ReduceOp::Sum);
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(World, AllreduceMinMax) {
  mpi::World world(3);
  std::vector<double> mins(3), maxs(3);
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    mins[rank] = ep.allreduce(static_cast<double>(rank), ir::ReduceOp::Min);
    maxs[rank] = ep.allreduce(static_cast<double>(rank), ir::ReduceOp::Max);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(mins[r], 0.0);
    EXPECT_DOUBLE_EQ(maxs[r], 2.0);
  }
}

TEST(World, RepeatedCollectivesStayInSync) {
  mpi::World world(3);
  std::vector<double> finals(3);
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    double acc = static_cast<double>(rank);
    for (int i = 0; i < 50; ++i) {
      acc = ep.allreduce(acc, ir::ReduceOp::Sum) / 3.0 + rank;
    }
    finals[rank] = acc;
  });
  // All ranks see the same reduction sequence; totals differ only by rank.
  EXPECT_NEAR(finals[1] - finals[0], 1.0, 1e-9);
  EXPECT_NEAR(finals[2] - finals[1], 1.0, 1e-9);
}

TEST(World, PointToPointFifo) {
  mpi::World world(2);
  std::vector<double> got;
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    if (rank == 0) {
      for (int i = 0; i < 10; ++i) ep.send(1, i * 1.5);
    } else {
      for (int i = 0; i < 10; ++i) got.push_back(ep.recv(0));
    }
  });
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(got[i], i * 1.5);
}

TEST(World, PingPong) {
  mpi::World world(2);
  double final0 = 0;
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    if (rank == 0) {
      ep.send(1, 1.0);
      final0 = ep.recv(1);
    } else {
      const double v = ep.recv(0);
      ep.send(0, v + 1.0);
    }
  });
  EXPECT_DOUBLE_EQ(final0, 2.0);
}

TEST(World, BarrierCompletes) {
  mpi::World world(4);
  std::atomic<int> after{0};
  world.launch([&](std::int64_t, vm::MpiEndpoint& ep) {
    ep.barrier();
    after.fetch_add(1);
    ep.barrier();
  });
  EXPECT_EQ(after.load(), 4);
}

ir::Module mpi_program() {
  hl::ProgramBuilder pb("mpiapp");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto rank = f.mpi_rank();
    auto size = f.mpi_size();
    auto sum = f.mpi_allreduce(f.sitofp(rank + 1), ir::ReduceOp::Sum);
    f.emit(rank);
    f.emit(size);
    f.emit(sum);
    f.ret();
  }
  return pb.finish();
}

TEST(VmIntegration, RankSizeAllreduceThroughOpcodes) {
  auto mod = mpi_program();
  mpi::World world(3);
  std::vector<vm::RunResult> results(3);
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    vm::VmOptions opts;
    opts.mpi = &ep;
    results[rank] = vm::Vm::run(mod, opts);
  });
  for (std::int64_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(results[r].completed());
    EXPECT_EQ(results[r].outputs[0].as_i64(), r);
    EXPECT_EQ(results[r].outputs[1].as_i64(), 3);
    EXPECT_DOUBLE_EQ(results[r].outputs[2].as_f64(), 6.0);  // 1+2+3
  }
}

TEST(VmIntegration, NullEndpointIsSingleRankWorld) {
  auto mod = mpi_program();
  const auto r = vm::Vm::run(mod);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.outputs[0].as_i64(), 0);
  EXPECT_EQ(r.outputs[1].as_i64(), 1);
  EXPECT_DOUBLE_EQ(r.outputs[2].as_f64(), 1.0);  // identity allreduce
}

// The full null-endpoint contract of vm/mpi_endpoint.h, asserted opcode by
// opcode on both engines: rank 0, size 1, identity allreduce, no-op
// barrier, dropped send, zero recv.
TEST(VmIntegration, NullEndpointContractExplicit) {
  hl::ProgramBuilder pb("nullmpi");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.mpi_rank());                                     // 0
    f.emit(f.mpi_size());                                     // 1
    f.emit(f.mpi_allreduce(f.c_f64(2.5), ir::ReduceOp::Sum));  // identity
    f.emit(f.mpi_allreduce(f.c_f64(-7.0), ir::ReduceOp::Min));
    f.mpi_barrier();                                          // no-op
    f.mpi_send(f.c_i64(0), f.c_f64(42.0));                    // dropped
    f.emit(f.mpi_recv(f.c_i64(0)));                           // 0.0
    f.ret();
  }
  auto mod = pb.finish();

  const auto legacy = vm::Vm::run(mod);
  const auto program = vm::DecodedProgram::decode(mod);
  const auto decoded = vm::Vm::run(program);
  for (const auto* r : {&legacy, &decoded}) {
    ASSERT_TRUE(r->completed());
    ASSERT_EQ(r->outputs.size(), 5u);
    EXPECT_EQ(r->outputs[0].as_i64(), 0);
    EXPECT_EQ(r->outputs[1].as_i64(), 1);
    EXPECT_DOUBLE_EQ(r->outputs[2].as_f64(), 2.5);
    EXPECT_DOUBLE_EQ(r->outputs[3].as_f64(), -7.0);
    EXPECT_DOUBLE_EQ(r->outputs[4].as_f64(), 0.0);
  }
  // Where the single-rank-world analogy holds exactly (rank, size,
  // allreduce, barrier), a real one-rank World must agree.
  mpi::World world(1);
  world.launch([&](std::int64_t, vm::MpiEndpoint& ep) {
    EXPECT_EQ(ep.rank(), 0);
    EXPECT_EQ(ep.size(), 1);
    EXPECT_DOUBLE_EQ(ep.allreduce(2.5, ir::ReduceOp::Sum), 2.5);
    ep.barrier();
  });
}

// ---------------------------------------------------------------------------
// Liveness: exceptions, deadlock abort, bad ranks.
// ---------------------------------------------------------------------------

TEST(World, ExceptionFromOneRankPropagates) {
  // Rank 2 throws before joining the collective the other ranks already
  // sit in; the deadlock abort must release them (launch returns instead of
  // hanging) and the ORIGINAL exception must win over the WorldAborted the
  // released ranks see.
  mpi::World world(4);
  try {
    world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
      if (rank == 2) throw std::runtime_error("rank 2 exploded");
      (void)ep.allreduce(1.0, ir::ReduceOp::Sum);
    });
    FAIL() << "launch did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 exploded");
  }
  EXPECT_TRUE(world.aborted());
}

TEST(World, DeadlockAbortsDeterministically) {
  // Rank 0 receives from rank 1, which never sends: once rank 1 has left
  // the body, rank 0 is provably stuck and must see WorldAborted. Pinned
  // over repeated worlds — the abort is a property of the comm pattern,
  // not of scheduling.
  for (int round = 0; round < 20; ++round) {
    mpi::World world(2);
    EXPECT_THROW(
        world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
          if (rank == 0) (void)ep.recv(1);
        }),
        mpi::WorldAborted);
    EXPECT_TRUE(world.aborted());
  }
}

TEST(World, CollectiveMissingOneRankAborts) {
  // Three ranks join a collective, the fourth returns immediately — the
  // collective can never complete.
  mpi::World world(4);
  EXPECT_THROW(world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    if (rank != 3) (void)ep.allreduce(1.0, ir::ReduceOp::Sum);
  }),
               mpi::WorldAborted);
}

TEST(World, BadRankThrows) {
  mpi::World world(2);
  try {
    world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
      if (rank == 0) ep.send(17, 1.0);  // corrupted destination index
    });
    FAIL() << "launch did not rethrow";
  } catch (const mpi::BadRank&) {
  } catch (const mpi::WorldAborted&) {
    // Rank 1 may be the first recorded error only if it raced ahead; the
    // BadRank thrower never blocks, so it must win.
    FAIL() << "BadRank lost to WorldAborted";
  }
}

// ---------------------------------------------------------------------------
// Record-and-replay + multi-rank campaign determinism.
// ---------------------------------------------------------------------------

/// A compact rank-decomposed workload for runtime-bounded campaign tests:
/// a ring of p2p exchanges plus allreduced partial reductions over a small
/// array, with a verification output. Decomposition reads mpi_rank/size at
/// runtime (single-rank runs own everything).
ir::Module ring_program() {
  hl::ProgramBuilder pb("ring");
  constexpr std::int64_t kCells = 24;
  auto g_a = pb.global_f64("a", kCells);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto rank = f.mpi_rank();
    auto size = f.mpi_size();
    auto lo = rank * kCells / size;
    auto hi = (rank + 1) * kCells / size;
    f.for_("j", lo, hi, [&](hl::Value j) {
      f.st(g_a, j, f.sitofp(j) * 0.25 + 1.0);
    });
    f.for_("step", 0, 6, [&](hl::Value) {
      // Ring shift of the block boundary value, then a smoothing pass.
      auto right = (rank + 1) % size;
      auto left = (rank + size - 1) % size;
      f.mpi_send(right, f.ld(g_a, hi - 1));
      auto incoming = f.var_f64("incoming", 0.0);
      incoming.set(f.mpi_recv(left));
      f.st(g_a, lo, (f.ld(g_a, lo) + incoming.get()) * 0.5);
      f.for_("j", lo + 1, hi, [&](hl::Value j) {
        f.st(g_a, j, (f.ld(g_a, j) + f.ld(g_a, j - 1)) * 0.5);
      });
      auto part = f.var_f64("part", 0.0);
      f.for_("j", lo, hi, [&](hl::Value j) {
        part.set(part.get() + f.ld(g_a, j));
      });
      auto total = f.mpi_allreduce(part.get(), ir::ReduceOp::Sum);
      f.st(g_a, lo, f.ld(g_a, lo) + total * 1e-3);
    });
    auto part = f.var_f64("part", 0.0);
    f.for_("j", lo, hi,
           [&](hl::Value j) { part.set(part.get() + f.ld(g_a, j)); });
    auto total = f.mpi_allreduce(part.get(), ir::ReduceOp::Sum);
    auto pass = f.select(f.fabs_(total).lt(1e6), f.c_i64(1), f.c_i64(0));
    f.emit(pass);
    f.emit(total);
    f.ret();
  }
  return pb.finish();
}

/// Per-rank ColumnTraces of a 4-rank run must replay bit-identically
/// against a SOLO re-execution of each rank fed the recorded collective and
/// p2p values — the record-and-replay claim in world.h's header comment.
TEST(RecordReplay, SoloReplayIsBitIdenticalPerRank) {
  const auto mod = ring_program();
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  constexpr std::int64_t kRanks = 4;

  std::vector<trace::ColumnTrace> sinks;
  for (std::int64_t r = 0; r < kRanks; ++r) sinks.emplace_back(program);
  mpi::RankRunOptions opts;
  for (auto& s : sinks) opts.sinks.push_back(&s);
  const auto report = mpi::run_ranks(*program, kRanks, opts);

  for (std::int64_t rank = 0; rank < kRanks; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    ASSERT_EQ(report.ranks[r].trap, vm::TrapKind::None);
    ASSERT_FALSE(report.comm[r].events.empty());

    // Solo re-execution: no world, just the recorded log.
    mpi::ReplayEndpoint replay(rank, kRanks, report.comm[r]);
    trace::ColumnTrace solo_sink(program);
    vm::VmOptions vo;
    vo.mpi = &replay;
    vo.column_sink = &solo_sink;
    const auto solo = vm::Vm::run(*program, vo);

    ASSERT_EQ(solo.trap, vm::TrapKind::None);
    EXPECT_TRUE(replay.exhausted());
    EXPECT_EQ(solo.outputs, report.ranks[r].outputs);
    ASSERT_EQ(solo_sink.size(), sinks[r].size());
    for (std::size_t row = 0; row < solo_sink.size(); ++row) {
      const auto a = sinks[r].record(row);
      const auto b = solo_sink.record(row);
      ASSERT_EQ(a.result_bits, b.result_bits) << "rank " << rank << " row "
                                              << row;
      ASSERT_EQ(a.op, b.op) << "rank " << rank << " row " << row;
      ASSERT_EQ(a.result_loc, b.result_loc);
      ASSERT_EQ(a.mem_addr, b.mem_addr);
    }
  }
}

TEST(RecordReplay, ReplayMismatchIsDetected) {
  const auto mod = ring_program();
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  mpi::RankRunOptions opts;
  const auto report = mpi::run_ranks(*program, 2, opts);
  // Replaying rank 0's log as rank 1 diverges (different block bounds →
  // different op sequence) and must throw, not silently mis-replay.
  mpi::ReplayEndpoint replay(1, 2, report.comm[0]);
  vm::VmOptions vo;
  vo.mpi = &replay;
  EXPECT_THROW((void)vm::Vm::run(*program, vo), mpi::ReplayMismatch);
}

/// Campaign outcome counts across pool sizes 1/2/8, across repeated runs,
/// and with ForkPolicy on vs off — all bit-identical.
TEST(RankCampaign, CountsInvariantAcrossPoolsRunsAndForkPolicy) {
  const auto mod = ring_program();
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  vm::VmOptions base;
  base.max_instructions = std::uint64_t{1} << 24;
  const auto verifier = fault::tolerance_verifier(1e-9);

  const auto enumeration =
      fault::enumerate_rank_sites(program, 4, base, /*keep_traces=*/false);
  fault::RankCampaignConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 40;
  const auto prepared = fault::prepare_rank_campaign(enumeration, base, cfg);
  auto prepared_nofork = prepared;
  prepared_nofork.fork.enabled = false;

  util::Scheduler pool1(1), pool2(2), pool8(8);
  const auto a = fault::run_rank_campaign(*program, prepared, verifier, pool8);
  ASSERT_EQ(a.trials, 40u);
  ASSERT_EQ(a.masked_locally + a.absorbed_by_collective + a.propagated +
                a.corrupted_output + a.trapped,
            a.trials);

  const auto same = [&](const fault::RankCampaignResult& b) {
    EXPECT_EQ(a.masked_locally, b.masked_locally);
    EXPECT_EQ(a.absorbed_by_collective, b.absorbed_by_collective);
    EXPECT_EQ(a.propagated, b.propagated);
    EXPECT_EQ(a.corrupted_output, b.corrupted_output);
    EXPECT_EQ(a.trapped, b.trapped);
    EXPECT_EQ(a.propagation_depth, b.propagation_depth);
    EXPECT_EQ(a.rank_trials, b.rank_trials);
    EXPECT_EQ(a.rank_success, b.rank_success);
  };
  same(fault::run_rank_campaign(*program, prepared, verifier, pool1));
  same(fault::run_rank_campaign(*program, prepared, verifier, pool2));
  same(fault::run_rank_campaign(*program, prepared, verifier, pool8));
  // ForkPolicy never changes counts, only cost.
  same(fault::run_rank_campaign(*program, prepared_nofork, verifier, pool8));
}

/// Regression: a snapshot-forked trial whose injected rank exits through an
/// exception (corrupted send destination => BadRank; the peer is released
/// by the deadlock abort) retires zero instructions on that rank — the
/// instruction accounting must not subtract the skipped prefix from a
/// count that never included it (it underflowed to ~2^64 once).
TEST(RankCampaign, ForkedTrialAbnormalExitAccounting) {
  hl::ProgramBuilder pb("badsend");
  auto g_dest = pb.global_init_i64("dest", {1});
  auto g_acc = pb.global_f64("acc", 4);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    // A long communication-free prefix so a fork waypoint exists.
    f.for_("i", 0, 800, [&](hl::Value i) {
      f.st(g_acc, i % std::int64_t{4}, f.sitofp(i) * 0.5);
    });
    auto rank = f.mpi_rank();
    f.if_else(
        rank.eq(0),
        [&] {
          // The send destination is a loaded value — a single bit flip on
          // the Load's committed result makes it an invalid rank.
          f.mpi_send(f.ld(g_dest, 0), f.c_f64(1.0));
        },
        [&] { f.emit(f.mpi_recv(f.c_i64(0))); });
    f.emit(f.c_i64(1));
    f.ret();
  }
  const auto mod = pb.finish();
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  vm::VmOptions base;

  const auto en =
      fault::enumerate_rank_sites(program, 2, base, /*keep_traces=*/true);
  // Rank 0's destination Load: the last Load before its first comm op.
  const auto& tr0 = *en.golden_traces[0];
  const auto fc = en.first_comm_index[0];
  ASSERT_NE(fc, fault::RankEnumeration::kNoComm);
  std::size_t load_row = fc;
  while (load_row > 0 && tr0.opcode_at(load_row) != ir::Opcode::Load) {
    load_row--;
  }
  ASSERT_EQ(tr0.opcode_at(load_row), ir::Opcode::Load);

  fault::PreparedRankCampaign prep;
  prep.nranks = 2;
  prep.plans = {vm::FaultPlan::result_bit(load_row, 40)};  // dest += 2^40
  prep.plan_rank = {0};
  prep.fork_bounds = {load_row};
  prep.run_opts = base;
  prep.rank_budget = {1u << 20, 1u << 20};
  prep.fork.min_gap = 1;  // let the waypoint land on this short prefix
  prep.golden_outputs = en.golden_outputs;
  prep.golden_comm = en.golden_comm;

  const auto snapshots = fault::prepare_rank_snapshots(*program, prep);
  ASSERT_GT(snapshots.snapshots_taken, 0u);

  std::uint64_t instr = 0, prefix = 0;
  const auto trial =
      fault::run_rank_trial(*program, prep, snapshots, 0,
                            fault::tolerance_verifier(1e-9), &instr, &prefix);
  EXPECT_EQ(trial.outcome, fault::RankOutcome::TrapAnyRank);
  EXPECT_GT(prefix, 0u);  // the fork really skipped prefix work
  // Sane accounting: bounded by what the two ranks could possibly retire.
  EXPECT_LT(instr, std::uint64_t{1} << 22);
}

TEST(RankCampaign, ForkBoundsAreRankLocalLegal) {
  const auto mod = ring_program();
  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(mod));
  vm::VmOptions base;
  const auto enumeration =
      fault::enumerate_rank_sites(program, 3, base, /*keep_traces=*/true);
  fault::RankCampaignConfig cfg;
  cfg.nranks = 3;
  cfg.trials = 64;
  const auto prepared = fault::prepare_rank_campaign(enumeration, base, cfg);
  ASSERT_EQ(prepared.plans.size(), 64u);
  for (std::size_t i = 0; i < prepared.plans.size(); ++i) {
    const auto rank = static_cast<std::size_t>(prepared.plan_rank[i]);
    // Legal fork bound: never past the flip, never past the rank's first
    // blocking communication op.
    EXPECT_LE(prepared.fork_bounds[i], prepared.plans[i].dyn_index);
    EXPECT_LE(prepared.fork_bounds[i], enumeration.first_comm_index[rank]);
    // And the recorded first comm op really is a comm op in the trace.
    const auto& tr = *enumeration.golden_traces[rank];
    const auto fc = enumeration.first_comm_index[rank];
    ASSERT_LT(fc, tr.size());
    const auto op = tr.opcode_at(fc);
    EXPECT_TRUE(op == ir::Opcode::MpiSend || op == ir::Opcode::MpiRecv ||
                op == ir::Opcode::MpiAllreduce ||
                op == ir::Opcode::MpiBarrier);
  }
}

TEST(ParallelTracing, PerRankTraceFiles) {
  auto mod = mpi_program();
  const auto stem =
      (std::filesystem::temp_directory_path() / "ft_mpi_test").string();
  mpi::World world(3);
  world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
    trace::TraceCollector c;
    vm::VmOptions opts;
    opts.mpi = &ep;
    opts.observer = &c;
    (void)vm::Vm::run(mod, opts);
    // Per-process trace files, written without any cross-rank synchronization.
    ASSERT_TRUE(trace::write_trace_file(
        trace::rank_trace_path(stem, static_cast<int>(rank)), c.trace()));
  });
  for (int r = 0; r < 3; ++r) {
    trace::Trace t;
    const auto path = trace::rank_trace_path(stem, r);
    ASSERT_TRUE(trace::read_trace_file(path, t));
    EXPECT_GT(t.size(), 0u);
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace ft
