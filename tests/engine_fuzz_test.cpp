// Differential engine fuzzing: a seeded generator of random well-typed
// MiniIR programs (loops, branches, geps, calls, reductions over
// hl::ProgramBuilder) pins all execution engines and trace substrates
// against each other for bit-identical outputs and traces:
//
//   * legacy tree-walk (DynInstr observer substrate) vs decoded engine
//     (columnar direct-emit substrate), record by record
//   * decoded straight-through vs decoded snapshot-forked (run_until +
//     snapshot-construct, and fork_from between two tracked machines), and
//     forked campaigns probing the golden section ladder vs the
//     from-scratch trial loop
//   * edit-proportional golden traces: random constant edits spliced onto
//     the unedited program's lineage root vs from-scratch traced runs
//   * JIT native execution vs decoded/legacy (clean, under a random
//     ResultBit flip, snapshot interop in both directions, fork_from a
//     natively-advanced cursor) — trap kind, trap pc, retired count,
//     outputs and the dirty-page bitmap of tracked runs all bit-identical
//
// Every generated program terminates by construction (loop trip counts are
// bounded constants) and is well-typed by construction (expressions are
// drawn from per-type pools; array indices are nonnegative-mod-size).
// Failures print the offending seed and the pretty-printed IR for triage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "compose/compose.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "fault/outcome.h"
#include "fault/sites.h"
#include "harden/harden.h"
#include "hl/builder.h"
#include "ir/print.h"
#include "jit/jit_program.h"
#include "store/artifact_store.h"
#include "store/trace_io.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/segment.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

bool same_record(const vm::DynInstr& a, const vm::DynInstr& b,
                 std::string* why) {
  const auto fail = [&](const char* field) {
    if (why) *why = field;
    return false;
  };
  if (a.index != b.index) return fail("index");
  if (a.func != b.func || a.block != b.block || a.instr != b.instr) {
    return fail("static coordinates");
  }
  if (a.op != b.op) return fail("opcode");
  if (a.pred != b.pred) return fail("pred");
  if (a.type != b.type) return fail("type");
  if (a.nops != b.nops) return fail("nops");
  if (a.line != b.line) return fail("line");
  if (a.aux != b.aux) return fail("aux");
  if (a.result_loc != b.result_loc) return fail("result_loc");
  if (a.result_bits != b.result_bits) return fail("result_bits");
  for (unsigned i = 0; i < vm::kMaxTracedOps; ++i) {
    if (a.op_loc[i] != b.op_loc[i]) return fail("op_loc");
    if (a.op_bits[i] != b.op_bits[i]) return fail("op_bits");
    if (a.op_type[i] != b.op_type[i]) return fail("op_type");
  }
  if (a.mem_addr != b.mem_addr) return fail("mem_addr");
  if (a.mem_size != b.mem_size) return fail("mem_size");
  if (a.branch_taken != b.branch_taken) return fail("branch_taken");
  return true;
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed)
      : rng_(seed), pb_("fuzz", __FILE__) {}

  ir::Module generate() {
    // Global arrays: a few f64 (one initialized from the seed stream) and
    // one i64 scratch array.
    const int n_arrays = 2 + static_cast<int>(rng_.below(2));
    for (int a = 0; a < n_arrays; ++a) {
      const auto size = static_cast<std::int64_t>(4 + rng_.below(12));
      if (a == 0) {
        std::vector<double> init(static_cast<std::size_t>(size));
        for (auto& v : init) v = rng_.uniform() * 8.0 - 4.0;
        arrays_.push_back(pb_.global_init_f64("g" + std::to_string(a), init));
      } else {
        arrays_.push_back(
            pb_.global_f64("g" + std::to_string(a), static_cast<std::uint64_t>(size)));
      }
      array_size_.push_back(size);
    }
    iarray_ = pb_.global_i64("gi", 8);

    // Optionally a helper function (f64 x, i64 i) -> f64, exercising Call
    // frames, Arg operands and cross-frame Ret commits.
    const bool with_helper = rng_.below(100) < 70;
    std::uint32_t helper = 0;
    if (with_helper) {
      helper = pb_.declare_function(
          "helper", ir::Type::F64,
          {ir::Param{ir::Type::F64, "x"}, ir::Param{ir::Type::I64, "i"}});
    }
    const auto f_main = pb_.declare_function("main");

    if (with_helper) {
      auto f = pb_.define(helper);
      f.at(__LINE__);
      auto x = f.arg(0);
      auto idx = f.arg(1) % array_size_[0];
      auto v = f.ld(arrays_[0], idx);
      auto y = x * 0.5 + v;
      // A branchy tail so helper activations shape control flow too.
      auto out = f.var_f64("out", 0.0);
      f.if_else(
          y.gt(0.0), [&] { out.set(y + 1.0); },
          [&] { out.set(y * -0.25); });
      f.ret(out.get());
      helper_ = helper;
      has_helper_ = true;
    }

    // The whole main body is one declared region so the hardening pass has
    // a protection target on every seed (tests/harden_test.cpp pins the
    // pass itself; the fuzz harness pins its clean-run transparency).
    const auto body_region = pb_.declare_region("body", 0, 0);
    {
      auto f = pb_.define(f_main);
      f.at(__LINE__);
      acc_ = f.var_f64("acc", 0.25);
      iacc_ = f.var_i64("iacc", 3);
      budget_ = 28 + static_cast<int>(rng_.below(40));
      f.region(body_region, [&] {
        block(f, /*depth=*/0, /*loop_vars=*/{});
        // Checksum reduction over every array so all stored state reaches
        // the outputs (a silent divergence cannot hide).
        for (std::size_t a = 0; a < arrays_.size(); ++a) {
          f.for_("ck" + std::to_string(a), 0, array_size_[a],
                 [&](hl::Value j) { acc_.set(acc_.get() + f.ld(arrays_[a], j)); });
        }
        f.for_("cki", 0, 8,
               [&](hl::Value j) { iacc_.set(iacc_.get() + f.ld(iarray_, j)); });
      });
      f.emit(acc_.get());
      f.emit(iacc_.get());
      f.ret();
    }
    return pb_.finish();
  }

 private:
  // A nonnegative i64 expression from loop variables and the integer
  // accumulator; used (mod size) as a safe array index.
  hl::Value int_expr(hl::FunctionBuilder& f,
                     const std::vector<hl::Value>& loop_vars) {
    hl::Value v = loop_vars.empty()
                      ? f.c_i64(static_cast<std::int64_t>(rng_.below(8)))
                      : loop_vars[rng_.below(loop_vars.size())];
    switch (rng_.below(4)) {
      case 0: return v + static_cast<std::int64_t>(rng_.below(5));
      case 1: return v * static_cast<std::int64_t>(1 + rng_.below(3));
      case 2:
        if (!loop_vars.empty()) {
          return v + loop_vars[rng_.below(loop_vars.size())];
        }
        return v;
      default: return v;
    }
  }

  hl::Value index_for(hl::FunctionBuilder& f, std::size_t array,
                      const std::vector<hl::Value>& loop_vars) {
    // Nonnegative dividend: SRem keeps the result in [0, size).
    return int_expr(f, loop_vars) % array_size_[array];
  }

  hl::Value float_expr(hl::FunctionBuilder& f,
                       const std::vector<hl::Value>& loop_vars, int depth) {
    switch (depth > 2 ? rng_.below(4) : rng_.below(9)) {
      case 0: return f.c_f64(rng_.uniform() * 4.0 - 2.0);
      case 1: return acc_.get();
      case 2: {
        const auto a = rng_.below(arrays_.size());
        return f.ld(arrays_[a], index_for(f, a, loop_vars));
      }
      case 3: return f.sitofp(int_expr(f, loop_vars));
      case 4:
        return float_expr(f, loop_vars, depth + 1) +
               float_expr(f, loop_vars, depth + 1);
      case 5:
        return float_expr(f, loop_vars, depth + 1) *
               float_expr(f, loop_vars, depth + 1);
      case 6: {
        auto c = float_expr(f, loop_vars, depth + 1)
                     .gt(float_expr(f, loop_vars, depth + 1));
        return f.select(c, float_expr(f, loop_vars, depth + 1),
                        float_expr(f, loop_vars, depth + 1));
      }
      case 7: return f.fsqrt(f.fabs_(float_expr(f, loop_vars, depth + 1)));
      default: {
        // Gep + raw load: pointer arithmetic over an array base.
        const auto a = rng_.below(arrays_.size());
        auto ptr = f.gep(f.addr_of(arrays_[a]), index_for(f, a, loop_vars),
                         8);
        return f.ld_raw(ptr, ir::Type::F64);
      }
    }
  }

  void statement(hl::FunctionBuilder& f,
                 const std::vector<hl::Value>& loop_vars, int depth) {
    budget_--;
    switch (rng_.below(8)) {
      case 0: {  // array store
        const auto a = rng_.below(arrays_.size());
        f.st(arrays_[a], index_for(f, a, loop_vars),
             float_expr(f, loop_vars, 0));
        break;
      }
      case 1:  // float reduction step
        acc_.set(acc_.get() + float_expr(f, loop_vars, 0));
        break;
      case 2: {  // integer scratch store + reduction
        auto idx = int_expr(f, loop_vars) % std::int64_t{8};
        f.st(iarray_, idx, int_expr(f, loop_vars));
        iacc_.set(iacc_.get() ^ int_expr(f, loop_vars));
        break;
      }
      case 3: {  // branch
        auto c = float_expr(f, loop_vars, 1).lt(float_expr(f, loop_vars, 1));
        if (rng_.below(2) == 0) {
          f.if_(c, [&] { block(f, depth + 1, loop_vars); });
        } else {
          f.if_else(
              c, [&] { block(f, depth + 1, loop_vars); },
              [&] { block(f, depth + 1, loop_vars); });
        }
        break;
      }
      case 4: {  // bounded counted loop
        if (depth >= 3) {
          acc_.set(acc_.get() * 0.5);
          break;
        }
        const auto trip = static_cast<std::int64_t>(1 + rng_.below(5));
        f.for_("i" + std::to_string(depth) + "_" +
                   std::to_string(budget_ < 0 ? 0 : budget_),
               0, trip, [&](hl::Value i) {
                 auto inner = loop_vars;
                 inner.push_back(i);
                 block(f, depth + 1, inner);
               });
        break;
      }
      case 5:  // helper call feeding the reduction
        if (has_helper_) {
          auto r = f.call(helper_,
                          {float_expr(f, loop_vars, 1),
                           int_expr(f, loop_vars)});
          acc_.set(acc_.get() + r);
        } else {
          acc_.set(acc_.get() - 0.125);
        }
        break;
      case 6: {  // raw gep store
        const auto a = rng_.below(arrays_.size());
        auto ptr =
            f.gep(f.addr_of(arrays_[a]), index_for(f, a, loop_vars), 8);
        f.st_raw(ptr, float_expr(f, loop_vars, 0));
        break;
      }
      default:  // randlc draw (exercises the RNG state in snapshots)
        acc_.set(acc_.get() + f.rand_() * 0.01);
        break;
    }
  }

  void block(hl::FunctionBuilder& f, int depth,
             const std::vector<hl::Value>& loop_vars) {
    const int stmts = 1 + static_cast<int>(rng_.below(depth == 0 ? 5 : 3));
    for (int s = 0; s < stmts && budget_ > 0; ++s) {
      statement(f, loop_vars, depth);
    }
  }

  util::Rng rng_;
  hl::ProgramBuilder pb_;
  std::vector<hl::GlobalArray> arrays_;
  std::vector<std::int64_t> array_size_;
  hl::GlobalArray iarray_;
  hl::Var acc_;
  hl::Var iacc_;
  std::uint32_t helper_ = 0;
  bool has_helper_ = false;
  int budget_ = 0;
};

// ---------------------------------------------------------------------------
// The differential harness.
// ---------------------------------------------------------------------------

/// Runs every engine/substrate combination on one generated program and
/// returns false (with a diagnostic) on the first divergence.
/// Lineage leg: a store whose lineage root is the unedited program's full
/// trace; random constant edits must splice onto the root's prefix —
/// tracing exactly the rows from the edited pc's first execution on —
/// and equal a from-scratch traced run of the edited program in every
/// column and in the golden run. Empty on success, else what went wrong.
std::string check_lineage(const ir::Module& m, std::uint64_t seed,
                          std::uint64_t instructions) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "ft-fuzz-lineage-XXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const std::string dir = mkdtemp(buf.data());
  auto st = std::make_shared<store::ArtifactStore>(dir);
  apps::AppSpec spec;
  spec.name = "fuzz";
  spec.module = m;
  // Edited loop bounds may run longer: a runaway edit hangs quickly.
  spec.base.max_instructions = 4 * instructions + 1000;
  const auto session = [&](const apps::AppSpec& s) {
    auto out = std::make_shared<core::AnalysisSession>(s);
    out->attach_store(st);
    return out;
  };
  const auto root_session = session(spec);
  const auto root = root_session->golden_trace();
  (void)root_session->whole_program_sites();  // publishes its ladder facts
  const auto cols = root->raw();
  std::vector<std::uint64_t> first(root->program().code_size(), cols.rows);
  for (std::uint64_t r = cols.rows; r-- > 0;) first[cols.pc[r]] = r;

  std::vector<std::uint32_t> editable;
  for (std::uint32_t pc = 0; pc < first.size(); ++pc) {
    const auto& d = root->program().code()[pc];
    for (const auto& o : m.function(d.func).blocks[d.block].instrs[d.instr].ops) {
      if (o.kind == ir::OperandKind::ImmF || o.kind == ir::OperandKind::ImmI) {
        editable.push_back(pc);
        break;
      }
    }
  }
  std::string why;
  util::Rng rng(seed * 0x2545F4914F6CDD1Dull + 7);
  for (int e = 0; e < 3 && !editable.empty() && why.empty(); ++e) {
    // Distinct pcs: a repeated edit would load the first one's derived
    // trace instead of splicing.
    const auto pick = rng.below(editable.size());
    const auto pc = editable[pick];
    editable.erase(editable.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto& d = root->program().code()[pc];
    auto edited = spec;
    for (auto& o :
         edited.module.function(d.func).blocks[d.block].instrs[d.instr].ops) {
      if (o.kind == ir::OperandKind::ImmF) o.imm_f = o.imm_f * 1.0009765625 + 0.0009765625;
      if (o.kind == ir::OperandKind::ImmI) o.imm_i += 1;
    }
    const auto program = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(edited.module));
    trace::ColumnTrace scratch(program);
    vm::VmOptions opts = edited.base;
    opts.column_sink = &scratch;
    const auto run = vm::Vm::run(*program, opts);
    const auto s = session(edited);
    const std::string at = "edit of pc " + std::to_string(pc) + ": ";
    if (!run.completed()) {
      try {
        (void)s->golden_trace();
        why = at + "spliced run completed where the scratch run trapped";
      } catch (const std::runtime_error&) {
      }
      continue;
    }
    const auto spliced = s->golden_trace();
    const auto a = spliced->raw();
    const auto b = scratch.raw();
    const auto same = [](const void* x, const void* y, std::size_t n) {
      return n == 0 || std::memcmp(x, y, n) == 0;
    };
    if (a.rows != b.rows || a.ops != b.ops || a.num_extras != b.num_extras ||
        !same(a.pc, b.pc, 4 * a.rows) ||
        !same(a.activation, b.activation, 4 * a.rows) ||
        !same(a.ops_offset, b.ops_offset, 4 * a.rows) ||
        !same(a.result_bits, b.result_bits, 8 * a.rows) ||
        !same(a.op_bits, b.op_bits, 8 * a.ops) ||
        !same(a.extras, b.extras, 24 * a.num_extras)) {
      why = at + "spliced trace differs from the scratch trace";
    } else if (s->golden()->outputs != run.outputs ||
               s->golden()->instructions != run.instructions) {
      why = at + "spliced golden run differs from the scratch run";
    } else if (s->traced_instructions_executed() !=
               run.instructions - std::min(first[pc], run.instructions)) {
      why = at + "traced " + std::to_string(s->traced_instructions_executed()) +
            " instructions, expected " +
            std::to_string(run.instructions - first[pc]);
    } else {
      // Golden facts reused from the root equal a storeless session's.
      core::AnalysisSession ref(edited);
      const auto& a = s->whole_program_sites()->sites.internal;
      const auto& b = ref.whole_program_sites()->sites.internal;
      if (*s->region_instances() != *ref.region_instances()) {
        why = at + "region instances differ from a storeless session's";
      } else if (!s->ladder() || !ref.ladder() ||
                 s->ladder()->sections != ref.ladder()->sections) {
        why = at + "ladder sections differ from a storeless session's";
      } else if (a.size() != b.size() ||
                 !std::equal(a.begin(), a.end(), b.begin(),
                             [](const auto& x, const auto& y) {
                               return x.dyn_index == y.dyn_index &&
                                      x.width_bits == y.width_bits;
                             })) {
        why = at + "whole-program sites differ from a storeless session's";
      }
    }
  }
  std::filesystem::remove_all(dir);
  return why;
}

bool check_seed(std::uint64_t seed, std::string* diag) {
  std::ostringstream why;
  const ir::Module m = ProgramGen(seed).generate();
  const auto fail = [&](auto&&... parts) {
    (why << ... << parts);
    why << "\nseed " << seed << "\n" << ir::to_string(m);
    *diag = why.str();
    return false;
  };

  // Reference: legacy tree-walk with the DynInstr observer substrate.
  trace::TraceCollector legacy_tc;
  vm::VmOptions legacy_opts;
  legacy_opts.observer = &legacy_tc;
  const auto legacy = vm::Vm::run(m, legacy_opts);

  const auto program = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(m));

  // Decoded engine, columnar direct-emit substrate, vs the legacy
  // observer records.
  trace::ColumnTrace sink(program);
  vm::VmOptions col_opts;
  col_opts.column_sink = &sink;
  const auto decoded = vm::Vm::run(*program, col_opts);

  if (decoded.trap != legacy.trap) return fail("trap mismatch");
  if (decoded.instructions != legacy.instructions) {
    return fail("retired-count mismatch: legacy ", legacy.instructions,
                " decoded ", decoded.instructions);
  }
  if (decoded.outputs != legacy.outputs) return fail("outputs mismatch");
  if (legacy_tc.trace().size() != sink.size()) {
    return fail("trace length mismatch");
  }
  for (std::size_t i = 0; i < sink.size(); ++i) {
    std::string field;
    if (!same_record(legacy_tc.trace().records[i], sink.record(i), &field)) {
      return fail("legacy/columnar trace record ", i, " differs in ", field);
    }
  }

  if (decoded.completed()) {
    if (const auto why = check_lineage(m, seed, decoded.instructions);
        !why.empty()) {
      return fail("lineage splice: ", why);
    }
  }

  // On-disk round trip: serialize the columnar trace, mmap-load it back
  // (zero-copy adoption over the mapped segments), and pin every record
  // bit-identical to the in-memory trace it came from.
  {
    const std::string path = testing::TempDir() + "engine_fuzz_" +
                             std::to_string(seed) + ".fttrace";
    std::string err;
    if (!store::save_trace_file(path, sink, /*program_hash=*/seed, &err)) {
      return fail("trace save failed: ", err);
    }
    const auto loaded = store::load_trace_file(path, program, seed);
    std::remove(path.c_str());
    if (!loaded.trace) return fail("trace load failed: ", loaded.error);
    if (!loaded.trace->borrowed()) return fail("loaded trace not borrowed");
    if (loaded.trace->size() != sink.size()) {
      return fail("loaded trace length mismatch");
    }
    for (std::size_t i = 0; i < sink.size(); ++i) {
      std::string field;
      if (!same_record(sink.record(i), loaded.trace->record(i), &field)) {
        return fail("saved/loaded record ", i, " differs in ", field);
      }
    }
  }

  // Untraced decoded hot loop.
  if (vm::Vm::run(*program, {}).outputs != decoded.outputs) {
    return fail("untraced outputs mismatch");
  }

  // JIT native engine: untraced execution pinned against decoded/legacy —
  // trap kind, trap pc, retired count and outputs, clean and under a
  // randomly placed ResultBit flip — plus snapshot interop in both
  // directions and fork_from a natively-advanced golden cursor.
  const auto jit = jit::JitProgram::supported()
                       ? jit::JitProgram::compile(*program)
                       : nullptr;
  if (jit) {
    vm::VmOptions jo;
    jo.jit = jit.get();

    vm::Vm dv(*program, vm::VmOptions{});
    const auto dr = dv.run();
    vm::Vm jv(*program, jo);
    const auto jr = jv.run();
    if (jr.trap != dr.trap) return fail("jit trap mismatch");
    if (jv.next_pc() != dv.next_pc()) {
      return fail("jit trap-pc mismatch: decoded pc ", dv.next_pc(),
                  " jit pc ", jv.next_pc());
    }
    if (jr.instructions != dr.instructions) {
      return fail("jit retired-count mismatch: decoded ", dr.instructions,
                  " jit ", jr.instructions);
    }
    if (jr.outputs != dr.outputs) return fail("jit outputs mismatch");
    if (jr.outputs != legacy.outputs) {
      return fail("jit/legacy outputs mismatch");
    }

    if (legacy.instructions > 4) {
      util::Rng frng(seed * 0x9e3779b97f4a7c15ull + 1);
      const auto plan = vm::FaultPlan::result_bit(
          frng.below(legacy.instructions),
          static_cast<std::uint32_t>(frng.below(64)));
      vm::VmOptions fo_i;
      fo_i.fault = plan;
      auto fo_j = jo;
      fo_j.fault = plan;
      const auto fi = vm::Vm::run(*program, fo_i);
      const auto fj = vm::Vm::run(*program, fo_j);
      if (fi.trap != fj.trap || fi.instructions != fj.instructions ||
          fi.fault_fired != fj.fault_fired || fi.outputs != fj.outputs) {
        return fail("jit faulted-run mismatch at dyn_index ",
                    plan.dyn_index);
      }

      const std::uint64_t half = legacy.instructions / 2;
      vm::Vm jcur(*program, jo);
      jcur.run_until(half);
      if (jcur.status() == vm::Vm::Status::Running) {
        vm::Vm icur(*program, vm::VmOptions{});
        icur.run_until(half);
        if (!icur.state_equals(jcur.snapshot())) {
          return fail("jit/interp machine-state divergence at pause ", half);
        }
        vm::Vm tail_i(*program, jcur.snapshot(), {});
        if (tail_i.run().outputs != decoded.outputs) {
          return fail("jit-snapshot interpreter-tail outputs mismatch");
        }
        vm::Vm tail_j(*program, icur.snapshot(), jo);
        if (tail_j.run().outputs != decoded.outputs) {
          return fail("interp-snapshot jit-tail outputs mismatch");
        }

        auto tracked_j = jo;
        tracked_j.track_writes = true;
        vm::Vm jgolden(*program, tracked_j);
        jgolden.run_until(legacy.instructions / 3);
        vm::Vm jtrial(*program, tracked_j);
        jtrial.fork_from(jgolden, /*full=*/true);
        if (jtrial.run().outputs != decoded.outputs) {
          return fail("jit fork_from outputs mismatch");
        }

        // Write tracking: the same tracked history on the interpreter must
        // leave the same dirty-page bitmap, word for word — from scratch
        // and after fork_from (whose bitmap holds only the tail's writes).
        vm::VmOptions tracked_i;
        tracked_i.track_writes = true;
        vm::Vm igolden(*program, tracked_i);
        igolden.run_until(legacy.instructions / 3);
        vm::Vm itrial(*program, tracked_i);
        itrial.fork_from(igolden, /*full=*/true);
        itrial.run();
        const auto same_bitmap = [](const vm::Vm& a, const vm::Vm& b) {
          const auto da = a.dirty_pages();
          const auto db = b.dirty_pages();
          return std::equal(da.begin(), da.end(), db.begin(), db.end());
        };
        if (!same_bitmap(itrial, jtrial)) {
          return fail("jit fork_from dirty-page bitmap mismatch");
        }
        vm::Vm iscratch(*program, tracked_i);
        iscratch.run();
        vm::Vm jscratch(*program, tracked_j);
        jscratch.run();
        if (!same_bitmap(iscratch, jscratch)) {
          return fail("jit tracked-run dirty-page bitmap mismatch");
        }
      }
    }
  }

  // Snapshot-forked: pause mid-run, snapshot, resume a fresh machine from
  // the snapshot, and fork a tracked machine from a tracked golden cursor.
  if (legacy.instructions > 4) {
    const std::uint64_t half = legacy.instructions / 2;
    vm::Vm cursor(*program, vm::VmOptions{});
    cursor.run_until(half);
    if (cursor.status() == vm::Vm::Status::Running) {
      const auto snap = cursor.snapshot();
      vm::Vm resumed(*program, snap, {});
      if (resumed.run().outputs != decoded.outputs) {
        return fail("snapshot-resumed outputs mismatch");
      }

      vm::VmOptions tracked;
      tracked.track_writes = true;
      vm::Vm golden(*program, tracked);
      golden.run_until(legacy.instructions / 3);
      vm::Vm trial(*program, tracked);
      trial.fork_from(golden, /*full=*/true);
      if (trial.run().outputs != decoded.outputs) {
        return fail("fork_from outputs mismatch");
      }
    }
  }

  // Composition leg: on every seed with a usable campaign, the composed
  // engine must report outcome counts bit-identical to the exhaustive
  // scheduler, and its section summaries must survive a save -> load round
  // trip through the artifact store (the warm re-run consumes exactly what
  // the cold run published). A mismatch names the offending section.
  if (legacy.trap == vm::TrapKind::None && legacy.instructions > 8) {
    const auto sites = fault::enumerate_whole_program_sites(*program, {});
    // Trace-derived sites equal the per-record rule over the materialized
    // records (Ret commits included: some programs call a helper).
    std::size_t nsite = 0;
    for (const vm::DynInstr& r : sink.view()) {
      if (r.result_loc == vm::kNoLoc) continue;
      const auto w =
          bit_width(r.op == ir::Opcode::Store ? r.op_type[0] : r.type);
      if (w == 0) continue;
      if (nsite >= sites.sites.internal.size() ||
          sites.sites.internal[nsite].dyn_index != r.index ||
          sites.sites.internal[nsite].width_bits != w) {
        return fail("whole-program site ", nsite, " differs from record ",
                    r.index);
      }
      ++nsite;
    }
    if (nsite != sites.sites.internal.size()) {
      return fail("whole-program site count mismatch");
    }
    fault::CampaignConfig ccfg;
    ccfg.trials = 12;
    ccfg.seed = seed * 0x6C62272E07BB0142ull + 11;
    const auto prepared = fault::prepare_campaign(
        sites, fault::TargetClass::Internal, {}, ccfg);
    if (sites.region_found && !prepared.plans.empty()) {
      const auto instances = trace::segment_regions(sink);
      const auto verify = fault::tolerance_verifier(1e-9);
      util::Scheduler pool(2);
      const auto exhaustive = fault::run_prepared_campaign(
          *program, prepared, decoded.outputs, verify, pool);
      const auto plan =
          compose::plan_sections(*program, sink, instances, prepared);

      const auto same = [](const fault::CampaignResult& a,
                           const fault::CampaignResult& b) {
        return a.success == b.success && a.failed == b.failed &&
               a.crashed == b.crashed &&
               a.detected_recovered == b.detected_recovered &&
               a.detected_unrecoverable == b.detected_unrecoverable;
      };

      // Ladder leg: forked trials probing the golden section ladder (both
      // closure rules) must keep the from-scratch trial loop's counts.
      auto scratch = prepared;
      scratch.fork.enabled = false;
      const auto oracle = fault::run_prepared_campaign(
          *program, scratch, decoded.outputs, verify, pool);
      auto laddered = prepared;
      laddered.ladder = plan.ladder;
      const auto probed = fault::run_prepared_campaign(
          *program, laddered, decoded.outputs, verify, pool);
      if (!same(exhaustive, oracle) || !same(probed, oracle)) {
        return fail("ladder-probed forked/from-scratch count mismatch");
      }
      if (probed.dead_delta_exits > probed.early_exits) {
        return fail("dead-delta exits exceed early exits");
      }
      const auto offending_section = [&]() -> std::string {
        for (std::size_t s = 0; s < plan.sections.size(); ++s) {
          if (plan.section_plans[s].empty()) continue;
          auto sub = prepared;
          sub.plans.clear();
          sub.fork_bounds.clear();
          for (const auto i : plan.section_plans[s]) {
            sub.plans.push_back(prepared.plans[i]);
            sub.fork_bounds.push_back(prepared.fork_bounds[i]);
          }
          const auto subplan =
              compose::plan_sections(*program, sink, instances, sub);
          const auto ex = fault::run_prepared_campaign(
              *program, sub, decoded.outputs, verify, pool);
          const auto co = compose::run_composed_campaign(
              *program, sub, subplan, decoded.outputs, verify, pool);
          if (!same(co.counts, ex)) return std::to_string(s);
        }
        return "unisolated (cross-section)";
      };

      const auto composed = compose::run_composed_campaign(
          *program, prepared, plan, decoded.outputs, verify, pool);
      if (!same(composed.counts, exhaustive)) {
        return fail("composed/exhaustive count mismatch, section ",
                    offending_section());
      }

      // Save -> load round trip: a cold store-backed run publishes every
      // summary; the warm re-run must decode them all (hits == computed)
      // and close with identical counts.
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "ft-fuzz-XXXXXX");
      std::vector<char> buf(tmpl.begin(), tmpl.end());
      buf.push_back('\0');
      const std::string dir = mkdtemp(buf.data());
      {
        compose::ComposeOptions copts;
        copts.store = std::make_shared<store::ArtifactStore>(dir);
        copts.options_hash = store::hash_options({});
        copts.config = ccfg;
        const auto cold = compose::run_composed_campaign(
            *program, prepared, plan, decoded.outputs, verify, pool, copts);
        const auto warm = compose::run_composed_campaign(
            *program, prepared, plan, decoded.outputs, verify, pool, copts);
        std::filesystem::remove_all(dir);
        if (!same(cold.counts, exhaustive) || !same(warm.counts, exhaustive)) {
          return fail("store-backed composed count mismatch, section ",
                      offending_section());
        }
        if (warm.summary_store_hits != cold.summaries_computed) {
          return fail("summary round-trip loss: computed ",
                      cold.summaries_computed, " summaries, warm run hit ",
                      warm.summary_store_hits);
        }
      }
    }
  }

  // Hardened leg: the unguided pass protects the generated body region;
  // the emitted module must verify, and its clean run must be
  // output-bit-identical to the ORIGINAL program on all three engines
  // (the detectors may only observe, never perturb).
  {
    const auto hardened = harden::harden_module(m, harden::HardenConfig{});
    if (!hardened.verify_errors.empty()) {
      return fail("hardened module fails ir::verify: ",
                  hardened.verify_errors.front());
    }
    const auto hlegacy = vm::Vm::run(hardened.module);
    if (hlegacy.trap != legacy.trap) {
      return fail("hardened legacy trap mismatch: original ",
                  static_cast<int>(legacy.trap), " hardened ",
                  static_cast<int>(hlegacy.trap));
    }
    if (hlegacy.outputs != legacy.outputs) {
      return fail("hardened legacy outputs mismatch");
    }
    const auto hprogram = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(hardened.module));
    const auto hdecoded = vm::Vm::run(*hprogram, {});
    if (hdecoded.trap != hlegacy.trap ||
        hdecoded.instructions != hlegacy.instructions ||
        hdecoded.outputs != hlegacy.outputs) {
      return fail("hardened decoded/legacy divergence");
    }
    if (const auto hjit = jit::JitProgram::supported()
                              ? jit::JitProgram::compile(*hprogram)
                              : nullptr) {
      vm::VmOptions jo;
      jo.jit = hjit.get();
      const auto hj = vm::Vm::run(*hprogram, jo);
      if (hj.trap != hdecoded.trap ||
          hj.instructions != hdecoded.instructions ||
          hj.outputs != hdecoded.outputs) {
        return fail("hardened jit/decoded divergence");
      }
    }
  }
  return true;
}

TEST(EngineFuzz, TwoHundredSeedsAllEnginesAgree) {
  // Each seed generates one program; every engine pair must agree
  // bit-for-bit. On failure the diagnostic carries the seed and the IR.
  std::size_t trapped = 0;
  std::uint64_t total_instructions = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::string diag;
    const bool ok = check_seed(seed, &diag);
    ASSERT_TRUE(ok) << diag;
    // Cheap corpus stats so a degenerate generator (everything trapping
    // instantly) cannot pass silently.
    const ir::Module m = ProgramGen(seed).generate();
    const auto r = vm::Vm::run(m);
    total_instructions += r.instructions;
    if (!r.completed()) trapped++;
  }
  // The corpus must be substantial and mostly well-behaved.
  EXPECT_GT(total_instructions, 100000u);
  EXPECT_LT(trapped, 40u);
}

TEST(EngineFuzz, NoJitEnvironmentVariableDisablesRuntime) {
  // FT_VM_NO_JIT is the one switch that forces every JIT user back to the
  // interpreter; CI runs the full suite once with it set. Empty and "0"
  // keep the JIT on; anything else turns it off.
  if (!jit::JitProgram::supported()) GTEST_SKIP();
  ASSERT_EQ(setenv("FT_VM_NO_JIT", "1", 1), 0);
  EXPECT_FALSE(jit::JitProgram::runtime_enabled());
  ASSERT_EQ(setenv("FT_VM_NO_JIT", "0", 1), 0);
  EXPECT_TRUE(jit::JitProgram::runtime_enabled());
  ASSERT_EQ(setenv("FT_VM_NO_JIT", "", 1), 0);
  EXPECT_TRUE(jit::JitProgram::runtime_enabled());
  unsetenv("FT_VM_NO_JIT");
  EXPECT_TRUE(jit::JitProgram::runtime_enabled());
}

}  // namespace
}  // namespace ft
