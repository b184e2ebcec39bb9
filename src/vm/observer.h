// Dynamic-instruction records and the observer hook.
//
// The legacy (ir::Module) engine invokes an ExecObserver after each retired
// instruction with a DynInstr record carrying everything LLVM-Tracer's trace
// format carries (instruction type, register names, operand values, §IV-A):
// static coordinates, operand/result locations and bit patterns, memory
// effective address and branch outcome. Tracers, region segmenters, ACL
// trackers and pattern counters are all observers; analyses can run
// streaming without materializing multi-gigabyte traces. The decoded engine
// records into a trace::ColumnTrace instead, whose rows materialize the same
// DynInstr on demand.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ir/instruction.h"
#include "vm/location.h"

namespace ft::vm {

inline constexpr unsigned kMaxTracedOps = 3;

struct DynInstr {
  std::uint64_t index = 0;  // dynamic instruction index, 0-based
  std::uint32_t func = 0;   // static coordinates
  std::uint32_t block = 0;
  std::uint32_t instr = 0;  // index within block
  ir::Opcode op = ir::Opcode::Br;
  ir::CmpPred pred = ir::CmpPred::None;
  ir::Type type = ir::Type::Void;
  std::uint8_t nops = 0;
  std::uint32_t line = 0;
  std::int64_t aux = 0;

  Location result_loc = kNoLoc;
  std::uint64_t result_bits = 0;

  std::array<Location, kMaxTracedOps> op_loc{};
  std::array<std::uint64_t, kMaxTracedOps> op_bits{};
  std::array<ir::Type, kMaxTracedOps> op_type{};

  std::uint64_t mem_addr = 0;  // effective address for load/store
  std::uint32_t mem_size = 0;
  bool branch_taken = false;  // for condbr

  bool operator==(const DynInstr&) const = default;
};

class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  /// Called after every retired dynamic instruction (subject to enabled()).
  virtual void on_instruction(const DynInstr& d) = 0;
  /// Trace control: when false, the VM skips record construction and
  /// delivery for non-marker instructions. RegionEnter/RegionExit are
  /// always delivered so gating observers can toggle on region boundaries.
  [[nodiscard]] virtual bool enabled() const { return true; }
};

/// Region markers are always delivered (even through disabled observers) so
/// gating observers can toggle on region boundaries.
[[nodiscard]] inline bool is_region_marker(const DynInstr& d) noexcept {
  return ir::is_region_marker(d.op);
}

/// Observer pipeline with per-stage gating.
///
/// Each stage is an observer plus an optional per-record filter. A record is
/// delivered to a stage when the stage's own enabled() says so (region
/// markers bypass stage gating, mirroring the VM contract) and the filter —
/// if any — accepts it. The chain's enabled() is the OR over its stages, so
/// a fully gated pipeline keeps the VM on the fast path (no DynInstr
/// materialization outside marker instructions).
class ObserverChain final : public ExecObserver {
 public:
  /// Per-record predicate as a plain function pointer plus an opaque
  /// context — invoked once per delivered record, so the type-erased
  /// dispatch (and potential allocation) of std::function has no place
  /// here. Stateless filters (captureless lambdas) convert implicitly via
  /// the then() overload below; stateful ones pass their state as `ctx`.
  struct Filter {
    bool (*fn)(const DynInstr&, void*) = nullptr;
    void* ctx = nullptr;

    [[nodiscard]] explicit operator bool() const noexcept {
      return fn != nullptr;
    }
    [[nodiscard]] bool operator()(const DynInstr& d) const {
      return fn(d, ctx);
    }
  };

  /// Append a stage; records reach it subject to `o->enabled()`.
  ObserverChain& then(ExecObserver* o) { return then(o, Filter{}); }
  /// Append a stage with a stateless per-record filter (captureless
  /// lambdas decay to this). Filters see region markers too; stateful
  /// filters rely on that.
  ObserverChain& then(ExecObserver* o, bool (*fn)(const DynInstr&)) {
    return then(o, Filter{[](const DynInstr& d, void* ctx) {
                            return reinterpret_cast<bool (*)(const DynInstr&)>(
                                ctx)(d);
                          },
                          reinterpret_cast<void*>(fn)});
  }
  /// Append a stage with a contextful per-record filter.
  ObserverChain& then(ExecObserver* o, Filter filter) {
    stages_.push_back(Stage{o, filter});
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return stages_.size(); }

  void on_instruction(const DynInstr& d) override {
    const bool marker = is_region_marker(d);
    for (auto& s : stages_) {
      if (!marker && !s.observer->enabled()) continue;
      if (s.filter && !s.filter(d)) continue;
      s.observer->on_instruction(d);
    }
  }

  /// True iff any stage wants records — the VM's fast-path gate.
  [[nodiscard]] bool enabled() const override {
    for (const auto& s : stages_) {
      if (s.observer->enabled()) return true;
    }
    return false;
  }

 private:
  struct Stage {
    ExecObserver* observer = nullptr;
    Filter filter;
  };
  std::vector<Stage> stages_;
};

/// Forwards records to a sink only inside one dynamic-instance window of a
/// region, markers of that window included ("selectively collect traces for
/// individual functions", §IV-A). enabled() tracks the window, so a chain
/// of gated sinks keeps the VM on the fast path outside the window.
class RegionWindowGate final : public ExecObserver {
 public:
  RegionWindowGate(ExecObserver* sink, std::uint32_t region_id,
                   std::uint32_t instance = 0)
      : sink_(sink), region_(region_id), instance_(instance) {}

  void on_instruction(const DynInstr& d) override {
    if (d.op == ir::Opcode::RegionEnter &&
        static_cast<std::uint32_t>(d.aux) == region_) {
      if (seen_++ == instance_) active_ = true;
      // Depth-count same-id re-entries so a region nested inside itself
      // does not close the window early (instances are numbered per
      // RegionEnter, matching trace::RegionSegmenter).
      if (active_) depth_++;
    }
    if (active_) sink_->on_instruction(d);
    if (d.op == ir::Opcode::RegionExit &&
        static_cast<std::uint32_t>(d.aux) == region_ && active_) {
      if (--depth_ == 0) active_ = false;
    }
  }

  [[nodiscard]] bool enabled() const override { return active_; }

 private:
  ExecObserver* sink_;
  std::uint32_t region_;
  std::uint32_t instance_;
  std::uint32_t seen_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace ft::vm
