#include "patterns/detect.h"

#include <unordered_map>

#include "patterns/def_tracker.h"

namespace ft::patterns {

bool PatternReport::any_found() const noexcept {
  for (const auto c : counts) {
    if (c > 0) return true;
  }
  return false;
}

namespace {

class Detector final : public acl::SweepInspector {
 public:
  Detector(const std::vector<std::uint64_t>& clean_bits,
           const DetectOptions& opts, PatternReport& report)
      : clean_bits_(clean_bits), opts_(opts), report_(report) {}

  void on_record(const vm::DynInstr& r, std::size_t pos, bool result_corrupt,
                 const std::function<bool(vm::Location)>& corrupted) override {
    const bool operand_corrupt = any_operand_corrupt(r, corrupted);

    switch (r.op) {
      case ir::Opcode::ICmp:
      case ir::Opcode::FCmp:
      case ir::Opcode::Select:
        // Same comparison outcome / same selected value despite corruption.
        if (operand_corrupt && !result_corrupt) {
          add(PatternKind::ConditionalStatement, r);
        }
        break;
      case ir::Opcode::Shl:
      case ir::Opcode::LShr:
      case ir::Opcode::AShr:
        if (corrupted(r.op_loc[0]) && !result_corrupt) {
          add(PatternKind::Shifting, r);
        }
        break;
      case ir::Opcode::Trunc:
      case ir::Opcode::FPTrunc:
      case ir::Opcode::FPToSI:
      case ir::Opcode::EmitTrunc:
        if (operand_corrupt && !result_corrupt) {
          add(PatternKind::Truncation, r);
        }
        break;
      case ir::Opcode::Store:
        // RA is a floating-point amortization effect (§VI Pattern 2);
        // integer read-modify-write counters do not amortize error.
        if (result_corrupt && is_float(r.op_type[0]) &&
            defs_.is_accumulation_store(r)) {
          track_repeated_addition(r, pos);
        }
        break;
      default:
        break;
    }

    defs_.update(r);
  }

 private:
  static bool any_operand_corrupt(
      const vm::DynInstr& r,
      const std::function<bool(vm::Location)>& corrupted) {
    for (unsigned k = 0; k < r.nops; ++k) {
      if (r.op_loc[k] != vm::kNoLoc && corrupted(r.op_loc[k])) return true;
    }
    return false;
  }

  void track_repeated_addition(const vm::DynInstr& r, std::size_t pos) {
    const double mag = acl::error_magnitude(clean_bits_[pos],
                                            r.result_bits, r.op_type[0]);
    auto& h = ra_history_[r.result_loc];
    if (h.last_magnitude > 0.0 && mag < h.last_magnitude) {
      h.decreases++;
      if (h.decreases >= opts_.ra_min_decreases) {
        add(PatternKind::RepeatedAdditions, r, mag);
      }
    } else if (mag >= h.last_magnitude && h.last_magnitude != 0.0) {
      h.decreases = 0;
    }
    h.last_magnitude = mag;
  }

  void add(PatternKind kind, const vm::DynInstr& r, double detail = 0.0) {
    report_.counts[pattern_index(kind)]++;
    if (report_.instances.size() < opts_.max_instances) {
      report_.instances.push_back(PatternInstanceInfo{
          kind, r.index, r.result_loc, r.line, r.op, detail});
    }
  }

  struct RaHistory {
    double last_magnitude = 0.0;
    unsigned decreases = 0;
  };

  const std::vector<std::uint64_t>& clean_bits_;
  const DetectOptions& opts_;
  PatternReport& report_;
  DefTracker defs_;
  std::unordered_map<vm::Location, RaHistory> ra_history_;
};

}  // namespace

PatternReport detect_patterns(const acl::ColumnDiff& diff,
                              const trace::LocationEvents& events,
                              const DetectOptions& opts) {
  PatternReport report;
  Detector detector(diff.clean_bits, opts, report);
  report.acl =
      acl::build_acl(diff, events, opts.seed_loc, opts.seed_index, &detector);

  // DCL and DO fall out of the ACL event log.
  for (const auto& e : report.acl.events) {
    if (e.kind == acl::AclEventKind::KillDead) {
      report.counts[pattern_index(PatternKind::DeadCorruptedLocations)]++;
      if (report.instances.size() < opts.max_instances) {
        report.instances.push_back(
            PatternInstanceInfo{PatternKind::DeadCorruptedLocations, e.index,
                                e.loc, e.line, e.op, 0.0});
      }
    } else if (e.kind == acl::AclEventKind::KillOverwrite) {
      report.counts[pattern_index(PatternKind::DataOverwriting)]++;
      if (report.instances.size() < opts.max_instances) {
        report.instances.push_back(
            PatternInstanceInfo{PatternKind::DataOverwriting, e.index, e.loc,
                                e.line, e.op, 0.0});
      }
    }
  }
  return report;
}

}  // namespace ft::patterns
