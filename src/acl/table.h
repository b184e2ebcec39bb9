// The Alive Corrupted Locations (ACL) table (§III-C).
//
// Given a faulty instruction stream annotated with "does this result differ
// from the fault-free run?", the sweep maintains the set of alive corrupted
// locations and emits a per-instruction count (the last row of the paper's
// Fig. 3) plus the birth/death event log the pattern detectors consume.
//
// Death rules (validated against the worked example in Fig. 3):
//  * KillOverwrite — the location is written with a value equal to the
//    fault-free run's value (Pattern 6, Data Overwriting);
//  * KillDead — the location is read and has no later read or write in the
//    trace: its corrupted value is provably never referenced again
//    (feeds Pattern 1, Dead Corrupted Locations);
//  * KillEndOfTrace — still corrupted when the stream ends (counted dead at
//    the final instruction, as in Fig. 3's instruction 6).
//
// Two corruption predicates are supported:
//  * value-diff (preferred; needs a ColumnDiff): corrupted = bits differ
//    from the matching fault-free record — this is what lets shifts,
//    truncations and conditionals *mask* corruption;
//  * taint (fallback past control-flow divergence): classic dataflow taint
//    seeded at the injection, minus dead/overwritten locations (§IV-B).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "acl/diff.h"
#include "trace/events.h"

namespace ft::acl {

enum class AclEventKind : std::uint8_t {
  Birth,          // location newly corrupted
  Rebirth,        // corrupted location written with a still-corrupt value
  KillOverwrite,  // overwritten with a clean value
  KillDead,       // last reference retired; never referenced again
  KillEndOfTrace, // corrupted when the stream ended
};

[[nodiscard]] std::string_view acl_event_kind_name(AclEventKind k) noexcept;

struct AclEvent {
  std::uint64_t index = 0;       // dynamic instruction index
  vm::Location loc = vm::kNoLoc;
  AclEventKind kind = AclEventKind::Birth;
  ir::Opcode op = ir::Opcode::Br;  // opcode of the instruction at `index`
  std::uint32_t line = 0;          // source line of that instruction
  std::uint64_t faulty_bits = 0;
  std::uint64_t clean_bits = 0;    // value-diff mode only (0 in taint mode)
  ir::Type type = ir::Type::Void;
};

struct AclSeries {
  /// count[i] = number of alive corrupted locations after faulty record i.
  std::vector<std::uint32_t> count;
  std::vector<AclEvent> events;
  std::uint32_t max_count = 0;
  std::uint64_t first_corruption_index = kNoIndex;

  [[nodiscard]] std::uint32_t final_count() const noexcept {
    return count.empty() ? 0 : count.back();
  }
  [[nodiscard]] std::size_t births() const noexcept;
  [[nodiscard]] std::size_t kills(AclEventKind kind) const noexcept;
};

/// Hook for analyses that need to watch the sweep (the pattern detectors of
/// src/patterns/). Called once per record *before* the corrupted set is
/// updated for that record, with the corruption verdict of the record's
/// write (false when the record writes nothing) and a membership query over
/// the current corrupted set.
class SweepInspector {
 public:
  virtual ~SweepInspector() = default;
  virtual void on_record(const vm::DynInstr& r, std::size_t pos,
                         bool result_corrupt,
                         const std::function<bool(vm::Location)>& corrupted) = 0;
};

/// Value-diff ACL over the lockstep prefix of a differential run: the
/// sweep walks the faulty ColumnTrace through a TraceView cursor. `events`
/// must be built over the same records (diff.records()). For region-input
/// injections pass the flipped memory word as `seed_loc` (with `seed_index`
/// = the RegionEnter index) so the corrupted input cell itself is tracked;
/// pass vm::kNoLoc for result-bit injections, whose corruption enters the
/// stream through a differing write.
[[nodiscard]] AclSeries build_acl(const ColumnDiff& diff,
                                  const trace::LocationEvents& events,
                                  vm::Location seed_loc = vm::kNoLoc,
                                  std::uint64_t seed_index = 0,
                                  SweepInspector* inspector = nullptr);

/// Taint-mode ACL: location `seed` is corrupted from `seed_index` on (pass
/// a record span starting at or after the injection); corruption propagates
/// through operand->result dataflow regardless of values.
[[nodiscard]] AclSeries build_acl_taint(std::span<const vm::DynInstr> records,
                                        const trace::LocationEvents& events,
                                        vm::Location seed,
                                        std::uint64_t seed_index);

/// Relative error |clean - faulty| / |clean| of two same-typed values
/// (Eq. 2 of the paper). Returns +inf when clean == 0 and faulty != 0,
/// 0 when both equal.
[[nodiscard]] double error_magnitude(std::uint64_t clean_bits,
                                     std::uint64_t faulty_bits, ir::Type t);

}  // namespace ft::acl
