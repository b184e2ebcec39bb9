// Injection-site enumeration (§IV-C).
//
// "Given an input or output location for a code region instance, we
// calculate the number of fault injection sites by analyzing the dynamic
// LLVM instruction trace." — here: one fault-free traced run, segmented by
// region; internal sites are (dynamic instruction, bit) pairs over values
// committed inside the instance, input sites are (memory input word, bit)
// pairs flipped at region entry.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/module.h"
#include "regions/io.h"
#include "trace/column.h"
#include "trace/events.h"
#include "trace/segment.h"
#include "vm/fault_plan.h"
#include "vm/interp.h"

namespace ft::fault {

struct SectionLadder;  // fault/ladder.h

struct InternalSite {
  std::uint64_t dyn_index = 0;
  std::uint32_t width_bits = 64;
};

struct InputSite {
  std::uint64_t address = 0;
  std::uint32_t width_bytes = 8;
};

struct SitePopulation {
  std::uint32_t region_id = 0;
  std::uint32_t instance = 0;
  std::vector<InternalSite> internal;
  std::vector<InputSite> input;

  /// Total single-bit fault sites (instruction/word x bit).
  [[nodiscard]] std::uint64_t internal_bits() const;
  [[nodiscard]] std::uint64_t input_bits() const;
};

/// Which location class a campaign targets (Fig. 5/6 report both).
enum class TargetClass : std::uint8_t { Internal, Input };

struct SiteEnumerationResult {
  /// Sentinel for region_entry_index: no single region-entry retire point
  /// (whole-program enumerations, missing instances).
  static constexpr std::uint64_t kNoEntry = ~std::uint64_t{0};

  SitePopulation sites;
  std::uint64_t fault_free_instructions = 0;  // for hang budgets
  /// Dynamic index of the enumerated instance's RegionEnter record — the
  /// retire point where RegionInputMemoryBit plans fire. The snapshot-
  /// forked campaign scheduler uses it as the fork bound of input-class
  /// trials (any prefix up to this index is fault-free).
  std::uint64_t region_entry_index = kNoEntry;
  bool region_found = false;
  /// The golden section ladder of the execution the sites were enumerated
  /// from (fault/ladder.h), when the producer holds one — set by
  /// core::AnalysisSession, null otherwise. prepare_campaign hands it to the
  /// campaign's trials, which probe for early closure on its boundaries.
  /// Not serialized: a store-served population carries it only when the
  /// serving session holds the golden trace or has built the ladder.
  std::shared_ptr<const SectionLadder> ladder;
};

/// Enumerate the sites of one region instance with one traced fault-free
/// run. `base` supplies seed/mpi; its observer/fault fields are ignored.
[[nodiscard]] SiteEnumerationResult enumerate_sites(const ir::Module& m,
                                                    std::uint32_t region_id,
                                                    std::uint32_t instance,
                                                    const vm::VmOptions& base);

/// Enumerate the sites of one region instance from golden artifacts that
/// were already collected (trace + its segmentation + its event index).
/// Produces bit-identical results to enumerate_sites without re-running the
/// program — the per-region fast path used by core::AnalysisSession when
/// many regions of one application are analyzed.
[[nodiscard]] SiteEnumerationResult enumerate_sites_from_trace(
    const trace::Trace& tr,
    std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance);

/// Columnar form: `tr` is the full-trace view of the golden ColumnTrace.
[[nodiscard]] SiteEnumerationResult enumerate_sites_from_trace(
    trace::TraceView tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance);

/// Enumerate internal sites over the whole program (every committed value
/// of the full run) — the population for whole-application success rates
/// (Tables III and IV). Input sites are left empty. A run that does not
/// complete yields an empty population with region_found == false.
[[nodiscard]] SiteEnumerationResult enumerate_whole_program_sites(
    const ir::Module& m, const vm::VmOptions& base);

/// Decoded-engine form: one direct-emit traced run into a ColumnTrace, then
/// enumerate_whole_program_sites_from_trace over it.
[[nodiscard]] SiteEnumerationResult enumerate_whole_program_sites(
    const vm::DecodedProgram& program, const vm::VmOptions& base);

/// Whole-program internal sites of a COMPLETED golden run, read from its
/// ColumnTrace in one columnar pass: a row is a site when its record
/// commits a value (result_loc != kNoLoc), weighted by the bit width of
/// the stored type for a Store and of the record type otherwise. Widths
/// resolve per pc through the DecodedInstr; a Ret commits only when the
/// escape list carries its caller-side result location. Equal to applying
/// that rule to every record of trace.view() (tests/fault_test.cpp).
[[nodiscard]] SiteEnumerationResult enumerate_whole_program_sites_from_trace(
    const trace::ColumnTrace& golden);

/// Build the concrete fault plan for one sampled site.
[[nodiscard]] vm::FaultPlan plan_for_internal(const InternalSite& s,
                                              std::uint32_t bit);
[[nodiscard]] vm::FaultPlan plan_for_input(const SitePopulation& pop,
                                           const InputSite& s,
                                           std::uint32_t bit);

}  // namespace ft::fault
