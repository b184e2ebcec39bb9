// Region-level fault-tolerance classification (§III-D).
//
// Given a differential run and one region instance, decides between the
// paper's cases by comparing input/output values of the region's DDDG
// between the faulty and fault-free executions:
//   * Case 1 ("masked"): at least one corrupted input (or the fault fired
//     inside the region) but every output value is correct;
//   * Case 2 ("reduced"): inputs and outputs are corrupted, but the maximum
//     error magnitude (Eq. 2) shrank across the region;
//   * NotTolerant: corruption flows through undiminished (or grew);
//   * Divergent: control flow changed inside the region, so faulty and
//     fault-free streams cannot be matched record-by-record;
//   * NotAffected: no corrupted input and the fault did not fire inside —
//     propagation analysis can skip this region instance (§III-A rationale).
#pragma once

#include <cstdint>

#include "acl/diff.h"
#include "regions/io.h"
#include "trace/segment.h"

namespace ft::regions {

enum class ToleranceCase : std::uint8_t {
  NotAffected,
  Case1Masked,
  Case2Reduced,
  NotTolerant,
  Divergent,
};

[[nodiscard]] std::string_view tolerance_name(ToleranceCase c) noexcept;

struct ToleranceReport {
  ToleranceCase verdict = ToleranceCase::NotAffected;
  std::size_t corrupted_inputs = 0;
  std::size_t corrupted_outputs = 0;
  double max_input_error = 0.0;   // max error magnitude over inputs
  double max_output_error = 0.0;  // max error magnitude over outputs
  bool fault_inside = false;      // injection fired within the instance
};

/// Classify one region instance of a differential run. `io` must have been
/// classified over the same faulty records (diff.records()); `fault_index`
/// is the dynamic index at which the injection fired (see
/// fault::fired_index), or acl::kNoIndex.
[[nodiscard]] ToleranceReport classify_tolerance(
    const acl::ColumnDiff& diff, const trace::RegionInstance& inst,
    const RegionIo& io, std::uint64_t fault_index);

}  // namespace ft::regions
