// Region segmentation: turning the marker stream (RegionEnter/RegionExit)
// into code-region *instances* (§III-A: "a code region can have many dynamic
// instances, each of which corresponds to one invocation of the code region
// at runtime"). Works both streaming (as an observer) and post-hoc over a
// materialized trace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/collector.h"
#include "trace/column.h"
#include "vm/observer.h"

namespace ft::trace {

struct RegionInstance {
  std::uint32_t region_id = 0;
  std::uint32_t instance = 0;       // nth dynamic entry of this region
  std::uint64_t enter_index = 0;    // dyn index of the RegionEnter record
  std::uint64_t exit_index = 0;     // dyn index of the RegionExit record
  bool complete = false;            // false if the run ended mid-region

  /// Dynamic-instruction span strictly inside the region (markers excluded).
  [[nodiscard]] std::uint64_t body_begin() const noexcept {
    return enter_index + 1;
  }
  [[nodiscard]] std::uint64_t body_end() const noexcept { return exit_index; }
  [[nodiscard]] std::uint64_t body_length() const noexcept {
    return exit_index > enter_index ? exit_index - enter_index - 1 : 0;
  }

  bool operator==(const RegionInstance&) const = default;
};

/// Streaming segmenter. Feed records (possibly via the VM observer hook);
/// finish() closes any open regions at the last seen index.
class RegionSegmenter final : public vm::ExecObserver {
 public:
  RegionSegmenter() = default;
  /// Resume after `closed`: instances of an earlier segmentation, in
  /// dynamic order, none still open where feeding resumes. Instance
  /// numbering continues from them.
  explicit RegionSegmenter(std::vector<RegionInstance> closed);

  void on_instruction(const vm::DynInstr& d) override;

  /// Close unterminated regions (crashed runs); idempotent.
  void finish();

  [[nodiscard]] const std::vector<RegionInstance>& instances() const noexcept {
    return instances_;
  }
  [[nodiscard]] std::vector<RegionInstance> take() noexcept {
    finish();
    return std::move(instances_);
  }

 private:
  struct Open {
    std::uint32_t region_id;
    std::size_t instance_slot;  // index into instances_
  };
  std::vector<RegionInstance> instances_;
  std::vector<Open> stack_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t last_index_ = 0;
};

/// Post-hoc segmentation of a materialized trace.
[[nodiscard]] std::vector<RegionInstance> segment_regions(
    std::span<const vm::DynInstr> records);

/// Columnar fast path: only marker rows are touched — the opcode of every
/// record is a static lookup through the pc column, so no record is
/// materialized at all.
[[nodiscard]] std::vector<RegionInstance> segment_regions(
    const ColumnTrace& trace);

/// segment_regions(trace) for a trace whose rows [0, shared_rows) equal
/// those of the trace `prefix` was segmented from. The instances of
/// `prefix` that entered before the earliest one still open at row
/// shared_rows are kept (none of them is open there), and segmentation
/// resumes at that row. Falls back to the full pass when `prefix` does not
/// fit that shape.
[[nodiscard]] std::vector<RegionInstance> segment_regions(
    const ColumnTrace& trace, std::span<const RegionInstance> prefix,
    std::uint64_t shared_rows);

/// All instances of one region, in dynamic order.
[[nodiscard]] std::vector<RegionInstance> instances_of(
    std::span<const RegionInstance> all, std::uint32_t region_id);

/// The nth instance of a region, if present.
[[nodiscard]] std::optional<RegionInstance> find_instance(
    std::span<const RegionInstance> all, std::uint32_t region_id,
    std::uint32_t instance);

/// Section cut points for the compositional engine (src/compose/): the
/// sorted unique region-instance boundaries (enter_index and
/// exit_index + 1 of every complete instance) strictly inside
/// (0, total_rows), thinned evenly to at most `max_cuts` entries. The
/// caller prepends 0 to obtain section begins. Returns empty when the
/// trace has no usable interior boundary.
[[nodiscard]] std::vector<std::uint64_t> section_boundaries(
    std::span<const RegionInstance> instances, std::uint64_t total_rows,
    std::size_t max_cuts);

}  // namespace ft::trace
