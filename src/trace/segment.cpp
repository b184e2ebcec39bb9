#include "trace/segment.h"

#include <algorithm>

namespace ft::trace {

RegionSegmenter::RegionSegmenter(std::vector<RegionInstance> closed)
    : instances_(std::move(closed)) {
  for (const auto& i : instances_) {
    if (i.region_id >= counts_.size()) counts_.resize(i.region_id + 1, 0);
    counts_[i.region_id] = std::max(counts_[i.region_id], i.instance + 1);
  }
}

void RegionSegmenter::on_instruction(const vm::DynInstr& d) {
  last_index_ = d.index;
  if (d.op == ir::Opcode::RegionEnter) {
    const auto rid = static_cast<std::uint32_t>(d.aux);
    if (rid >= counts_.size()) counts_.resize(rid + 1, 0);
    RegionInstance inst;
    inst.region_id = rid;
    inst.instance = counts_[rid]++;
    inst.enter_index = d.index;
    instances_.push_back(inst);
    stack_.push_back(Open{rid, instances_.size() - 1});
  } else if (d.op == ir::Opcode::RegionExit) {
    const auto rid = static_cast<std::uint32_t>(d.aux);
    // Pop to the matching open region; tolerate mismatches from crashes.
    while (!stack_.empty()) {
      const Open open = stack_.back();
      stack_.pop_back();
      auto& inst = instances_[open.instance_slot];
      inst.exit_index = d.index;
      inst.complete = open.region_id == rid;
      if (open.region_id == rid) break;
    }
  }
}

void RegionSegmenter::finish() {
  while (!stack_.empty()) {
    const Open open = stack_.back();
    stack_.pop_back();
    auto& inst = instances_[open.instance_slot];
    inst.exit_index = last_index_ + 1;
    inst.complete = false;
  }
}

std::vector<RegionInstance> segment_regions(
    std::span<const vm::DynInstr> records) {
  RegionSegmenter seg;
  for (const auto& r : records) seg.on_instruction(r);
  return seg.take();
}

namespace {

/// Feed `seg` rows [from, trace.size()) of `trace`. The segmenter only
/// reads index/op/aux, and all three are cheap columnar lookups — feed it
/// skeleton records for the marker rows (plus the final row, so finish()
/// closes crashed regions at the right index).
std::vector<RegionInstance> segment_rows(const ColumnTrace& trace,
                                         RegionSegmenter seg,
                                         std::uint64_t from) {
  vm::DynInstr d;
  for (std::size_t row = from; row < trace.size(); ++row) {
    const auto op = trace.opcode_at(row);
    if (!ir::is_region_marker(op) && row + 1 != trace.size()) continue;
    d.index = row;
    d.op = op;
    d.aux = trace.aux_at(row);
    seg.on_instruction(d);
  }
  return seg.take();
}

}  // namespace

std::vector<RegionInstance> segment_regions(const ColumnTrace& trace) {
  return segment_rows(trace, RegionSegmenter{}, 0);
}

std::vector<RegionInstance> segment_regions(
    const ColumnTrace& trace, std::span<const RegionInstance> prefix,
    std::uint64_t shared_rows) {
  // Rows before shared_rows replay the prefix trace's, so an instance that
  // closed before them closed identically here. Resume where the earliest
  // instance still open at shared_rows entered: the segmenter's stack is
  // empty there (an instance entered earlier and closed later would have
  // had to close it first).
  shared_rows = std::min<std::uint64_t>(shared_rows, trace.size());
  std::uint64_t resume = shared_rows;
  for (const auto& i : prefix) {
    if (i.enter_index < shared_rows && i.exit_index >= shared_rows) {
      resume = std::min(resume, i.enter_index);
    }
  }
  std::size_t kept = 0;
  while (kept < prefix.size() && prefix[kept].enter_index < resume) {
    const auto& i = prefix[kept];
    if (i.exit_index >= resume ||
        (kept > 0 && i.enter_index <= prefix[kept - 1].enter_index)) {
      return segment_regions(trace);  // not a segmentation of such a trace
    }
    ++kept;
  }
  return segment_rows(
      trace,
      RegionSegmenter(std::vector<RegionInstance>(prefix.begin(),
                                                  prefix.begin() + kept)),
      resume);
}

std::vector<RegionInstance> instances_of(std::span<const RegionInstance> all,
                                         std::uint32_t region_id) {
  std::vector<RegionInstance> out;
  for (const auto& i : all) {
    if (i.region_id == region_id) out.push_back(i);
  }
  return out;
}

std::optional<RegionInstance> find_instance(std::span<const RegionInstance> all,
                                            std::uint32_t region_id,
                                            std::uint32_t instance) {
  for (const auto& i : all) {
    if (i.region_id == region_id && i.instance == instance) return i;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> section_boundaries(
    std::span<const RegionInstance> instances, std::uint64_t total_rows,
    std::size_t max_cuts) {
  std::vector<std::uint64_t> cuts;
  if (total_rows == 0 || max_cuts == 0) return cuts;
  cuts.reserve(instances.size() * 2);
  for (const auto& i : instances) {
    if (!i.complete) continue;
    if (i.enter_index > 0 && i.enter_index < total_rows) {
      cuts.push_back(i.enter_index);
    }
    const std::uint64_t after = i.exit_index + 1;
    if (after > 0 && after < total_rows) cuts.push_back(after);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.size() > max_cuts) {
    // Thin evenly: keep every (size/max_cuts)-th boundary so sections stay
    // balanced instead of truncating the tail into one giant section.
    std::vector<std::uint64_t> kept;
    kept.reserve(max_cuts);
    for (std::size_t k = 0; k < max_cuts; ++k) {
      kept.push_back(cuts[(k + 1) * cuts.size() / (max_cuts + 1)]);
    }
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    cuts = std::move(kept);
  }
  return cuts;
}

}  // namespace ft::trace
