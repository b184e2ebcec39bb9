// ACL explorer: pick any of the ten paper workloads, any code region, any
// injection, and inspect the resulting error-propagation timeline — the
// interactive equivalent of the paper's Figs. 3 and 7.
//
//   $ ./acl_explorer --app=MG --region=mg_d --bit=40
//   $ ./acl_explorer --app=LULESH --region=l_a --instance=3 --dot=region.dot
//
// With --dot=FILE it also writes the region instance's DDDG in Graphviz
// format (what the paper renders with Graphviz, §IV-B).
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/analysis.h"
#include "dddg/graph.h"
#include "util/cli.h"
#include "util/table.h"

using namespace ft;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto app_name = cli.get("app", "MG");
  const auto region_name = cli.get("region", "");
  const auto instance = static_cast<std::uint32_t>(cli.get_int("instance", 0));
  const auto bit = static_cast<std::uint32_t>(cli.get_int("bit", 40));

  core::AnalysisSession session(apps::build_app(app_name));
  const auto& app = session.app();

  const apps::RegionDesc* rd = region_name.empty()
                                   ? &app.analysis_regions.front()
                                   : app.find_region(region_name);
  if (!rd) {
    std::fprintf(stderr, "unknown region '%s'; available:", region_name.c_str());
    for (const auto& r : app.analysis_regions) {
      std::fprintf(stderr, " %s", r.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::printf("app=%s region=%s instance=%u bit=%u\n", app_name.c_str(),
              rd->name.c_str(), instance, bit);

  // Region anatomy: size, inputs/outputs, DDDG.
  const auto io = session.region_io(rd->id, instance);
  const auto inst =
      trace::find_instance(*session.region_instances(), rd->id, instance);
  if (!io || !inst) {
    std::fprintf(stderr, "region instance not found\n");
    return 1;
  }
  std::printf("instance spans dyn instr [%llu, %llu] (%llu instructions)\n",
              static_cast<unsigned long long>(inst->enter_index),
              static_cast<unsigned long long>(inst->exit_index),
              static_cast<unsigned long long>(inst->body_length()));
  std::printf("inputs=%zu outputs=%zu internals=%zu\n", io->inputs.size(),
              io->outputs.size(), io->internals.size());

  const auto dot_path = cli.get("dot", "");
  if (!dot_path.empty()) {
    const auto g = session.region_dddg(rd->id, instance);
    std::ofstream out(dot_path);
    out << dddg::to_dot(*g, app_name + ":" + rd->name);
    std::printf("DDDG (%zu nodes, %zu edges) written to %s\n",
                g->num_nodes(), g->num_edges(), dot_path.c_str());
  }

  // Inject into the first memory input of the instance and show the ACL.
  const auto mem_inputs = regions::memory_inputs(*io);
  if (mem_inputs.empty()) {
    std::printf("region has no memory inputs; nothing to inject\n");
    return 0;
  }
  const auto& target = mem_inputs[mem_inputs.size() / 2];
  const auto plan = vm::FaultPlan::region_input_bit(
      rd->id, instance, vm::loc_address(target.loc),
      store_size(target.type), bit);
  std::printf("\ninjecting bit %u of input %s at region entry\n", bit,
              vm::loc_to_string(target.loc).c_str());

  const auto diff = session.column_diff_with(plan);
  const auto rep = session.patterns_for(plan, diff);
  const auto& acl = rep.acl;
  std::printf("ACL: max=%u births=%zu overwrite-kills=%zu dead-kills=%zu\n",
              acl.max_count, acl.births(),
              acl.kills(acl::AclEventKind::KillOverwrite),
              acl.kills(acl::AclEventKind::KillDead));

  // Timeline, downsampled around the corruption window.
  if (!acl.count.empty() && acl.max_count > 0) {
    const std::size_t begin = acl.first_corruption_index > 20
                                  ? acl.first_corruption_index - 20
                                  : 0;
    const std::size_t n = acl.count.size() - begin;
    const std::size_t step = std::max<std::size_t>(1, n / 40);
    util::Table t({"dyn instr", "alive corrupted", "bar"});
    for (std::size_t i = begin; i < acl.count.size(); i += step) {
      std::uint32_t peak = 0;
      for (std::size_t j = i; j < std::min(i + step, acl.count.size()); ++j) {
        peak = std::max(peak, acl.count[j]);
      }
      t.add_row({std::to_string(i), std::to_string(peak),
                 std::string(std::min<std::uint32_t>(peak, 40), '#')});
    }
    t.print(std::cout);
  }

  std::printf("\npatterns: ");
  bool any = false;
  for (const auto kind : patterns::kAllPatterns) {
    if (rep.found(kind)) {
      std::printf("%s(x%zu) ",
                  std::string(patterns::pattern_name(kind)).c_str(),
                  rep.count(kind));
      any = true;
    }
  }
  std::printf("%s\n", any ? "" : "none observed");

  std::printf("outcome: %s\n",
              std::string(fault::outcome_name(fault::classify_outcome(
                  diff.faulty_result, diff.clean_result.outputs,
                  app.verifier))).c_str());
  return 0;
}
