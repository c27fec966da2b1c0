// Smoke test for the installed package: exercises the public Session API
// end to end (builder validation, plan selection, a real solve, the version
// header) using only installed headers and the exported target.

#include <cstdio>
#include <cstring>

#include "api/session.hpp"
#include "api/version.hpp"
#include "coloring/verify.hpp"
#include "graph/graph_gen.hpp"

int main() {
  using namespace picasso;

  if (std::strcmp(api::version_string(), PICASSO_API_VERSION) != 0) return 1;

  const auto g = graph::erdos_renyi_dense(200, 0.3, /*seed=*/7);
  const auto session =
      api::SessionBuilder().palette(12.5, 2.0).seed(7).build();
  const auto problem = api::Problem::dense(g);

  const auto plan = session.plan(problem);
  if (plan.strategy != api::ExecutionStrategy::Fused) return 2;

  const auto report = session.solve(problem);
  if (!coloring::is_valid_coloring(g, report.result.colors)) return 3;

  std::printf("picasso %s: %u vertices -> %u colors via %s\n",
              api::version_string(), g.num_vertices(),
              report.result.num_colors, to_string(report.plan.strategy));
  return 0;
}
