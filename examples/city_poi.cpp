// City points-of-interest scenario (the paper's GIS motivation): a city of
// clustered POIs (shops, stations, facilities concentrate in districts),
// queried with an irregular concave "district boundary" polygon — the case
// where window-filtering wastes the most work.
//
// Demonstrates: clustered data, a hand-drawn concave district, per-method
// cost accounting, and the explicit Voronoi diagram for a
// nearest-facility lookup.

#include <cstdio>

#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "delaunay/voronoi.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

int main() {
  using namespace vaq;
  const Box city{{0.0, 0.0}, {10.0, 10.0}};  // 10km x 10km.

  // 1. 120k POIs concentrated around 25 district centres.
  Rng rng(2020);
  PointDatabase db(
      GenerateClusteredPoints(120000, city, /*clusters=*/25,
                              /*sigma_fraction=*/0.03, &rng));
  std::printf("city database: %zu POIs, bounds [%.1f,%.1f]x[%.1f,%.1f]\n",
              db.size(), db.bounds().min.x, db.bounds().max.x,
              db.bounds().min.y, db.bounds().max.y);

  // 2. A concave riverside district: a bent strip along a diagonal.
  const Polygon district({{1.0, 1.0},
                          {4.0, 1.5},
                          {6.5, 3.5},
                          {9.0, 4.0},
                          {9.0, 5.5},
                          {6.0, 5.0},
                          {3.5, 3.0},
                          {1.0, 2.5}});
  std::printf(
      "district: area %.2f km^2, MBR %.2f km^2 (only %.0f%% of its MBR)\n",
      district.Area(), district.Bounds().Area(),
      100.0 * district.Area() / district.Bounds().Area());

  // 3. Count POIs in the district both ways.
  TraditionalAreaQuery traditional(&db);
  VoronoiAreaQuery voronoi(&db);
  QueryStats ts, vs;
  const auto trad_result = traditional.Run(district, &ts);
  const auto vaq_result = voronoi.Run(district, &vs);

  std::printf("\nPOIs in district: %zu (methods agree: %s)\n",
              trad_result.size(), trad_result == vaq_result ? "yes" : "NO");
  std::printf("  traditional: %llu candidates, %llu redundant, %llu index pages\n",
              static_cast<unsigned long long>(ts.candidates),
              static_cast<unsigned long long>(ts.RedundantValidations()),
              static_cast<unsigned long long>(ts.index_node_accesses));
  std::printf("  voronoi    : %llu candidates, %llu redundant, %llu index pages\n",
              static_cast<unsigned long long>(vs.candidates),
              static_cast<unsigned long long>(vs.RedundantValidations()),
              static_cast<unsigned long long>(vs.index_node_accesses));
  std::printf("  candidate savings: %.1f%%\n",
              100.0 * (1.0 - static_cast<double>(vs.candidates) /
                                 static_cast<double>(ts.candidates)));

  // 4. Bonus: service area of the POI nearest to the city centre, straight
  // from the Voronoi diagram (paper Property 3: its cell is exactly the
  // region it serves).
  const PointId central = db.rtree().NearestNeighbor(city.Center());
  const VoronoiDiagram vd(db.delaunay(), city);
  std::printf(
      "\nPOI nearest to city centre: #%u at (%.3f, %.3f); its service cell "
      "covers %.4f km^2 across %zu corners\n",
      central, db.points()[central].x, db.points()[central].y,
      vd.CellArea(central), vd.cell(central).size());
  return trad_result == vaq_result ? 0 : 1;
}
