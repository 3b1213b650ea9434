#ifndef VAQ_WORKLOAD_POLYGON_GENERATOR_H_
#define VAQ_WORKLOAD_POLYGON_GENERATOR_H_

#include "geometry/box.h"
#include "geometry/polygon.h"
#include "workload/rng.h"

namespace vaq {

/// Parameters of the paper's random query areas: "a randomly generated
/// polygon of ten points" whose *query size* — area(MBR(A)) divided by the
/// domain area — is the experiment knob (1% ... 32%).
struct PolygonSpec {
  /// Number of ring vertices (the paper uses 10).
  int vertices = 10;
  /// Target area(MBR(A)) / area(domain), in (0, 1].
  double query_size_fraction = 0.01;
  /// Radii are drawn from U[min_radius_fraction, 1] of the star radius.
  /// 0.35 calibrates area(A)/area(MBR) to ~= 0.53, matching the paper's
  /// result-to-candidate ratios (see DESIGN.md).
  double min_radius_fraction = 0.35;
};

/// Generates a random simple star-shaped polygon:
/// vertices at jittered-equally-spaced angles and random radii around a
/// centre, scaled so the polygon's MBR area is exactly
/// `spec.query_size_fraction * domain.Area()` and translated so the MBR
/// lies inside `domain`. Star polygons with sorted angles are always
/// simple, and with 10 random radii almost always concave — the query shape
/// the paper argues hurts the traditional method.
Polygon GenerateQueryPolygon(const PolygonSpec& spec, const Box& domain,
                             Rng* rng);

/// A deliberately nasty concave test shape: a "comb" with `teeth` thin
/// prongs, used to probe the completeness caveat of Algorithm 1's
/// segment-expansion rule against the exact dual-edge rule (see
/// VoronoiAreaQuery::ExpansionRule).
Polygon GenerateCombPolygon(const Box& bounds, int teeth);

}  // namespace vaq

#endif  // VAQ_WORKLOAD_POLYGON_GENERATOR_H_
