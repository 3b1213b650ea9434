#ifndef VAQ_CORE_VORONOI_AREA_QUERY_H_
#define VAQ_CORE_VORONOI_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// The paper's contribution (Algorithm 1, Fig. 1b): incremental candidate
/// generation over Voronoi-neighbour links instead of a window query.
///
///   1. seed  := NN(P, any position inside A)   — one index lookup;
///   2. BFS from the seed over Voronoi neighbours:
///        * a candidate inside A joins the result and expands to all its
///          neighbours (paper Property 7: they are internal or boundary
///          points);
///        * a candidate outside A expands only to the neighbours that the
///          expansion rule admits — this is what keeps the flood from
///          leaking into the rest of the MBR.
///
/// Candidates are therefore the internal points plus a thin shell of
/// boundary points — proportional to the boundary length of A rather than
/// to area(MBR(A)) - area(A).
///
/// Two expansion rules exist. `kDualEdge` is exact for any connected area
/// and is what every planned, served and sharded Voronoi run uses (the
/// query objects `DynamicPointDatabase` bundles with each base).
/// `kPaperSegment` is the paper's literal rule, kept as this class's
/// default for the Table I/II reproduction and the expansion ablation.
class VoronoiAreaQuery : public AreaQuery {
 public:
  /// How the flood expands out of a candidate that is *outside* A.
  enum class ExpansionRule {
    /// Paper Algorithm 1, line 21: follow edge (p, pn) iff the segment
    /// intersects A. Minimal candidates; can miss points beyond
    /// point-free parts of concave areas (DESIGN.md §1).
    kPaperSegment,
    /// Follow the edge iff the Voronoi edge dual to it — the segment
    /// between the circumcentres of the two Delaunay triangles that share
    /// (p, pn) — intersects A. Provably complete for any connected query
    /// area (a path in A crosses from cell to cell through a shared
    /// Voronoi edge or vertex), and it validates exactly the candidates a
    /// whole-cell test would (DESIGN.md §1). One walk of p's own fan
    /// yields all its dual edges; no diagram is stored. The fan includes
    /// the super triangle, so when A leaves the data box inflated by 5%,
    /// every edge with a super-vertex triangle on either side is also
    /// followed; an edge with a non-finite circumcentre is always
    /// followed.
    kDualEdge,
  };

  struct Options {
    ExpansionRule expansion = ExpansionRule::kPaperSegment;
  };

  /// `db` must outlive this object. If `seed_index` is null the database
  /// R-tree provides the seed NN lookup (the paper also uses an R-tree
  /// here, "for fairness"); a non-null index must index `db->points()`
  /// (the internal, Hilbert-ordered array) so ids agree.
  explicit VoronoiAreaQuery(const PointDatabase* db)
      : VoronoiAreaQuery(db, Options{}) {}
  VoronoiAreaQuery(const PointDatabase* db, Options options,
                   const SpatialIndex* seed_index = nullptr);

  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override;
  std::string_view Name() const override {
    return options_.expansion == ExpansionRule::kPaperSegment
               ? "voronoi"
               : "voronoi-dual-edge";
  }

 private:
  // Stateless beyond construction-time configuration: the epoch-marked
  // visited set and candidate queue live in the caller's `QueryContext`,
  // so one instance can serve concurrent queries.
  const PointDatabase* db_;
  Options options_;
  const SpatialIndex* seed_index_;
};

}  // namespace vaq

#endif  // VAQ_CORE_VORONOI_AREA_QUERY_H_
