// AVX2 arm of the batch classification kernels. This translation unit is
// compiled with -mavx2 and -ffp-contract=off (see CMakeLists.txt): the
// certified-filter argument below relies on the determinant being computed
// with plain IEEE multiply/subtract — a fused multiply-add would produce a
// differently-rounded value than `geometry/predicates.cc` and break the
// bit-for-bit agreement contract with the scalar arm.
//
// Exactness contract (see DESIGN.md §11): every lane either
//   (a) passes Shewchuk's static filter, in which case its answer equals
//       the exact real-arithmetic result and therefore equals whatever the
//       scalar path computes for the same point, or
//   (b) is flagged `needs_exact` and resolved by the caller through the
//       SAME scalar exact code the scalar arm runs.
// Both arms therefore return identical bytes for finite inputs without the
// vector code ever needing expansion arithmetic.
#include "geometry/simd/classify_kernels.h"

#if defined(VAQ_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace vaq::simd {

namespace {

// Lane-activation masks for _mm256_maskload_pd: sliding window over a
// constant sign-bit table, `active` in [1, 4].
inline __m256i TailMask(std::size_t active) {
  alignas(32) static const long long kBits[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + (4 - active)));
}

// Loads `active` doubles from p, zero-filling the rest. maskload suppresses
// faults on masked-out lanes, so reading a partial tail block never touches
// memory past p[active-1].
inline __m256d LoadLanes(const double* p, std::size_t active) {
  if (active >= 4) return _mm256_loadu_pd(p);
  return _mm256_maskload_pd(p, TailMask(active));
}

inline __m256d AbsPd(__m256d v) {
  const __m256d mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(0x7fffffffffffffffULL)));
  return _mm256_and_pd(v, mask);
}

inline __m256d NegPd(__m256d v) { return _mm256_xor_pd(v, _mm256_set1_pd(-0.0)); }

struct Orient4 {
  __m256d det;       // fl(detleft - detright), same arithmetic as Orient2D
  __m256d errbound;  // kCcwErrBound * fl(|detleft| + |detright|)
};

// Four-lane orient2d determinant with its static error bound — the vector
// twin of the adaptive filter's first stage in `predicates.cc`.
inline Orient4 OrientLanes(__m256d ax, __m256d ay, __m256d bx, __m256d by,
                           __m256d px, __m256d py) {
  const __m256d acx = _mm256_sub_pd(ax, px);
  const __m256d bcy = _mm256_sub_pd(by, py);
  const __m256d acy = _mm256_sub_pd(ay, py);
  const __m256d bcx = _mm256_sub_pd(bx, px);
  const __m256d detleft = _mm256_mul_pd(acx, bcy);
  const __m256d detright = _mm256_mul_pd(acy, bcx);
  const __m256d det = _mm256_sub_pd(detleft, detright);
  const __m256d detsum = _mm256_add_pd(AbsPd(detleft), AbsPd(detright));
  const __m256d errbound = _mm256_mul_pd(_mm256_set1_pd(kCcwErrBound), detsum);
  return {det, errbound};
}

// (px,py) inside [minx,maxx]x[miny,maxy] — the same four comparisons as
// Box::Contains, so NaN lanes come out false exactly like the scalar path.
inline __m256d InBoxLanes(__m256d px, __m256d py, __m256d minx, __m256d maxx,
                          __m256d miny, __m256d maxy) {
  const __m256d okx = _mm256_and_pd(_mm256_cmp_pd(px, minx, _CMP_GE_OQ),
                                    _mm256_cmp_pd(px, maxx, _CMP_LE_OQ));
  const __m256d oky = _mm256_and_pd(_mm256_cmp_pd(py, miny, _CMP_GE_OQ),
                                    _mm256_cmp_pd(py, maxy, _CMP_LE_OQ));
  return _mm256_and_pd(okx, oky);
}

// Writes the low `active` (<= 4) bits of `bits` as bools.
inline void StoreBits(unsigned bits, std::size_t active, bool* out) {
  if (active == 4) {
    // Expand the 4 mask bits to 4 bool bytes in one 32-bit store.
    const std::uint32_t bytes = (bits & 1u) | ((bits & 2u) << 7) |
                                ((bits & 4u) << 14) | ((bits & 8u) << 21);
    std::memcpy(out, &bytes, 4);
    return;
  }
  for (std::size_t j = 0; j < active; ++j) out[j] = ((bits >> j) & 1u) != 0;
}

inline void StoreFlags(__m256d mask, std::size_t active, bool* out) {
  StoreBits(static_cast<unsigned>(_mm256_movemask_pd(mask)), active, out);
}

// Chain short-circuit threshold: when the circle screen leaves at most
// this many lanes of an 8-block undecided, flagging them `needs_exact`
// (one O(1) scalar grid test each) beats running m edge iterations for
// the whole block.
constexpr unsigned kScreenMaxExact = 2;

// Circle screen for one 4-lane half: certified-inside lanes, and the
// in-MBR lanes the screen could not decide. NaN coordinates produce false
// in every comparison, landing in "decided outside" exactly like the
// scalar bounds reject.
struct Screen4 {
  __m256d incirc;
  __m256d undecided;
};

inline Screen4 ScreenLanes(__m256d px, __m256d py, __m256d ccx, __m256d ccy,
                           __m256d rin2, __m256d rout2, __m256d inm) {
  const __m256d dx = _mm256_sub_pd(px, ccx);
  const __m256d dy = _mm256_sub_pd(py, ccy);
  const __m256d d2 =
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
  const __m256d incirc = _mm256_cmp_pd(d2, rin2, _CMP_LT_OQ);
  const __m256d outcirc = _mm256_cmp_pd(d2, rout2, _CMP_GT_OQ);
  return {incirc,
          _mm256_andnot_pd(_mm256_or_pd(incirc, outcirc), inm)};
}

// The grid arithmetic shared by the cell-classification entries, on four
// lanes. The scalar loop rejects with (x < minx || x > maxx || ...);
// keeping lanes where all four >= / <= comparisons hold is the same
// predicate for finite coordinates. For in-range lanes (x - minx) is
// exact-signed and the product is in [0, nx], so truncation + high clamp
// reproduces the scalar
//   cx = int((x - minx) * inv_cw); cx = cx >= nx ? nx - 1 : cx;
// Out-of-range lanes may convert to the indefinite value; their index is
// never used because their class is forced to 0 (outside).
struct GridConsts {
  explicit GridConsts(const GridView& g)
      : minx(_mm256_set1_pd(g.minx)),
        maxx(_mm256_set1_pd(g.maxx)),
        miny(_mm256_set1_pd(g.miny)),
        maxy(_mm256_set1_pd(g.maxy)),
        icw(_mm256_set1_pd(g.inv_cw)),
        ich(_mm256_set1_pd(g.inv_ch)),
        nx1(_mm_set1_epi32(g.nx - 1)),
        ny1(_mm_set1_epi32(g.ny - 1)),
        nx(_mm_set1_epi32(g.nx)) {}
  __m256d minx, maxx, miny, maxy, icw, ich;
  __m128i nx1, ny1, nx;
};

struct GridIndex {
  __m256d in;    // In-MBR lanes (64-bit masks).
  __m128i cell;  // Flat cell index, row-major.
  __m128i row;
};

inline GridIndex GridIndexOf(const GridConsts& k, __m256d px, __m256d py) {
  __m128i cx = _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_sub_pd(px, k.minx), k.icw));
  __m128i cy = _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_sub_pd(py, k.miny), k.ich));
  cx = _mm_min_epi32(cx, k.nx1);
  cy = _mm_min_epi32(cy, k.ny1);
  return {InBoxLanes(px, py, k.minx, k.maxx, k.miny, k.maxy),
          _mm_add_epi32(_mm_mullo_epi32(cy, k.nx), cx), cy};
}

// Left-pack controls for _mm_shuffle_epi8: entry `bits` moves the 32-bit
// lanes whose bit is set to the front, in lane order. Built at compile
// time, so this AVX2 unit runs no code before the dispatch check.
struct PackTable {
  alignas(16) std::uint8_t control[16][16] = {};
  constexpr PackTable() {
    for (unsigned bits = 0; bits < 16; ++bits) {
      unsigned out = 0;
      for (unsigned lane = 0; lane < 4; ++lane) {
        if (((bits >> lane) & 1u) == 0) continue;
        for (unsigned b = 0; b < 4; ++b) {
          control[bits][4 * out + b] = static_cast<std::uint8_t>(4 * lane + b);
        }
        ++out;
      }
      for (unsigned b = 4 * out; b < 16; ++b) control[bits][b] = 0x80;
    }
  }
};

constexpr PackTable kPack;

}  // namespace

void ClassifyCellsAvx2(const GridView& g, const double* xs, const double* ys,
                       std::size_t n, unsigned char* cls) {
  const GridConsts k(g);
  for (std::size_t i = 0; i < n; i += 4) {
    const std::size_t rem = n - i;
    const std::size_t a = rem < 4 ? rem : 4;
    const GridIndex gi = GridIndexOf(k, LoadLanes(xs + i, a), LoadLanes(ys + i, a));
    alignas(16) std::int32_t cell[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(cell), gi.cell);
    const auto inbits = static_cast<unsigned>(_mm256_movemask_pd(gi.in));
    for (std::size_t j = 0; j < a; ++j) {
      cls[i + j] = ((inbits >> j) & 1u) != 0 ? g.cell_class[cell[j]]
                                             : static_cast<unsigned char>(0);
    }
  }
}

std::size_t ClassifyGridBlockAvx2(const GridView& g, const double* xs,
                                  const double* ys, std::size_t n,
                                  bool* inside, std::uint32_t* boundary) {
  const GridConsts k(g);
  const __m128i one = _mm_set1_epi32(1);
  const __m128i two = _mm_set1_epi32(2);
  const __m128i low_byte = _mm_set1_epi32(0xFF);
  const __m128i lane_step = _mm_setr_epi32(0, 1, 2, 3);
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const int* cell_words = reinterpret_cast<const int*>(g.cell_class);
  std::size_t nb = 0;
  for (std::size_t i = 0; i < n; i += 4) {
    const std::size_t rem = n - i;
    const std::size_t a = rem < 4 ? rem : 4;
    const unsigned amask = (1u << a) - 1u;
    const GridIndex gi = GridIndexOf(k, LoadLanes(xs + i, a), LoadLanes(ys + i, a));
    // The in-MBR mask narrowed to 32-bit lanes: out-of-MBR lanes (whose
    // index may be the indefinite value) load nothing and read class 0.
    const __m128i in32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(gi.in), low_dwords));
    const __m128i cls = _mm_and_si128(
        _mm_mask_i32gather_epi32(_mm_setzero_si128(), cell_words, gi.cell,
                                 in32, 1),
        low_byte);
    const unsigned in_bits = static_cast<unsigned>(_mm_movemask_ps(
                                 _mm_castsi128_ps(_mm_cmpeq_epi32(cls, one)))) &
                             amask;
    const unsigned bd_bits = static_cast<unsigned>(_mm_movemask_ps(
                                 _mm_castsi128_ps(_mm_cmpeq_epi32(cls, two)))) &
                             amask;
    StoreBits(in_bits, a, inside + i);
    // Boundary lanes as (row << 16 | lane), packed to the front.
    const __m128i tagged = _mm_or_si128(
        _mm_slli_epi32(gi.row, 16),
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), lane_step));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(boundary + nb),
        _mm_shuffle_epi8(tagged, _mm_load_si128(reinterpret_cast<const __m128i*>(
                                     kPack.control[bd_bits]))));
    nb += static_cast<std::size_t>(__builtin_popcount(bd_bits));
  }
  return nb;
}

bool ConvexContainsAvx2(const EdgeSoA& e, std::size_t m,
                        const CircleScreen& cs, double bminx, double bminy,
                        double bmaxx, double bmaxy, const double* xs,
                        const double* ys, std::size_t n, bool* inside,
                        bool* needs_exact) {
  unsigned any_exact = 0;
  const __m256d vminx = _mm256_set1_pd(bminx);
  const __m256d vmaxx = _mm256_set1_pd(bmaxx);
  const __m256d vminy = _mm256_set1_pd(bminy);
  const __m256d vmaxy = _mm256_set1_pd(bmaxy);
  const __m256d vccx = _mm256_set1_pd(cs.cx);
  const __m256d vccy = _mm256_set1_pd(cs.cy);
  const __m256d vrin2 = _mm256_set1_pd(cs.rin2);
  const __m256d vrout2 = _mm256_set1_pd(cs.rout2);
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t rem = n - i;
    const std::size_t a0 = rem < 4 ? rem : 4;
    const std::size_t a1 = rem > 4 ? (rem - 4 < 4 ? rem - 4 : 4) : 0;
    const unsigned amask0 = (1u << a0) - 1u;
    const unsigned amask1 = (1u << a1) - 1u;
    const __m256d px0 = LoadLanes(xs + i, a0);
    const __m256d py0 = LoadLanes(ys + i, a0);
    const __m256d px1 = a1 != 0 ? LoadLanes(xs + i + 4, a1) : _mm256_setzero_pd();
    const __m256d py1 = a1 != 0 ? LoadLanes(ys + i + 4, a1) : _mm256_setzero_pd();
    const __m256d inm0 = InBoxLanes(px0, py0, vminx, vmaxx, vminy, vmaxy);
    const __m256d inm1 = InBoxLanes(px1, py1, vminx, vmaxx, vminy, vmaxy);
    // Circle screen first: certified inside / outside / out-of-MBR lanes
    // need no edge work at all. Only when more than kScreenMaxExact lanes
    // stay undecided is the half-plane chain worth its m iterations; below
    // that the stragglers go straight to the exact scalar path.
    const Screen4 s0 = ScreenLanes(px0, py0, vccx, vccy, vrin2, vrout2, inm0);
    const Screen4 s1 = ScreenLanes(px1, py1, vccx, vccy, vrin2, vrout2, inm1);
    const unsigned ub0 =
        static_cast<unsigned>(_mm256_movemask_pd(s0.undecided)) & amask0;
    const unsigned ub1 =
        static_cast<unsigned>(_mm256_movemask_pd(s1.undecided)) & amask1;
    if (static_cast<unsigned>(__builtin_popcount(ub0) +
                              __builtin_popcount(ub1)) <= kScreenMaxExact) {
      any_exact |= ub0 | ub1;
      StoreFlags(s0.incirc, a0, inside + i);
      StoreFlags(s0.undecided, a0, needs_exact + i);
      if (a1 != 0) {
        StoreFlags(s1.incirc, a1, inside + i + 4);
        StoreFlags(s1.undecided, a1, needs_exact + i + 4);
      }
      continue;
    }
    __m256d anyneg0 = _mm256_setzero_pd();
    __m256d anyneg1 = _mm256_setzero_pd();
    __m256d allok0 = ones;
    __m256d allok1 = ones;
    for (std::size_t k = 0; k < m; ++k) {
      const __m256d ax = _mm256_broadcast_sd(e.ax + k);
      const __m256d ay = _mm256_broadcast_sd(e.ay + k);
      const __m256d bx = _mm256_broadcast_sd(e.bx + k);
      const __m256d by = _mm256_broadcast_sd(e.by + k);
      const Orient4 o0 = OrientLanes(ax, ay, bx, by, px0, py0);
      const Orient4 o1 = OrientLanes(ax, ay, bx, by, px1, py1);
      // Certified strictly-outside (det <= -errbound) vs certified
      // on-or-inside (det >= errbound; equality with errbound == 0 covers
      // the certified-collinear case, which counts as inside per the
      // on-edge rule). Lanes matching neither stay uncertain.
      anyneg0 = _mm256_or_pd(anyneg0, _mm256_cmp_pd(o0.det, NegPd(o0.errbound), _CMP_LE_OQ));
      anyneg1 = _mm256_or_pd(anyneg1, _mm256_cmp_pd(o1.det, NegPd(o1.errbound), _CMP_LE_OQ));
      allok0 = _mm256_and_pd(allok0, _mm256_cmp_pd(o0.det, o0.errbound, _CMP_GE_OQ));
      allok1 = _mm256_and_pd(allok1, _mm256_cmp_pd(o1.det, o1.errbound, _CMP_GE_OQ));
      // All active lanes certified outside: no later edge can change that.
      if ((static_cast<unsigned>(_mm256_movemask_pd(anyneg0)) & amask0) == amask0 &&
          (static_cast<unsigned>(_mm256_movemask_pd(anyneg1)) & amask1) == amask1) {
        break;
      }
    }
    const __m256d in0 = _mm256_and_pd(inm0, allok0);
    const __m256d in1 = _mm256_and_pd(inm1, allok1);
    const __m256d ne0 = _mm256_andnot_pd(anyneg0, _mm256_andnot_pd(allok0, inm0));
    const __m256d ne1 = _mm256_andnot_pd(anyneg1, _mm256_andnot_pd(allok1, inm1));
    any_exact |= (static_cast<unsigned>(_mm256_movemask_pd(ne0)) & amask0) |
                 (static_cast<unsigned>(_mm256_movemask_pd(ne1)) & amask1);
    StoreFlags(in0, a0, inside + i);
    StoreFlags(ne0, a0, needs_exact + i);
    if (a1 != 0) {
      StoreFlags(in1, a1, inside + i + 4);
      StoreFlags(ne1, a1, needs_exact + i + 4);
    }
  }
  return any_exact != 0;
}

namespace {

// Per-edge state for one 4-lane half of the crossing-parity kernel.
struct ParityAcc {
  __m256d parity = _mm256_setzero_pd();
  __m256d onedge = _mm256_setzero_pd();
  __m256d uncert = _mm256_setzero_pd();
};

// One edge vs four points: upward/downward straddle toggles with certified
// strict sign, on-edge detection gated by the edge MBR, uncertainty
// accumulation for everything the filter cannot decide. Mirrors the body
// of `Polygon::Contains`' edge loop.
inline void ParityEdge(ParityAcc* acc, __m256d ax, __m256d ay, __m256d bx,
                       __m256d by, __m256d ebminx, __m256d ebmaxx,
                       __m256d ebminy, __m256d ebmaxy, __m256d px,
                       __m256d py) {
  const Orient4 o = OrientLanes(ax, ay, bx, by, px, py);
  const __m256d aley = _mm256_cmp_pd(ay, py, _CMP_LE_OQ);
  const __m256d bgty = _mm256_cmp_pd(by, py, _CMP_GT_OQ);
  const __m256d bley = _mm256_cmp_pd(by, py, _CMP_LE_OQ);
  const __m256d up = _mm256_and_pd(aley, bgty);
  const __m256d dn = _mm256_andnot_pd(aley, bley);
  const __m256d inbox = InBoxLanes(px, py, ebminx, ebmaxx, ebminy, ebmaxy);
  const __m256d certpos = _mm256_cmp_pd(o.det, o.errbound, _CMP_GE_OQ);
  const __m256d certneg = _mm256_cmp_pd(o.det, NegPd(o.errbound), _CMP_LE_OQ);
  const __m256d certified = _mm256_or_pd(certpos, certneg);
  const __m256d zero = _mm256_setzero_pd();
  // certpos/certneg include det == 0 when errbound == 0, so the strict
  // comparisons against zero split "certified >= 0" into "> 0" vs "== 0"
  // (an upward crossing toggles only on det > 0, on-edge needs det == 0).
  const __m256d dpos = _mm256_cmp_pd(o.det, zero, _CMP_GT_OQ);
  const __m256d dneg = _mm256_cmp_pd(o.det, zero, _CMP_LT_OQ);
  const __m256d dzer = _mm256_cmp_pd(o.det, zero, _CMP_EQ_OQ);
  const __m256d toggle =
      _mm256_or_pd(_mm256_and_pd(up, _mm256_and_pd(certpos, dpos)),
                   _mm256_and_pd(dn, _mm256_and_pd(certneg, dneg)));
  const __m256d relevant = _mm256_or_pd(_mm256_or_pd(up, dn), inbox);
  acc->parity = _mm256_xor_pd(acc->parity, toggle);
  acc->onedge = _mm256_or_pd(acc->onedge, _mm256_and_pd(inbox, _mm256_and_pd(certified, dzer)));
  acc->uncert = _mm256_or_pd(acc->uncert, _mm256_andnot_pd(certified, relevant));
}

}  // namespace

bool CrossingParityAvx2(const EdgeSoA& e, std::size_t m,
                        const CircleScreen& cs, double bminx, double bminy,
                        double bmaxx, double bmaxy, const double* xs,
                        const double* ys, std::size_t n, bool* inside,
                        bool* needs_exact) {
  unsigned any_exact = 0;
  const __m256d vminx = _mm256_set1_pd(bminx);
  const __m256d vmaxx = _mm256_set1_pd(bmaxx);
  const __m256d vminy = _mm256_set1_pd(bminy);
  const __m256d vmaxy = _mm256_set1_pd(bmaxy);
  const __m256d vccx = _mm256_set1_pd(cs.cx);
  const __m256d vccy = _mm256_set1_pd(cs.cy);
  const __m256d vrin2 = _mm256_set1_pd(cs.rin2);
  const __m256d vrout2 = _mm256_set1_pd(cs.rout2);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t rem = n - i;
    const std::size_t a0 = rem < 4 ? rem : 4;
    const std::size_t a1 = rem > 4 ? (rem - 4 < 4 ? rem - 4 : 4) : 0;
    const unsigned amask0 = (1u << a0) - 1u;
    const unsigned amask1 = (1u << a1) - 1u;
    const __m256d px0 = LoadLanes(xs + i, a0);
    const __m256d py0 = LoadLanes(ys + i, a0);
    const __m256d px1 = a1 != 0 ? LoadLanes(xs + i + 4, a1) : _mm256_setzero_pd();
    const __m256d py1 = a1 != 0 ? LoadLanes(ys + i + 4, a1) : _mm256_setzero_pd();
    const __m256d inm0 = InBoxLanes(px0, py0, vminx, vmaxx, vminy, vmaxy);
    const __m256d inm1 = InBoxLanes(px1, py1, vminx, vmaxx, vminy, vmaxy);
    const Screen4 s0 = ScreenLanes(px0, py0, vccx, vccy, vrin2, vrout2, inm0);
    const Screen4 s1 = ScreenLanes(px1, py1, vccx, vccy, vrin2, vrout2, inm1);
    const unsigned ub0 =
        static_cast<unsigned>(_mm256_movemask_pd(s0.undecided)) & amask0;
    const unsigned ub1 =
        static_cast<unsigned>(_mm256_movemask_pd(s1.undecided)) & amask1;
    if (static_cast<unsigned>(__builtin_popcount(ub0) +
                              __builtin_popcount(ub1)) <= kScreenMaxExact) {
      any_exact |= ub0 | ub1;
      StoreFlags(s0.incirc, a0, inside + i);
      StoreFlags(s0.undecided, a0, needs_exact + i);
      if (a1 != 0) {
        StoreFlags(s1.incirc, a1, inside + i + 4);
        StoreFlags(s1.undecided, a1, needs_exact + i + 4);
      }
      continue;
    }
    ParityAcc acc0;
    ParityAcc acc1;
    for (std::size_t k = 0; k < m; ++k) {
      const __m256d ax = _mm256_broadcast_sd(e.ax + k);
      const __m256d ay = _mm256_broadcast_sd(e.ay + k);
      const __m256d bx = _mm256_broadcast_sd(e.bx + k);
      const __m256d by = _mm256_broadcast_sd(e.by + k);
      const __m256d ebnx = _mm256_broadcast_sd(e.ebminx + k);
      const __m256d ebxx = _mm256_broadcast_sd(e.ebmaxx + k);
      const __m256d ebny = _mm256_broadcast_sd(e.ebminy + k);
      const __m256d ebxy = _mm256_broadcast_sd(e.ebmaxy + k);
      ParityEdge(&acc0, ax, ay, bx, by, ebnx, ebxx, ebny, ebxy, px0, py0);
      ParityEdge(&acc1, ax, ay, bx, by, ebnx, ebxx, ebny, ebxy, px1, py1);
    }
    // Out-of-MBR lanes are decided (false) without consulting the edge
    // accumulators, like the scalar bounds reject; the uncertainty flag is
    // masked the same way.
    const __m256d decided0 = _mm256_or_pd(acc0.onedge, acc0.parity);
    const __m256d decided1 = _mm256_or_pd(acc1.onedge, acc1.parity);
    const __m256d in0 = _mm256_and_pd(inm0, _mm256_andnot_pd(acc0.uncert, decided0));
    const __m256d in1 = _mm256_and_pd(inm1, _mm256_andnot_pd(acc1.uncert, decided1));
    const __m256d ne0 = _mm256_and_pd(inm0, acc0.uncert);
    const __m256d ne1 = _mm256_and_pd(inm1, acc1.uncert);
    any_exact |= (static_cast<unsigned>(_mm256_movemask_pd(ne0)) & amask0) |
                 (static_cast<unsigned>(_mm256_movemask_pd(ne1)) & amask1);
    StoreFlags(in0, a0, inside + i);
    StoreFlags(ne0, a0, needs_exact + i);
    if (a1 != 0) {
      StoreFlags(in1, a1, inside + i + 4);
      StoreFlags(ne1, a1, needs_exact + i + 4);
    }
  }
  return any_exact != 0;
}

namespace {

// Folds the edges [begin, end) into `acc` for the four points (px, py):
// edges broadcast, points in lanes.
inline void ParityEdgeRange(const EdgeSoA& e, std::size_t begin,
                            std::size_t end, __m256d px, __m256d py,
                            ParityAcc* acc) {
  for (std::size_t k = begin; k < end; ++k) {
    ParityEdge(acc, _mm256_broadcast_sd(e.ax + k), _mm256_broadcast_sd(e.ay + k),
               _mm256_broadcast_sd(e.bx + k), _mm256_broadcast_sd(e.by + k),
               _mm256_broadcast_sd(e.ebminx + k),
               _mm256_broadcast_sd(e.ebmaxx + k),
               _mm256_broadcast_sd(e.ebminy + k),
               _mm256_broadcast_sd(e.ebmaxy + k), px, py);
  }
}

// Writes the `active` verdicts of one 4-lane half: -1 uncertain, else
// 1 for on-edge or odd parity, 0 otherwise.
inline void StoreVerdicts(const ParityAcc& acc, std::size_t active,
                          signed char* out) {
  const auto unc = static_cast<unsigned>(_mm256_movemask_pd(acc.uncert));
  const auto in = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_or_pd(acc.onedge, acc.parity)));
  for (std::size_t j = 0; j < active; ++j) {
    out[j] = ((unc >> j) & 1u) != 0
                 ? static_cast<signed char>(-1)
                 : static_cast<signed char>((in >> j) & 1u);
  }
}

}  // namespace

void RowParityLanesAvx2(const EdgeSoA& e, std::size_t begin, std::size_t end,
                        const double* xs, const double* ys, std::size_t n,
                        signed char* verdict) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t rem = n - i;
    const std::size_t a0 = rem < 4 ? rem : 4;
    const __m256d px0 = LoadLanes(xs + i, a0);
    const __m256d py0 = LoadLanes(ys + i, a0);
    ParityAcc acc0;
    if (rem <= 4) {
      ParityEdgeRange(e, begin, end, px0, py0, &acc0);
      StoreVerdicts(acc0, a0, verdict + i);
      continue;
    }
    // Two independent halves per edge broadcast: twice the lanes for one
    // set of edge loads, and two dependency chains in flight.
    const std::size_t a1 = rem - 4 < 4 ? rem - 4 : 4;
    const __m256d px1 = LoadLanes(xs + i + 4, a1);
    const __m256d py1 = LoadLanes(ys + i + 4, a1);
    ParityAcc acc1;
    for (std::size_t k = begin; k < end; ++k) {
      const __m256d ax = _mm256_broadcast_sd(e.ax + k);
      const __m256d ay = _mm256_broadcast_sd(e.ay + k);
      const __m256d bx = _mm256_broadcast_sd(e.bx + k);
      const __m256d by = _mm256_broadcast_sd(e.by + k);
      const __m256d ebnx = _mm256_broadcast_sd(e.ebminx + k);
      const __m256d ebxx = _mm256_broadcast_sd(e.ebmaxx + k);
      const __m256d ebny = _mm256_broadcast_sd(e.ebminy + k);
      const __m256d ebxy = _mm256_broadcast_sd(e.ebmaxy + k);
      ParityEdge(&acc0, ax, ay, bx, by, ebnx, ebxx, ebny, ebxy, px0, py0);
      ParityEdge(&acc1, ax, ay, bx, by, ebnx, ebxx, ebny, ebxy, px1, py1);
    }
    StoreVerdicts(acc0, a0, verdict + i);
    StoreVerdicts(acc1, a1, verdict + i + 4);
  }
}

}  // namespace vaq::simd

#endif  // VAQ_HAVE_AVX2_KERNELS
