#ifndef VAQ_GEOMETRY_EXACT_ARITHMETIC_H_
#define VAQ_GEOMETRY_EXACT_ARITHMETIC_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>

namespace vaq {

/// Error-free floating-point transformations and expansion arithmetic,
/// following Shewchuk ("Adaptive Precision Floating-Point Arithmetic and
/// Fast Robust Geometric Predicates", 1997).
///
/// A *non-overlapping expansion* represents a real number exactly as the sum
/// of `n` IEEE-754 doubles of strictly increasing magnitude. The geometric
/// predicates in predicates.h evaluate their determinants in plain doubles
/// first (with a static forward-error filter) and fall back to these exact
/// routines only when the filter cannot certify the sign — so the common
/// case stays fast while degenerate inputs are decided consistently.
///
/// These routines REQUIRE strict IEEE-754 double semantics: the build must
/// not enable -ffast-math / -funsafe-math-optimizations.

/// Computes `a + b` exactly as `x + err` where `x` is the rounded sum.
inline void TwoSum(double a, double b, double* x, double* err) {
  *x = a + b;
  const double b_virtual = *x - a;
  const double a_virtual = *x - b_virtual;
  const double b_roundoff = b - b_virtual;
  const double a_roundoff = a - a_virtual;
  *err = a_roundoff + b_roundoff;
}

/// Computes `a - b` exactly as `x + err`.
inline void TwoDiff(double a, double b, double* x, double* err) {
  *x = a - b;
  const double b_virtual = a - *x;
  const double a_virtual = *x + b_virtual;
  const double b_roundoff = b_virtual - b;
  const double a_roundoff = a - a_virtual;
  *err = a_roundoff + b_roundoff;
}

/// Computes `a * b` exactly as `x + err` using FMA.
inline void TwoProduct(double a, double b, double* x, double* err) {
  *x = a * b;
  *err = __builtin_fma(a, b, -*x);
}

/// A fixed-capacity, non-overlapping expansion of doubles. `Cap` bounds the
/// number of components; operations assert it is never exceeded. The sizes
/// needed by the predicates in this library are small (orient2d <= 16,
/// incircle <= 1152 worst case; we use generous caps).
/// Only the first `size()` components are live: the storage is left
/// uninitialised and copies move the live prefix, since zero-filling or
/// copying a 16 KiB incircle-sized array would dominate the exact fallback.
template <std::size_t Cap>
class Expansion {
 public:
  Expansion() = default;
  Expansion(const Expansion& other) : size_(other.size_) {
    std::copy_n(other.comp_.begin(), size_, comp_.begin());
  }
  Expansion& operator=(const Expansion& other) {
    if (this != &other) {
      size_ = other.size_;
      std::copy_n(other.comp_.begin(), size_, comp_.begin());
    }
    return *this;
  }

  /// The expansion representing a single double.
  explicit Expansion(double v) : size_(1) { comp_[0] = v; }

  /// The exact two-component result of TwoSum/TwoDiff/TwoProduct:
  /// value = hi + lo with |lo| <= ulp(hi)/2.
  Expansion(double err_lo, double hi) : size_(2) {
    comp_[0] = err_lo;
    comp_[1] = hi;
  }

  std::size_t size() const { return size_; }
  double component(std::size_t i) const { return comp_[i]; }

  /// The most significant component, which approximates the value and whose
  /// sign equals the sign of the exact value (Shewchuk, Lemma 1 corollary
  /// for strongly non-overlapping expansions produced by these routines).
  double MostSignificant() const { return size_ == 0 ? 0.0 : comp_[size_ - 1]; }

  /// Sign of the exact value: -1, 0 or +1.
  int Sign() const {
    const double m = MostSignificant();
    return m > 0.0 ? 1 : (m < 0.0 ? -1 : 0);
  }

  /// Approximate value (sum of components, most significant last).
  double Estimate() const {
    double s = 0.0;
    for (std::size_t i = 0; i < size_; ++i) s += comp_[i];
    return s;
  }

  /// Exact sum of two expansions. This is Shewchuk's
  /// FAST-EXPANSION-SUM-ZEROELIM: merge the component sequences by
  /// increasing magnitude, then chain TwoSum, emitting the roundoff terms.
  template <std::size_t C2>
  Expansion Add(const Expansion<C2>& other) const {
    Expansion result;
    const std::size_t elen = size_;
    const std::size_t flen = other.size();
    if (elen == 0 && flen == 0) return result;
    // Merge by increasing magnitude (ties broken arbitrarily). Slot 0 is
    // set first only because the compiler cannot see that m >= 1.
    std::array<double, Cap> merged;
    merged[0] = 0.0;
    std::size_t i = 0, j = 0, m = 0;
    while (i < elen && j < flen) {
      if (Magnitude(comp_[i]) < Magnitude(other.component(j))) {
        merged[m++] = comp_[i++];
      } else {
        merged[m++] = other.component(j++);
      }
    }
    while (i < elen) merged[m++] = comp_[i++];
    while (j < flen) merged[m++] = other.component(j++);

    double q = merged[0];
    for (std::size_t k = 1; k < m; ++k) {
      double sum, err;
      TwoSum(q, merged[k], &sum, &err);
      if (err != 0.0) result.Append(err);
      q = sum;
    }
    if (q != 0.0 || result.size_ == 0) result.Append(q);
    return result;
  }

  /// Exact difference `*this - other`.
  template <std::size_t C2>
  Expansion Subtract(const Expansion<C2>& other) const {
    return Add(other.Negate());
  }

  /// Exact negation.
  Expansion Negate() const {
    Expansion r = *this;
    for (std::size_t i = 0; i < r.size_; ++i) r.comp_[i] = -r.comp_[i];
    return r;
  }

  /// Exact product with a single double (scale-expansion).
  Expansion Scale(double b) const {
    Expansion result;
    if (size_ == 0 || b == 0.0) return result;
    double q, err;
    TwoProduct(comp_[0], b, &q, &err);
    if (err != 0.0) result.Append(err);
    for (std::size_t i = 1; i < size_; ++i) {
      double prod_hi, prod_lo;
      TwoProduct(comp_[i], b, &prod_hi, &prod_lo);
      double sum, sum_err;
      TwoSum(q, prod_lo, &sum, &sum_err);
      if (sum_err != 0.0) result.Append(sum_err);
      double new_q, new_err;
      TwoSum(prod_hi, sum, &new_q, &new_err);
      if (new_err != 0.0) result.Append(new_err);
      q = new_q;
    }
    if (q != 0.0 || result.size_ == 0) result.Append(q);
    return result;
  }

  /// Exact product of two expansions (distribute-and-sum; O(n*m) terms).
  template <std::size_t C2>
  Expansion Multiply(const Expansion<C2>& other) const {
    Expansion result;
    for (std::size_t j = 0; j < other.size(); ++j) {
      result = result.Add(Scale(other.component(j)));
    }
    return result;
  }

 private:
  template <std::size_t C2>
  friend class Expansion;

  static double Magnitude(double v) { return v < 0.0 ? -v : v; }

  void Append(double v) {
    assert(size_ < Cap && "Expansion capacity exceeded");
    comp_[size_++] = v;
  }

  std::array<double, Cap> comp_;
  std::size_t size_ = 0;
};

/// Exact difference of two doubles as a 2-component expansion.
template <std::size_t Cap>
Expansion<Cap> ExactDiff(double a, double b) {
  double x, err;
  TwoDiff(a, b, &x, &err);
  if (err == 0.0) return Expansion<Cap>(x);
  return Expansion<Cap>(err, x);
}

}  // namespace vaq

#endif  // VAQ_GEOMETRY_EXACT_ARITHMETIC_H_
