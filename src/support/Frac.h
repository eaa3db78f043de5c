//===-- support/Frac.h - Exact rational fractions ---------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers in (0, 1] used for fractional permissions
/// (Boyland-style) and guard fractions. Normalized on construction.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SUPPORT_FRAC_H
#define COMMCSL_SUPPORT_FRAC_H

#include <cstdint>
#include <numeric>
#include <string>

namespace commcsl {

/// A non-negative rational; guard/permission amounts live in [0, 1].
///
/// Sums and differences are exact: they are formed over the lcm of the
/// denominators in 128-bit arithmetic, so `1/2^31 + 1/2^32` (the guard
/// split of a 32-deep `par` nest) is `3/2^32`. A result whose reduced form
/// does not fit in int64 is the *overflow* fraction, which propagates
/// through arithmetic, is never a valid amount, and equals and orders
/// against nothing — any guard check that meets it fails, so the verifier
/// rejects rather than guesses.
struct Frac {
  int64_t Num = 0;
  int64_t Den = 1; ///< 0 marks the overflow fraction

  static Frac make(int64_t N, int64_t D) {
    Frac F{N, D};
    F.normalize();
    return F;
  }
  static Frac zero() { return Frac{0, 1}; }
  static Frac one() { return Frac{1, 1}; }
  static Frac overflow() { return Frac{1, 0}; }

  bool isOverflow() const { return Den == 0; }

  void normalize() {
    if (isOverflow())
      return;
    // Canonical form keeps the sign on the numerator and the denominator
    // strictly positive, so the cross-multiplying comparisons below never
    // flip direction.
    if (Den < 0) {
      Num = -Num;
      Den = -Den;
    }
    if (Num == 0) {
      Den = 1;
      return;
    }
    int64_t G = std::gcd(Num < 0 ? -Num : Num, Den);
    Num /= G;
    Den /= G;
  }

  Frac operator+(const Frac &O) const { return addScaled(O, 1); }
  Frac operator-(const Frac &O) const { return addScaled(O, -1); }
  /// This amount split into \p K equal parts.
  Frac splitInto(int64_t K) const {
    if (isOverflow() || K <= 0)
      return overflow();
    return reduced(Num, static_cast<__int128>(Den) * K);
  }
  bool operator==(const Frac &O) const {
    return !isOverflow() && Num == O.Num && Den == O.Den;
  }
  bool operator<(const Frac &O) const {
    // Cross products can exceed int64 for reduced fractions with large
    // denominators; compare in 128-bit to stay exact.
    return !isOverflow() && !O.isOverflow() &&
           static_cast<__int128>(Num) * O.Den <
               static_cast<__int128>(O.Num) * Den;
  }
  bool operator<=(const Frac &O) const { return *this < O || *this == O; }

  bool isZero() const { return Num == 0; }
  bool isOne() const { return !isOverflow() && Num == Den; }
  /// Valid permission amount: 0 < f <= 1.
  bool isValidAmount() const {
    return !isOverflow() && Num > 0 && Num <= Den;
  }

  std::string str() const {
    if (isOverflow())
      return "<overflow>";
    return std::to_string(Num) + "/" + std::to_string(Den);
  }

private:
  /// this + Sign * O over the lcm of the denominators.
  Frac addScaled(const Frac &O, int Sign) const {
    if (isOverflow() || O.isOverflow())
      return overflow();
    __int128 G = std::gcd(Den, O.Den);
    __int128 L = Den / G * static_cast<__int128>(O.Den);
    __int128 N = static_cast<__int128>(Num) * (L / Den) +
                 Sign * static_cast<__int128>(O.Num) * (L / O.Den);
    return reduced(N, L);
  }

  /// N/D (D > 0) in lowest terms, or overflow when that does not fit.
  static Frac reduced(__int128 N, __int128 D) {
    __int128 A = N < 0 ? -N : N, B = D;
    while (B != 0) {
      __int128 T = A % B;
      A = B;
      B = T;
    }
    if (A > 1) {
      N /= A;
      D /= A;
    }
    if (N == 0)
      return zero();
    if (N > INT64_MAX || N < -INT64_MAX || D > INT64_MAX)
      return overflow();
    return Frac{static_cast<int64_t>(N), static_cast<int64_t>(D)};
  }
};

} // namespace commcsl

#endif // COMMCSL_SUPPORT_FRAC_H
