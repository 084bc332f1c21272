// Folded rotation-correlation: the core numerical trick behind the fast
// CPA sweep. The watermark model vector X is periodic with period P, so
// the Pearson correlation against all P rotations of X over N >> P cycles
// can be computed exactly from per-phase partial sums of Y in O(N + P^2),
// or O(N + P log P) with the FFT, instead of the naive O(N * P).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace clockmark::dsp {

/// Per-phase fold of a long vector y against period P:
///   sums[p] = sum of y[i] for i ≡ p (mod P)
/// A fold always starts at phase 0, so phase p holds phase_count(fold, p)
/// samples — a function of n alone, which is why the fold stores no
/// per-phase counts.
struct PhaseFold {
  std::vector<double> sums;
  double total = 0.0;        ///< sum of all y[i]
  double total_sq = 0.0;     ///< sum of all y[i]^2
  std::size_t n = 0;         ///< original length
};

PhaseFold fold_by_phase(std::span<const double> y, std::size_t period);

/// Extends a fold with further samples in stream order. A fold built by
/// feeding a vector's chunks through fold_extend (in order, starting from
/// a default-constructed PhaseFold, or one with sums sized to `period`)
/// is bit-identical to fold_by_phase over the whole vector: the
/// accumulation loop body and its order are the same, the chunk
/// boundaries only decide where the loop pauses. This is what makes
/// online CPA exact.
void fold_extend(PhaseFold& fold, std::span<const double> y,
                 std::size_t period);

/// Number of samples folded into phase p: n/P + (p < n mod P), with P =
/// fold.sums.size() (0 for a fold that has seen nothing).
std::size_t phase_count(const PhaseFold& fold, std::size_t p);

/// The two count correlations of an n-sample fold against every
/// rotation r of the pattern (sx, sxx and pattern sized P):
///   sx[r]  = sum_p pattern[(p + r) mod P]   * phase count p
///   sxx[r] = sum_p pattern[(p + r) mod P]^2 * phase count p
/// Each is (n/P) * sum(x) plus the window of the n mod P values from r,
/// read off prefix sums of the repeated pattern in O(P). For a 0/1
/// pattern every partial sum is an exactly representable integer, so
/// both equal the folded sweep's accumulated sums bit for bit. Throws on
/// an empty pattern or mismatched sizes.
void count_model_sums(std::size_t n, std::span<const double> pattern,
                      std::span<double> sx, std::span<double> sxx);

/// Model sums of consecutive rotations against a fold — the inner loop
/// of the folded O(P^2) sweep, exposed so callers can parallelise it one
/// block of rotations per work item without changing a single
/// floating-point operation.
struct RotationModelSums {
  double sxy = 0.0;  ///< sum of model * y  (via per-phase sums)
  double sx = 0.0;   ///< sum of model values
  double sxx = 0.0;  ///< sum of squared model values
};

/// Model sums for out.size() *consecutive* rotations (first_rotation,
/// first_rotation + 1, ...) in a single traversal of the fold. Lane l
/// holds rotation r = first_rotation + l, accumulated over p = 0..P-1 in
/// order: sxy += x * sums[p], sx += x * c, sxx += x * x * c, with x =
/// pattern[(p + r) mod P] and c = phase_count(fold, p). The result of a
/// lane depends only on r, never on the block it was computed in or the
/// block's width.
void rotation_model_sums_blocked(const PhaseFold& fold,
                                 std::span<const double> pattern,
                                 std::size_t first_rotation,
                                 std::span<RotationModelSums> out);

/// Assembles Pearson coefficients for every rotation from the
/// per-rotation model sums — the shared final stage of the folded and
/// FFT paths (sxy/sx/sxx are indexed by rotation).
std::vector<double> assemble_rotation_correlations(
    const PhaseFold& fold, std::span<const double> sxy,
    std::span<const double> sx, std::span<const double> sxx);

/// Same assembly into a caller-provided buffer (rho.size() must equal
/// sxy.size()) — the allocation-free form the sync candidate engine's
/// scoring loop uses.
void assemble_rotation_correlations_into(const PhaseFold& fold,
                                         std::span<const double> sxy,
                                         std::span<const double> sx,
                                         std::span<const double> sxx,
                                         std::span<double> rho);

/// Folded / FFT finalisation from an already-computed fold. The folded
/// form is the O(P^2) reference; the FFT form makes one transform
/// correlation, for sxy. The batch sweeps below are exactly
/// fold_by_phase + these functions, so a fold accumulated chunk-by-chunk
/// with fold_extend yields bit-identical correlations to the batch sweep
/// over the concatenated trace.
std::vector<double> rotation_correlation_folded_from_fold(
    const PhaseFold& fold, std::span<const double> pattern);
std::vector<double> rotation_correlation_fft_from_fold(
    const PhaseFold& fold, std::span<const double> pattern);

/// Pearson correlation of y against every rotation r of the periodic
/// binary pattern x (length P), where the model vector is
///   X_r[i] = x[(i + r) mod P], i = 0..N-1.
/// Exact — handles N not divisible by P. Cost O(N + P^2).
std::vector<double> rotation_correlation_folded(
    std::span<const double> y, std::span<const double> pattern);

/// Same result via one FFT circular correlation of the folded sums
/// (sxy); sx and sxx come from count_model_sums, which handles N not
/// divisible by P. Cost O(N + P log P).
std::vector<double> rotation_correlation_fft(std::span<const double> y,
                                             std::span<const double> pattern);

/// Reference implementation: materialises each rotated model vector and
/// calls Pearson directly. O(N * P); used to validate the fast paths.
std::vector<double> rotation_correlation_naive(
    std::span<const double> y, std::span<const double> pattern);

}  // namespace clockmark::dsp
