// appscope/la/simd.hpp
//
// Dispatched SIMD kernels for the SBD/FFT/z-norm hot path, the snapshot
// checksum (io::crc32) and the generator's lognormal noise.
//
// Every kernel here exists in (at least) two implementations: a scalar
// reference and an AVX2 version, selected once per process through a kernel
// table. The contract that makes this safe project-wide is *bitwise
// determinism*: for every input, every implementation of a kernel produces
// exactly the same double bits (crc32 is exact integer arithmetic, so its
// implementations agree trivially). That is achievable because the kernels
// are restricted to elementwise work — each output element is computed by
// the same IEEE operation sequence in every implementation, so vector lanes
// can't reorder anything that affects rounding — and because both kernel
// files are compiled without fused multiply-adds whatever the -march
// (src/la/CMakeLists.txt), so a multiply and an add stay two roundings.
// Order-sensitive reductions (Welford running stats, sequential dot products
// and sums) deliberately stay scalar in their home modules; the only
// reduction-shaped kernels here (max_value / find_first_equal) are exact
// searches whose results are order-independent, see the notes on each.
//
// Dispatch: the active table is chosen on first use from the APPSCOPE_SIMD
// environment variable ("avx2" or "scalar"); unset picks AVX2 when the
// build has it compiled in and the CPU reports both AVX2 and PCLMULQDQ
// (the AVX2 table's crc32 folds with carry-less multiplies), else scalar.
// Tests flip implementations at runtime with set_dispatch() to prove
// parity. Kernel pointers live behind one atomic so the choice is safe to
// read from any thread.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace appscope::la::simd {

/// Available kernel implementations.
enum class Dispatch {
  kScalar,
  kAvx2,
};

/// Table of hot-loop kernels. All pointers are always non-null.
///
/// FFT kernels consume *stage-packed* twiddles: the butterflies of the
/// stage with half-size `half` read `half` consecutive roots starting at
/// offset `half - 1` (stages packed back to back, n - 1 entries total for a
/// size-n transform). The packed values are the same exp(-2*pi*i*j/n)
/// doubles the strided layout held, just gathered per stage so vector loads
/// are contiguous.
struct Kernels {
  const char* name;  // "scalar" or "avx2"

  /// All butterfly stages of an in-place radix-2 transform over
  /// data[0, n). Expects bit-reversed input (the permutation pass stays
  /// with the plan). `inverse` conjugates the twiddles; no 1/n scaling.
  void (*fft_passes)(std::complex<double>* data, std::size_t n,
                     const std::complex<double>* stage_twiddles, bool inverse);

  /// The (k, h-k) untangle loop of RealFftPlan::forward for k in
  /// [1, ceil(h/2) - 1]; DC/Nyquist and the middle bin stay with the plan.
  /// `split` holds exp(-2*pi*i*k/(2h)) for k in [0, h/2].
  void (*rfft_untangle)(std::complex<double>* spectrum,
                        const std::complex<double>* split, std::size_t h);

  /// The (k, h-k) re-tangle loop of RealFftPlan::inverse, same bounds.
  void (*rfft_retangle)(std::complex<double>* spectrum,
                        const std::complex<double>* split, std::size_t h);

  /// out[i] = {a[i].re * b[i].re + a[i].im * b[i].im,
  ///           a[i].im * b[i].re - a[i].re * b[i].im}  (a . conj(b), the
  /// SBD cross-correlation product).
  void (*conj_multiply)(const std::complex<double>* a,
                        const std::complex<double>* b,
                        std::complex<double>* out, std::size_t n);

  /// data[i] *= alpha for complex data (both components scaled).
  void (*complex_scale)(std::complex<double>* data, std::size_t n,
                        double alpha);

  /// x[i] *= alpha.
  void (*scale)(double* x, std::size_t n, double alpha);

  /// y[i] += alpha * x[i].
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);

  /// acc[i] += x[i].
  void (*accumulate)(double* acc, const double* x, std::size_t n);

  /// x[i] = (x[i] - mean) / stddev. Real division — no reciprocal trick,
  /// so bits match the scalar apply loop exactly.
  void (*znorm_apply)(double* x, std::size_t n, double mean, double stddev);

  /// out[i] = ((c * w[i]) * jitter[i]) * presence[i] — the generator's
  /// per-hour traffic product with the scalar association order.
  void (*row_scale)(double c, const double* w, const double* jitter,
                    const double* presence, double* out, std::size_t n);

  /// Maximum of x[0, n) under the `>` comparison (NaNs never win; -inf for
  /// an empty or all-NaN range). The result is order-independent: max over
  /// non-NaN doubles is associative/commutative, and when several elements
  /// tie at a zero of either sign, both compare == so callers that re-read
  /// the element at find_first_equal() see identical bits regardless of
  /// which representative this returns.
  double (*max_value)(const double* x, std::size_t n);

  /// First i with x[i] == v (IEEE ==, so +0 matches -0), or n if none.
  std::size_t (*find_first_equal)(const double* x, std::size_t n, double v);

  // --- Slice-scan reductions (query engine) ---------------------------------
  // These are the only summing reductions in the table. They are bitwise
  // deterministic across implementations because the reduction *tree* is
  // part of the kernel contract, not an implementation detail: element i is
  // added into virtual lane (i & 3), and the four lane accumulators are
  // combined as (l0 + l2) + (l1 + l3). The scalar reference performs exactly
  // that sequence with scalar adds; AVX2 performs it with one vector
  // accumulator whose lanes are the same four accumulators. Callers must not
  // assume the result matches a left-to-right sequential sum — both paths of
  // a comparison have to go through the same kernel.

  /// 4-lane striped sum of x[0, n): lane (i & 3) accumulates x[i] in index
  /// order, lanes combine as (l0 + l2) + (l1 + l3).
  double (*sum_stripes)(const double* x, std::size_t n);

  /// Striped sum over a selection: lane (i & 3) accumulates
  /// (mask[i] != 0 ? x[i] : 0.0) — masked-out elements contribute an
  /// explicit +0.0 in both implementations. Same lane/combine contract as
  /// sum_stripes.
  double (*masked_sum_stripes)(const double* x, const std::uint8_t* mask,
                               std::size_t n);

  /// Maximum of x[i] over i with mask[i] != 0, under the same `>` rules as
  /// max_value (NaNs never win; -inf when nothing is selected).
  double (*masked_max)(const double* x, const std::uint8_t* mask,
                       std::size_t n);

  // --- Snapshot checksum (io::crc32) -----------------------------------------

  /// Finished CRC-32 of data[0, n): reflected polynomial 0xEDB88320, init and
  /// final XOR 0xFFFFFFFF (the zlib/PNG variant). Scalar: slicing-by-8
  /// (Kounavis & Berry, ISCC 2005). AVX2: four-lane PCLMULQDQ folding with
  /// Barrett reduction (Gopal et al., Intel 2009); inputs under 64 bytes and
  /// the last n mod 16 bytes go through slicing-by-8.
  std::uint32_t (*crc32)(const std::byte* data, std::size_t n);

  // --- Counter-based lognormal noise (synth::AnalyticGenerator) -------------

  /// out[i] = exp(mu + sigma * z_i) for i in [0, n), n <= 2^33, where z is a
  /// standard normal stream: block j = i / 2 is Philox4x32-10
  /// (util::philox4x32_10) of counter {j, c1, c2, c3} under key
  /// {key0, key1}, whose words w0..w3 give
  ///   u1 = (((w1 * 2^32 + w0) >> 11) + 1) * 2^-53 in (0, 1],
  ///   u2 = ((w3 * 2^32 + w2) >> 11) * 2^-53 in [0, 1),
  /// and Box-Muller gives z_2j = r cos(2 pi u2), z_2j+1 = r sin(2 pi u2) with
  /// r = sqrt(-2 ln u1). ln, sin/cos and exp are noise_log,
  /// noise_sincos_2pi and noise_exp below, evaluated with the same IEEE
  /// operations by every implementation (AVX2: four blocks per vector,
  /// three vectors per step), so each element is a pure function of
  /// (key, c1, c2, c3, i, mu, sigma) whatever the dispatch or the chunking
  /// of i.
  void (*lognormal_philox)(std::uint32_t key0, std::uint32_t key1,
                           std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                           double mu, double sigma, double* out, std::size_t n);
};

// --- The noise kernel's elementary functions ---------------------------------
// Scalar references of the polynomials lognormal_philox evaluates (fdlibm's,
// constants in la/simd_noise.hpp); the AVX2 kernel runs the same operations
// lane by lane. No libm call and no fused multiply-add: both kernel files
// are built without FMA (see src/la/CMakeLists.txt). Exposed for the
// accuracy tests (NoiseKernel.*).

/// ln x for a positive normal double x (the kernel's u1 lies in
/// [2^-53, 1]); ln 1 is exactly +0.
double noise_log(double x) noexcept;

/// sin(2 pi u) and cos(2 pi u) for u in [0, 1). The quarter turn is
/// reduced exactly on u (q = round(4u), f = u - q / 4, |f| <= 1/8) before
/// the one rounded multiply by 2 pi, so accuracy holds at every zero.
void noise_sincos_2pi(double u, double* sin_out, double* cos_out) noexcept;

/// e^x: exactly 1 at 0, +inf above the largest x with a finite e^x, +0
/// below the smallest with a nonzero one (where std::exp saturates too).
double noise_exp(double x) noexcept;

/// The active kernel table (atomic acquire load; first call resolves
/// APPSCOPE_SIMD and CPU support).
const Kernels& active() noexcept;

/// Which implementation active() currently returns.
Dispatch active_dispatch() noexcept;

/// active().name — "scalar" or "avx2".
const char* active_name() noexcept;

/// True when AVX2 kernels are compiled in (APPSCOPE_SIMD build option) and
/// the CPU reports AVX2 and PCLMULQDQ.
bool avx2_available() noexcept;

/// Switches the active table at runtime (test hook; also reachable via
/// APPSCOPE_SIMD before first use). Throws if the requested implementation
/// is unavailable on this build/CPU.
void set_dispatch(Dispatch d);

/// Direct access to a specific implementation without flipping the global
/// dispatch — parity tests compare kernels_for(kScalar) against
/// kernels_for(kAvx2) on the same inputs. Throws if unavailable.
const Kernels& kernels_for(Dispatch d);

/// Records which dispatch path is active under the counter
/// la.simd.dispatch.<name> when metrics are enabled (observation only).
void record_dispatch_metric();

}  // namespace appscope::la::simd
