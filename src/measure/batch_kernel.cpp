#include "measure/batch_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "dsp/filter.h"
#include "measure/chain_internal.h"
#include "measure/kernel.h"

namespace clockmark::measure {

namespace {

/// SoA lane width: four doubles fill one AVX2 register, and four
/// independent IIR chains cover the FMA latency on the scalar path too.
constexpr std::size_t kLaneWidth = 4;

/// Reusable scratch for run_group: the interleaved waveform cache and
/// the per-block noise staging buffer. Allocating (and first-touching)
/// up to cache_budget_bytes_ per run() call costs more than a whole
/// acquisition pass in page faults + zero-init, so the buffers persist
/// thread-locally across groups and runs — same arena discipline as
/// cpa::SweepArena. Contents carry no state: pass 1 writes every cached
/// sample before pass 2 reads it, and the noise buffer is refilled per
/// block before use.
struct GroupArena {
  std::vector<double> wcache;
  std::vector<double> noise;
};

GroupArena& group_arena() {
  thread_local GroupArena arena;
  return arena;
}

/// Per-lane analog state threaded through the blocks of one group.
struct LaneState {
  /// Probe stream (range pass) and scope stream (acquire pass).
  detail::NoiseStreams noise;
  double pdn_y = 0.0;
  double probe_y = 0.0;
  double volts_min = std::numeric_limits<double>::infinity();
  double volts_max = -std::numeric_limits<double>::infinity();
  OscilloscopeConfig scope;  ///< the lane's scope, range fixed by pass 1
  double lsb_v = 0.0;
  double sum_power_w = 0.0;
};

}  // namespace

BatchAcquisitionKernel::BatchAcquisitionKernel(
    const AcquisitionConfig& config, double clock_hz)
    : config_(config), clock_hz_(clock_hz) {
  detail::ChainSetup setup =
      detail::make_chain_setup(config_, clock_hz, "BatchAcquisitionKernel");
  template_ = std::move(setup.pulse);
  block_cycles_ = setup.block_cycles;
  sample_rate_hz_ = setup.sample_rate_hz;
}

std::size_t BatchAcquisitionKernel::group_width(
    std::size_t trace_cycles) const noexcept {
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const std::size_t lane_bytes = trace_cycles * spc * sizeof(double);
  if (lane_bytes == 0 || lane_bytes > cache_budget_bytes_) return 0;
  std::size_t width = kLaneWidth;
  while (width > 1 && width * lane_bytes > cache_budget_bytes_) width /= 2;
  return width;
}

std::vector<Acquisition> BatchAcquisitionKernel::run(
    std::span<const BatchLane> lanes) const {
  std::vector<Acquisition> out(lanes.size());
  if (lanes.empty()) return out;

  // Trigger-offset capture re-aligns mid-cycle windows (a per-lane
  // stream cursor) and a disabled PDN filter changes the recurrence
  // shape; both are rare study configurations, served per lane, as are
  // unequal lanes and (group_width 0) empty or over-budget ones.
  bool batched = config_.trigger_sim == TriggerSim::kAligned &&
                 config_.enable_pdn_filter;
  const std::size_t cycles = lanes[0].cycle_power_w.size();
  for (const BatchLane& lane : lanes) {
    if (lane.cycle_power_w.size() != cycles) {
      batched = false;
      break;
    }
  }
  const std::size_t width = batched ? group_width(cycles) : 0;
  if (width == 0) {
    // Per-lane fallback: the single-trace kernel with the lane's seed.
    AcquisitionConfig cfg = config_;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      cfg.noise_seed = lanes[i].noise_seed;
      out[i] =
          AcquisitionKernel(cfg, clock_hz_).acquire(lanes[i].cycle_power_w);
    }
    return out;
  }
  for (std::size_t l0 = 0; l0 < lanes.size(); l0 += width) {
    const std::size_t lg = std::min(width, lanes.size() - l0);
    run_group(lanes.subspan(l0, lg),
              std::span<Acquisition>(out.data() + l0, lg));
  }
  return out;
}

// The group engine. Two passes over the trace, K lanes interleaved:
//
//   pass 1 (range): expand -> PDN -> shunt -> probe (+noise), tracking
//     each lane's min/max and storing the post-probe sample stream into
//     the interleaved waveform cache. This stream is exactly the
//     acquire pass's pre-scope-noise input — both passes fork the probe
//     RNG from the same base with the same salt — so it is cached, not
//     recomputed.
//   fix_range: per lane, the scalar kernel's auto-range rule.
//   pass 2 (acquire): scope noise + clip + quantise + reconstruct over
//     the cached stream, fused with the per-cycle averaging.
//
// Per lane the floating-point op sequence is the scalar kernel's; lanes
// never mix. The AVX2 bodies map each scalar op to its per-element
// IEEE-exact vector twin — note the two places the reference has an
// unfused multiply+add (probe gain + noise; quantiser reconstruction):
// those stay split vmul/vadd, because the scalar TU compiles with
// -ffp-contract=off.
void BatchAcquisitionKernel::run_group(std::span<const BatchLane> lanes,
                                       std::span<Acquisition> out) const {
  const std::size_t lg = lanes.size();
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const double spc_d = static_cast<double>(spc);
  const std::size_t cycles = lanes[0].cycle_power_w.size();
  const double vdd = config_.vdd_v;
  const double r_shunt = config_.shunt.resistance_ohm();
  const double gain = config_.probe.gain;
  const double probe_noise = config_.probe.noise_v_rms;
  const double scope_noise = config_.scope.noise_v_rms;
  const double* tpl = template_.data();

  // Filter coefficients are lane-invariant (pure functions of config).
  const double pdn_alpha =
      dsp::OnePoleLowPass(config_.pdn_cutoff_hz, sample_rate_hz_).alpha();
  const double probe_alpha =
      dsp::OnePoleLowPass(config_.probe.bandwidth_hz,
                          config_.probe.sample_rate_hz)
          .alpha();

  std::vector<LaneState> st(lg);
  for (std::size_t k = 0; k < lg; ++k) {
    // Per-lane streams and PDN priming exactly as AcquisitionKernel's
    // acquire pass sets them up (aligned capture, offset 0).
    st[k].noise = detail::fork_noise(lanes[k].noise_seed);
    st[k].pdn_y =
        detail::pdn_priming(lanes[k].cycle_power_w, template_, vdd, 0).dc_a;
    out[k].per_cycle_power_w.reserve(cycles);
  }

  // Interleaved waveform cache: sample j of lane k at wcache[j*lg + k]
  // (unit-stride vector loads when lg == kLaneWidth). run() sized the
  // group so the cache respects cache_budget_bytes_; the backing arena
  // is thread-local and reused across groups and runs.
  GroupArena& arena = group_arena();
  if (arena.wcache.size() < cycles * spc * lg) {
    arena.wcache.resize(cycles * spc * lg);
  }
  if (arena.noise.size() < lg * block_cycles_ * spc) {
    arena.noise.resize(lg * block_cycles_ * spc);
  }
  double* const wcache = arena.wcache.data();
  double* const noise = arena.noise.data();

  // ---- Pass 1: expand + PDN + shunt + probe, store + min/max ---------
  for (std::size_t start = 0; start < cycles; start += block_cycles_) {
    const std::size_t bc = std::min(block_cycles_, cycles - start);
    const std::size_t sc = bc * spc;
    for (std::size_t k = 0; k < lg; ++k) {
      st[k].noise.probe.fill_gaussian(
          std::span<double>(noise + k * sc, sc), 0.0, probe_noise);
    }
    double* dst = wcache + start * spc * lg;
#if defined(__AVX2__) && defined(__FMA__)
    if (lg == kLaneWidth) {
      const __m256d va = _mm256_set1_pd(pdn_alpha);
      const __m256d vb = _mm256_set1_pd(probe_alpha);
      const __m256d vr = _mm256_set1_pd(r_shunt);
      const __m256d vg = _mm256_set1_pd(gain);
      const __m256d vvdd = _mm256_set1_pd(vdd);
      const __m256d vspc = _mm256_set1_pd(spc_d);
      __m256d py = _mm256_setr_pd(st[0].pdn_y, st[1].pdn_y, st[2].pdn_y,
                                  st[3].pdn_y);
      __m256d qy = _mm256_setr_pd(st[0].probe_y, st[1].probe_y,
                                  st[2].probe_y, st[3].probe_y);
      __m256d mn = _mm256_setr_pd(st[0].volts_min, st[1].volts_min,
                                  st[2].volts_min, st[3].volts_min);
      __m256d mx = _mm256_setr_pd(st[0].volts_max, st[1].volts_max,
                                  st[2].volts_max, st[3].volts_max);
      const double* n0 = noise;
      const double* n1 = noise + sc;
      const double* n2 = noise + 2 * sc;
      const double* n3 = noise + 3 * sc;
      const double* p0 = lanes[0].cycle_power_w.data() + start;
      const double* p1 = lanes[1].cycle_power_w.data() + start;
      const double* p2 = lanes[2].cycle_power_w.data() + start;
      const double* p3 = lanes[3].cycle_power_w.data() + start;
      std::size_t j = 0;
      for (std::size_t c = 0; c < bc; ++c) {
        // scale = power / vdd * spc, the expansion's per-cycle factor.
        const __m256d scale = _mm256_mul_pd(
            _mm256_div_pd(_mm256_setr_pd(p0[c], p1[c], p2[c], p3[c]), vvdd),
            vspc);
        for (std::size_t i = 0; i < spc; ++i, ++j) {
          const __m256d wv = _mm256_mul_pd(scale, _mm256_set1_pd(tpl[i]));
          py = _mm256_fmadd_pd(va, _mm256_sub_pd(wv, py), py);
          const __m256d v = _mm256_mul_pd(py, vr);
          qy = _mm256_fmadd_pd(vb, _mm256_sub_pd(v, qy), qy);
          const __m256d nz = _mm256_setr_pd(n0[j], n1[j], n2[j], n3[j]);
          const __m256d w = _mm256_add_pd(_mm256_mul_pd(qy, vg), nz);
          _mm256_storeu_pd(dst + j * kLaneWidth, w);
          mn = _mm256_min_pd(w, mn);
          mx = _mm256_max_pd(w, mx);
        }
      }
      alignas(32) double t_py[4], t_qy[4], t_mn[4], t_mx[4];
      _mm256_store_pd(t_py, py);
      _mm256_store_pd(t_qy, qy);
      _mm256_store_pd(t_mn, mn);
      _mm256_store_pd(t_mx, mx);
      for (std::size_t k = 0; k < kLaneWidth; ++k) {
        st[k].pdn_y = t_py[k];
        st[k].probe_y = t_qy[k];
        st[k].volts_min = t_mn[k];
        st[k].volts_max = t_mx[k];
      }
      continue;
    }
#endif
    double py[kLaneWidth];
    double qy[kLaneWidth];
    double mn[kLaneWidth];
    double mx[kLaneWidth];
    double scale[kLaneWidth];
    for (std::size_t k = 0; k < lg; ++k) {
      py[k] = st[k].pdn_y;
      qy[k] = st[k].probe_y;
      mn[k] = st[k].volts_min;
      mx[k] = st[k].volts_max;
    }
    std::size_t j = 0;
    for (std::size_t c = 0; c < bc; ++c) {
      for (std::size_t k = 0; k < lg; ++k) {
        scale[k] = lanes[k].cycle_power_w[start + c] / vdd * spc_d;
      }
      for (std::size_t i = 0; i < spc; ++i, ++j) {
        for (std::size_t k = 0; k < lg; ++k) {
          const double wv = scale[k] * tpl[i];
          py[k] = std::fma(pdn_alpha, wv - py[k], py[k]);
          const double v = py[k] * r_shunt;
          qy[k] = std::fma(probe_alpha, v - qy[k], qy[k]);
          const double w = qy[k] * gain + noise[k * sc + j];
          dst[j * lg + k] = w;
          mn[k] = std::min(mn[k], w);
          mx[k] = std::max(mx[k], w);
        }
      }
    }
    for (std::size_t k = 0; k < lg; ++k) {
      st[k].pdn_y = py[k];
      st[k].probe_y = qy[k];
      st[k].volts_min = mn[k];
      st[k].volts_max = mx[k];
    }
  }

  // ---- fix_range: per lane, the kernel's auto-range rule ------------
  for (std::size_t k = 0; k < lg; ++k) {
    st[k].scope = config_.scope;
    if (config_.range_policy == RangePolicy::kAutoRange) {
      detail::auto_range(st[k].scope, st[k].volts_min, st[k].volts_max);
    }
    st[k].lsb_v = detail::lsb_volts(st[k].scope);
  }

  // ---- Pass 2: scope noise + quantise + per-cycle average ------------
  const double max_code =
      static_cast<double>((1u << config_.scope.resolution_bits) - 1u);
  for (std::size_t start = 0; start < cycles; start += block_cycles_) {
    const std::size_t bc = std::min(block_cycles_, cycles - start);
    const std::size_t sc = bc * spc;
    for (std::size_t k = 0; k < lg; ++k) {
      st[k].noise.scope.fill_gaussian(
          std::span<double>(noise + k * sc, sc), 0.0, scope_noise);
    }
    const double* src = wcache + start * spc * lg;
#if defined(__AVX2__) && defined(__FMA__)
    if (lg == kLaneWidth) {
      const __m256d lsbv = _mm256_setr_pd(st[0].lsb_v, st[1].lsb_v,
                                          st[2].lsb_v, st[3].lsb_v);
      const __m256d half = _mm256_setr_pd(
          st[0].scope.full_scale_v / 2.0, st[1].scope.full_scale_v / 2.0,
          st[2].scope.full_scale_v / 2.0, st[3].scope.full_scale_v / 2.0);
      const __m256d offv =
          _mm256_setr_pd(st[0].scope.offset_v, st[1].scope.offset_v,
                         st[2].scope.offset_v, st[3].scope.offset_v);
      const __m256d vzero = _mm256_setzero_pd();
      const __m256d nhalf = _mm256_sub_pd(vzero, half);
      const __m256d himax = _mm256_sub_pd(half, lsbv);
      const __m256d vmaxcode = _mm256_set1_pd(max_code);
      const __m256d vhalfcode = _mm256_set1_pd(0.5);
      const double* n0 = noise;
      const double* n1 = noise + sc;
      const double* n2 = noise + 2 * sc;
      const double* n3 = noise + 3 * sc;
      std::size_t j = 0;
      for (std::size_t c = 0; c < bc; ++c) {
        __m256d s = vzero;
        for (std::size_t i = 0; i < spc; ++i, ++j) {
          const __m256d cw = _mm256_loadu_pd(src + j * kLaneWidth);
          const __m256d nz = _mm256_setr_pd(n0[j], n1[j], n2[j], n3[j]);
          const __m256d noisy = _mm256_sub_pd(_mm256_add_pd(cw, nz), offv);
          const __m256d clipped =
              _mm256_min_pd(_mm256_max_pd(noisy, nhalf), himax);
          __m256d code = _mm256_floor_pd(
              _mm256_div_pd(_mm256_add_pd(clipped, half), lsbv));
          code = _mm256_min_pd(_mm256_max_pd(code, vzero), vmaxcode);
          const __m256d recon = _mm256_add_pd(
              _mm256_sub_pd(
                  _mm256_mul_pd(_mm256_add_pd(code, vhalfcode), lsbv),
                  half),
              offv);
          s = _mm256_add_pd(s, recon);
        }
        alignas(32) double ss[4];
        _mm256_store_pd(ss, s);
        for (std::size_t k = 0; k < kLaneWidth; ++k) {
          const double averaged = ss[k] / spc_d;
          const double y = (averaged / gain) / r_shunt * vdd;
          out[k].per_cycle_power_w.push_back(y);
          st[k].sum_power_w += y;
        }
      }
      continue;
    }
#endif
    double lsb[kLaneWidth];
    double half[kLaneWidth];
    double offv[kLaneWidth];
    for (std::size_t k = 0; k < lg; ++k) {
      lsb[k] = st[k].lsb_v;
      half[k] = st[k].scope.full_scale_v / 2.0;
      offv[k] = st[k].scope.offset_v;
    }
    std::size_t j = 0;
    for (std::size_t c = 0; c < bc; ++c) {
      double s[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < spc; ++i, ++j) {
        for (std::size_t k = 0; k < lg; ++k) {
          const double noisy = src[j * lg + k] + noise[k * sc + j] - offv[k];
          const double clipped =
              std::clamp(noisy, -half[k], half[k] - lsb[k]);
          double code = std::floor((clipped + half[k]) / lsb[k]);
          code = std::clamp(code, 0.0, max_code);
          s[k] += (code + 0.5) * lsb[k] - half[k] + offv[k];
        }
      }
      for (std::size_t k = 0; k < lg; ++k) {
        const double averaged = s[k] / spc_d;
        const double y = (averaged / gain) / r_shunt * vdd;
        out[k].per_cycle_power_w.push_back(y);
        st[k].sum_power_w += y;
      }
    }
  }

  for (std::size_t k = 0; k < lg; ++k) {
    out[k].mean_power_w =
        st[k].sum_power_w / static_cast<double>(cycles);
    out[k].lsb_power_w = detail::lsb_power_w(config_, st[k].lsb_v);
  }
}

}  // namespace clockmark::measure
