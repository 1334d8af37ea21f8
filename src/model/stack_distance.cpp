#include "model/stack_distance.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tc::model {

StackDistance::StackDistance(std::vector<double> bucket_bytes)
    : thresholds_(std::move(bucket_bytes)),
      markers_(thresholds_.size()),
      histogram_(thresholds_.size() + 2, 0) {
  TC_CHECK(!thresholds_.empty(), "StackDistance needs at least one threshold");
  for (std::size_t b = 0; b < thresholds_.size(); ++b) {
    TC_CHECK(thresholds_[b] > 0.0, "StackDistance thresholds must be positive");
    TC_CHECK(b == 0 || thresholds_[b] > thresholds_[b - 1],
             "StackDistance thresholds must be ascending");
    markers_[b].pos = stack_.end();
  }
}

int StackDistance::access(std::uint64_t block_id, double bytes) {
  const int num_markers = static_cast<int>(markers_.size());
  ++accesses_;
  int region = kCold;
  const auto idx = index_.find(block_id);
  if (idx == index_.end()) {
    ++histogram_.back();
    stack_.push_front(Block{block_id, bytes, 0});
    index_.emplace(block_id, stack_.begin());
    // The new front block sits strictly above every marker.
    for (auto& m : markers_) m.bytes_above += bytes;
  } else {
    const Iter it = idx->second;
    region = it->region;
    ++histogram_[static_cast<std::size_t>(region)];
    // Detach: markers strictly below the block lose its bytes from their
    // prefix; markers pointing *at* it step down one so their depth (bytes
    // strictly above) is unchanged.
    for (int b = 0; b < num_markers; ++b) {
      if (markers_[static_cast<std::size_t>(b)].pos == it) {
        markers_[static_cast<std::size_t>(b)].pos = std::next(it);
      } else if (b >= region) {
        markers_[static_cast<std::size_t>(b)].bytes_above -= it->bytes;
      }
    }
    stack_.splice(stack_.begin(), stack_, it);
    it->region = 0;
    it->bytes = bytes;
    for (auto& m : markers_) m.bytes_above += bytes;
  }
  // Re-pin each marker at its byte depth: step toward the front while the
  // block just above it still leaves >= threshold bytes in the prefix. A
  // block the marker steps over is now at-or-below that marker, so its
  // region grows to include it.
  for (int b = 0; b < num_markers; ++b) {
    auto& m = markers_[static_cast<std::size_t>(b)];
    while (m.pos != stack_.begin()) {
      const Iter prev = std::prev(m.pos);
      if (m.bytes_above - prev->bytes < thresholds_[static_cast<std::size_t>(b)]) break;
      m.pos = prev;
      m.bytes_above -= prev->bytes;
      prev->region = std::max(prev->region, b + 1);
    }
  }
  return region;
}

SampledL2 sample_l2_reuse(const L2ReuseInput& in) {
  TC_CHECK(in.wave_ctas > 0 && in.grid_x > 0 && in.grid_y > 0, "bad reuse input");
  const std::uint64_t total = in.grid_x * in.grid_y;
  const std::uint64_t wave = std::min<std::uint64_t>(static_cast<std::uint64_t>(in.wave_ctas),
                                                     total);

  // Sample a prefix of whole waves: the dispatch pattern is periodic, so a
  // handful of waves reaches steady state without replaying huge grids.
  const std::uint64_t cap_ctas = std::max<std::uint64_t>(16 * wave, 2048);
  std::uint64_t sampled = std::min(total, cap_ctas);
  sampled = std::max<std::uint64_t>(wave, sampled - sampled % wave);
  sampled = std::min(sampled, total);

  // The sampled prefix of the dispatch walk TimedDevice runs (kSwizzled is
  // realized as its row-major dispatch there, and so here).
  sim::CtaOrderMap map(in.order, static_cast<std::uint32_t>(in.grid_x),
                       static_cast<std::uint32_t>(in.grid_y), in.supertile_width);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seq;
  seq.reserve(static_cast<std::size_t>(sampled));
  for (std::uint64_t i = 0; i < sampled; ++i) seq.push_back(map.next());

  // One LRU stack the size of L2. Sub-capacity thresholds resolve the
  // histogram for diagnostics; the capacity threshold is the hit boundary.
  const double cap = static_cast<double>(in.l2_capacity);
  StackDistance stack({cap / 8, cap / 4, cap / 2, cap, 2 * cap});
  const int cap_class = 4;  // distance classes 0..3 are < cap, i.e. hits

  // Iterations to replay per wave. Wave k-sweeps run to completion before
  // the next wave launches (lockstep dispatch), so when the replay truncates
  // a longer k extent, blocks are tagged per wave: the truncated-away
  // iterations would have pushed any cross-wave reuse past capacity.
  const std::uint64_t k_iters =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(in.k_iters)));
  const std::uint64_t iters_sim = std::min<std::uint64_t>(k_iters, 12);
  const bool tag_waves = k_iters > iters_sim;

  const double a_bytes = static_cast<double>(in.bm) * in.bk * 2.0;
  const double b_bytes = static_cast<double>(in.bn) * in.bk * 2.0;

  // Block ids: [wave tag | iter | array bit | row-or-column index].
  const auto a_id = [&](std::uint64_t w, std::uint64_t iter, std::uint64_t y) {
    return (tag_waves ? w : 0) << 48 | iter << 34 | std::uint64_t{1} << 33 | y;
  };
  const auto b_id = [&](std::uint64_t w, std::uint64_t iter, std::uint64_t x) {
    return (tag_waves ? w : 0) << 48 | iter << 34 | x;
  };

  SampledL2 out;
  double a_hit = 0, a_total = 0, b_hit = 0, b_total = 0;
  for (std::uint64_t w0 = 0; w0 < sampled; w0 += wave) {
    const std::uint64_t w1 = std::min(w0 + wave, sampled);
    const std::uint64_t wave_idx = w0 / wave;
    for (std::uint64_t iter = 0; iter < iters_sim; ++iter) {
      for (std::uint64_t i = w0; i < w1; ++i) {
        const auto [x, y] = seq[static_cast<std::size_t>(i)];
        const int ra = stack.access(a_id(wave_idx, iter, y), a_bytes);
        a_total += a_bytes;
        if (ra != StackDistance::kCold && ra < cap_class) a_hit += a_bytes;
        const int rb = stack.access(b_id(wave_idx, iter, x), b_bytes);
        b_total += b_bytes;
        if (rb != StackDistance::kCold && rb < cap_class) b_hit += b_bytes;
      }
    }
  }

  out.a_hit_rate = a_total > 0 ? a_hit / a_total : 0.0;
  out.b_hit_rate = b_total > 0 ? b_hit / b_total : 0.0;
  const double tot = a_total + b_total;
  out.ldg_l2_hit_rate = tot > 0 ? (a_hit + b_hit) / tot : 0.0;
  out.accesses = stack.accesses();
  out.cold_misses = stack.histogram().back();
  out.histogram = stack.histogram();

  // First-wave patch geometry, for diagnostics and report lines.
  std::vector<bool> row_seen(in.grid_y, false), col_seen(in.grid_x, false);
  for (std::uint64_t i = 0; i < wave; ++i) {
    const auto [x, y] = seq[static_cast<std::size_t>(i)];
    if (!row_seen[y]) {
      row_seen[y] = true;
      ++out.wave_rows;
    }
    if (!col_seen[x]) {
      col_seen[x] = true;
      ++out.wave_cols;
    }
  }
  return out;
}

L2Reuse l2_reuse_predict(const L2ReuseInput& in) {
  if (in.order == LaunchOrder::kSwizzled) return l2_reuse(in);
  const SampledL2 s = sample_l2_reuse(in);
  const double total_ctas = static_cast<double>(in.grid_x) * static_cast<double>(in.grid_y);
  const double wave = std::min(static_cast<double>(in.wave_ctas), total_ctas);
  L2Reuse out;
  out.wave_rows = s.wave_rows;
  out.wave_cols = s.wave_cols;
  // Fraction of *re*-accessed bytes that hit — the trace-derived analogue of
  // the closed form's calibrated sharing efficiency.
  const double reaccess =
      1.0 - static_cast<double>(s.cold_misses) / static_cast<double>(std::max<std::uint64_t>(
                                                     1, s.accesses));
  out.effective_sharing = reaccess > 0 ? std::min(1.0, s.ldg_l2_hit_rate / reaccess) : 0.0;
  out.total_bytes_per_wave_iter = wave * (in.bm + in.bn) * in.bk * 2.0;
  out.ldg_l2_hit_rate = s.ldg_l2_hit_rate;
  out.dram_bytes_per_wave_iter = (1.0 - s.ldg_l2_hit_rate) * out.total_bytes_per_wave_iter;
  return out;
}

}  // namespace tc::model
