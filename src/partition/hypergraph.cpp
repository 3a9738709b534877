#include "partition/hypergraph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

namespace p3d::partition {
namespace {

// Quantization caps. FM keys a free vertex's gain, at most the sum of its
// incident net weights, in 32 bits; capping each net weight keeps that sum
// in range for any vertex on fewer than ~1M nets (Finalize shrinks the rest).
constexpr std::int32_t kMaxNetWeightQ = 4096;
constexpr std::int64_t kMaxGainQ = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kMaxVertWeightQ = 1'000'000'000LL;

}  // namespace

std::int32_t Hypergraph::AddVertex(double weight, FixedSide fixed) {
  assert(!finalized_);
  vert_weight_.push_back(weight);
  fixed_.push_back(fixed);
  return NumVerts() - 1;
}

std::int32_t Hypergraph::AddNet(double weight,
                                std::span<const std::int32_t> verts) {
  assert(!finalized_);
  net_weight_.push_back(weight);
  // Deduplicate pins (a net may touch a cell through several pins) in
  // place, at the tail of the pin array.
  const auto first = static_cast<std::ptrdiff_t>(net_verts_.size());
  net_verts_.insert(net_verts_.end(), verts.begin(), verts.end());
  std::sort(net_verts_.begin() + first, net_verts_.end());
  net_verts_.erase(std::unique(net_verts_.begin() + first, net_verts_.end()),
                   net_verts_.end());
  net_ptr_.push_back(static_cast<std::int32_t>(net_verts_.size()));
  return NumNets() - 1;
}

void Hypergraph::Finalize() {
  if (finalized_) return;

  // --- vertex -> nets CSR -------------------------------------------------
  vert_ptr_.assign(vert_weight_.size() + 1, 0);
  for (const std::int32_t v : net_verts_) {
    assert(v >= 0 && v < NumVerts());
    vert_ptr_[static_cast<std::size_t>(v) + 1] += 1;
  }
  for (std::size_t i = 0; i < vert_weight_.size(); ++i) {
    vert_ptr_[i + 1] += vert_ptr_[i];
  }
  vert_nets_.assign(net_verts_.size(), 0);
  std::vector<std::int32_t> cursor(vert_ptr_.begin(), vert_ptr_.end() - 1);
  for (std::int32_t n = 0; n < NumNets(); ++n) {
    for (std::int32_t k = net_ptr_[static_cast<std::size_t>(n)];
         k < net_ptr_[static_cast<std::size_t>(n) + 1]; ++k) {
      const std::int32_t v = net_verts_[static_cast<std::size_t>(k)];
      vert_nets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = n;
    }
  }

  // --- weight quantization --------------------------------------------------
  // Net weights: the *largest* weight maps to kMaxNetWeightQ/2, preserving
  // the relative magnitude of every weight below it. Weights smaller than
  // the resolution quantize to 0 and simply stop influencing cuts (scaling
  // off the minimum instead would saturate everything above it at the cap
  // and grossly inflate tiny weights, e.g. thermal-resistance-reduction
  // nets vs regular nets).
  double max_net_w = 0.0;
  for (const double w : net_weight_) max_net_w = std::max(max_net_w, w);
  net_weight_q_.resize(net_weight_.size());
  if (max_net_w <= 0.0) {
    std::fill(net_weight_q_.begin(), net_weight_q_.end(), 0);
  } else {
    const double scale = (kMaxNetWeightQ / 2.0) / max_net_w;
    for (std::size_t i = 0; i < net_weight_.size(); ++i) {
      const double q = net_weight_[i] * scale;
      net_weight_q_[i] = static_cast<std::int32_t>(
          std::clamp(std::lround(q), 0L, static_cast<long>(kMaxNetWeightQ)));
    }
  }
  // The total net weight bounds every vertex's gain, so the per-vertex check
  // runs only on hypergraphs with over a million nets.
  std::int64_t total_net_q = 0;
  for (const std::int32_t q : net_weight_q_) total_net_q += q;
  if (total_net_q > kMaxGainQ) {
    std::int64_t max_gain_q = 0;
    for (std::int32_t v = 0; v < NumVerts(); ++v) {
      if (Fixed(v) != FixedSide::kFree) continue;  // FM never moves these
      std::int64_t sum = 0;
      for (const std::int32_t n : VertNets(v)) {
        sum += net_weight_q_[static_cast<std::size_t>(n)];
      }
      max_gain_q = std::max(max_gain_q, sum);
    }
    if (max_gain_q > kMaxGainQ) {
      // Only a vertex on ~1M max-weight nets gets here. Scaling to half the
      // bound leaves ample headroom for floating-point rounding.
      const double shrink =
          0.5 * static_cast<double>(kMaxGainQ) / static_cast<double>(max_gain_q);
      for (std::int32_t& q : net_weight_q_) {
        q = static_cast<std::int32_t>(std::floor(q * shrink));
      }
    }
  }

  // Vertex weights: resolution = min positive weight / 16. Zero-weight
  // vertices (fixed terminals) stay zero so they never affect balance.
  double min_vert_w = 0.0;
  for (const double w : vert_weight_) {
    if (w > 0.0 && (min_vert_w == 0.0 || w < min_vert_w)) min_vert_w = w;
  }
  vert_weight_q_.resize(vert_weight_.size());
  total_vert_weight_q_ = 0;
  if (min_vert_w == 0.0) {
    std::fill(vert_weight_q_.begin(), vert_weight_q_.end(), 0);
  } else {
    const double scale = 16.0 / min_vert_w;
    for (std::size_t i = 0; i < vert_weight_.size(); ++i) {
      const double q = vert_weight_[i] * scale;
      vert_weight_q_[i] = std::clamp(
          static_cast<std::int64_t>(std::llround(q)), std::int64_t{0},
          kMaxVertWeightQ);
      if (vert_weight_[i] > 0.0 && vert_weight_q_[i] == 0) vert_weight_q_[i] = 1;
      total_vert_weight_q_ += vert_weight_q_[i];
    }
  }

  finalized_ = true;
}

std::int64_t Hypergraph::PartWeightQ(const std::vector<std::int8_t>& side,
                                     int part) const {
  std::int64_t w = 0;
  for (std::int32_t v = 0; v < NumVerts(); ++v) {
    if (side[static_cast<std::size_t>(v)] == part) w += VertWeightQ(v);
  }
  return w;
}

double Hypergraph::CutCost(const std::vector<std::int8_t>& side) const {
  double cut = 0.0;
  for (std::int32_t n = 0; n < NumNets(); ++n) {
    const auto verts = NetVerts(n);
    if (verts.empty()) continue;
    const std::int8_t first = side[static_cast<std::size_t>(verts.front())];
    for (const std::int32_t v : verts) {
      if (side[static_cast<std::size_t>(v)] != first) {
        cut += NetWeight(n);
        break;
      }
    }
  }
  return cut;
}

std::int64_t Hypergraph::CutCostQ(const std::vector<std::int8_t>& side) const {
  std::int64_t cut = 0;
  for (std::int32_t n = 0; n < NumNets(); ++n) {
    const auto verts = NetVerts(n);
    if (verts.empty()) continue;
    const std::int8_t first = side[static_cast<std::size_t>(verts.front())];
    for (const std::int32_t v : verts) {
      if (side[static_cast<std::size_t>(v)] != first) {
        cut += NetWeightQ(n);
        break;
      }
    }
  }
  return cut;
}

}  // namespace p3d::partition
