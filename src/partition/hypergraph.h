// Hypergraph representation for min-cut bipartitioning.
//
// This is the substrate that replaces hMetis [15] in the paper's flow. The
// placer builds one hypergraph per bisected region: vertices are the region's
// cells (plus zero-weight fixed terminals from terminal propagation), nets
// are the induced hypernets with direction-dependent weights.
//
// Weights are quantized to integers on construction so FM gains are exact
// integers (as in the original FM and hMetis implementations). The heaviest
// net maps to 2048 and the others scale with it, down to 0 for nets below
// that resolution; the cap keeps every free vertex's gain within the 32 bits
// FM keys it in. Partitioning quality is insensitive to this rounding.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace p3d::partition {

/// Side assignment of a vertex: free, or fixed to a part.
enum class FixedSide : std::int8_t {
  kFree = -1,
  kPart0 = 0,
  kPart1 = 1,
};

class Hypergraph {
 public:
  Hypergraph() = default;

  // ----- construction ----------------------------------------------------

  /// Adds a vertex with a real-valued weight (cell area). Returns its id.
  std::int32_t AddVertex(double weight, FixedSide fixed = FixedSide::kFree);

  /// Adds a net over the given vertex ids with a real-valued weight.
  /// Duplicate pins within a net are removed; single-pin nets are kept but
  /// never contribute to the cut.
  std::int32_t AddNet(double weight, std::span<const std::int32_t> verts);

  /// Quantizes weights and builds the vertex->net adjacency. Must be called
  /// before any query below.
  void Finalize();

  // ----- queries --------------------------------------------------------

  std::int32_t NumVerts() const { return static_cast<std::int32_t>(vert_weight_.size()); }
  std::int32_t NumNets() const { return static_cast<std::int32_t>(net_weight_.size()); }

  std::span<const std::int32_t> NetVerts(std::int32_t n) const {
    return {net_verts_.data() + net_ptr_[static_cast<std::size_t>(n)],
            static_cast<std::size_t>(net_ptr_[static_cast<std::size_t>(n) + 1] -
                                     net_ptr_[static_cast<std::size_t>(n)])};
  }
  std::span<const std::int32_t> VertNets(std::int32_t v) const {
    return {vert_nets_.data() + vert_ptr_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(vert_ptr_[static_cast<std::size_t>(v) + 1] -
                                     vert_ptr_[static_cast<std::size_t>(v)])};
  }

  /// Quantized (integer) weights used by all partitioning math.
  std::int64_t VertWeightQ(std::int32_t v) const { return vert_weight_q_[static_cast<std::size_t>(v)]; }
  std::int32_t NetWeightQ(std::int32_t n) const { return net_weight_q_[static_cast<std::size_t>(n)]; }

  /// Original real weights (for reporting).
  double VertWeight(std::int32_t v) const { return vert_weight_[static_cast<std::size_t>(v)]; }
  double NetWeight(std::int32_t n) const { return net_weight_[static_cast<std::size_t>(n)]; }

  FixedSide Fixed(std::int32_t v) const { return fixed_[static_cast<std::size_t>(v)]; }

  std::int64_t TotalVertWeightQ() const { return total_vert_weight_q_; }

  /// Sum over a partition assignment of the quantized weights on part 1.
  /// `side` holds 0/1 per vertex.
  std::int64_t PartWeightQ(const std::vector<std::int8_t>& side, int part) const;

  /// Weighted cut of a partition (sum of real net weights of cut nets).
  double CutCost(const std::vector<std::int8_t>& side) const;
  /// Quantized cut used internally by FM.
  std::int64_t CutCostQ(const std::vector<std::int8_t>& side) const;

  bool finalized() const { return finalized_; }

 private:
  std::vector<double> vert_weight_;
  std::vector<FixedSide> fixed_;
  std::vector<double> net_weight_;
  std::vector<std::int32_t> net_ptr_{0};
  std::vector<std::int32_t> net_verts_;

  // Built by Finalize():
  std::vector<std::int32_t> vert_ptr_;
  std::vector<std::int32_t> vert_nets_;
  std::vector<std::int64_t> vert_weight_q_;
  std::vector<std::int32_t> net_weight_q_;
  std::int64_t total_vert_weight_q_ = 0;
  bool finalized_ = false;
};

}  // namespace p3d::partition
