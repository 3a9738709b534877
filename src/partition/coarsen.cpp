#include "partition/coarsen.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

namespace p3d::partition {
namespace {

/// Hash of a sorted vertex list, used to merge parallel coarse nets.
std::uint64_t PinHash(std::span<const std::int32_t> pins) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ pins.size();
  for (const std::int32_t x : pins) {
    h ^= static_cast<std::uint64_t>(x) + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

/// The distinct coarse nets of one level, in first-seen order: their pins in
/// one flat array and an open-addressing (linear probing) table of net ids
/// keyed by pin list, so merging a parallel net allocates nothing.
class NetMerger {
 public:
  explicit NetMerger(std::int32_t max_nets) {
    std::size_t slots = 16;
    while (slots < 2 * static_cast<std::size_t>(max_nets)) slots *= 2;
    table_.assign(slots, -1);
  }

  /// Adds `weight` to the net with these sorted, distinct pins, creating it
  /// if it is new.
  void Add(std::span<const std::int32_t> pins, double weight) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = PinHash(pins) & mask;; i = (i + 1) & mask) {
      std::int32_t& slot = table_[i];
      if (slot < 0) {
        slot = static_cast<std::int32_t>(weight_.size());
        weight_.push_back(weight);
        pins_.insert(pins_.end(), pins.begin(), pins.end());
        ptr_.push_back(static_cast<std::int32_t>(pins_.size()));
        return;
      }
      if (std::ranges::equal(Pins(slot), pins)) {
        weight_[static_cast<std::size_t>(slot)] += weight;
        return;
      }
    }
  }

  std::int32_t NumNets() const { return static_cast<std::int32_t>(weight_.size()); }
  double Weight(std::int32_t n) const { return weight_[static_cast<std::size_t>(n)]; }
  std::span<const std::int32_t> Pins(std::int32_t n) const {
    const auto b = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(n)]);
    const auto e = static_cast<std::size_t>(ptr_[static_cast<std::size_t>(n) + 1]);
    return {pins_.data() + b, e - b};
  }

 private:
  std::vector<std::int32_t> table_;  // net id per slot, -1 if empty
  std::vector<double> weight_;
  std::vector<std::int32_t> ptr_{0};
  std::vector<std::int32_t> pins_;
};

}  // namespace

CoarseLevel CoarsenOnce(const Hypergraph& fine, std::int64_t max_vert_weight_q,
                        util::Rng& rng) {
  const std::int32_t nv = fine.NumVerts();
  std::vector<std::int32_t> match(static_cast<std::size_t>(nv), -1);

  std::vector<std::int32_t> order(static_cast<std::size_t>(nv));
  for (std::int32_t v = 0; v < nv; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.Shuffle(order);

  // Scratch for connectivity scores of candidate mates.
  std::vector<double> score(static_cast<std::size_t>(nv), 0.0);
  std::vector<std::int32_t> touched;

  for (const std::int32_t v : order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    if (fine.Fixed(v) != FixedSide::kFree) {
      match[static_cast<std::size_t>(v)] = v;  // fixed: singleton
      continue;
    }
    touched.clear();
    for (const std::int32_t n : fine.VertNets(v)) {
      const auto verts = fine.NetVerts(n);
      if (verts.size() < 2 || verts.size() > 64) continue;  // skip huge nets
      const double w =
          static_cast<double>(fine.NetWeightQ(n)) / (static_cast<double>(verts.size()) - 1.0);
      for (const std::int32_t u : verts) {
        if (u == v) continue;
        if (match[static_cast<std::size_t>(u)] >= 0) continue;
        if (fine.Fixed(u) != FixedSide::kFree) continue;
        if (fine.VertWeightQ(v) + fine.VertWeightQ(u) > max_vert_weight_q) continue;
        if (score[static_cast<std::size_t>(u)] == 0.0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += w;
      }
    }
    std::int32_t best = -1;
    double best_score = 0.0;
    for (const std::int32_t u : touched) {
      if (score[static_cast<std::size_t>(u)] > best_score) {
        best_score = score[static_cast<std::size_t>(u)];
        best = u;
      }
      score[static_cast<std::size_t>(u)] = 0.0;
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // singleton
    }
  }

  // Assign coarse ids (the lower-id endpoint of each match owns the pair).
  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(nv), -1);
  std::int32_t nc = 0;
  for (std::int32_t v = 0; v < nv; ++v) {
    const std::int32_t m = match[static_cast<std::size_t>(v)];
    if (m >= v) {  // owner
      level.fine_to_coarse[static_cast<std::size_t>(v)] = nc;
      if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = nc;
      ++nc;
    }
  }

  // Coarse vertices.
  std::vector<double> cw(static_cast<std::size_t>(nc), 0.0);
  std::vector<FixedSide> cfix(static_cast<std::size_t>(nc), FixedSide::kFree);
  for (std::int32_t v = 0; v < nv; ++v) {
    const std::int32_t c = level.fine_to_coarse[static_cast<std::size_t>(v)];
    cw[static_cast<std::size_t>(c)] += fine.VertWeight(v);
    if (fine.Fixed(v) != FixedSide::kFree) {
      cfix[static_cast<std::size_t>(c)] = fine.Fixed(v);
    }
  }
  for (std::int32_t c = 0; c < nc; ++c) {
    level.hg.AddVertex(cw[static_cast<std::size_t>(c)], cfix[static_cast<std::size_t>(c)]);
  }

  // Coarse nets: remap, drop degenerate, merge parallel.
  NetMerger merged(fine.NumNets());
  std::vector<std::int32_t> mapped;
  for (std::int32_t n = 0; n < fine.NumNets(); ++n) {
    mapped.clear();
    for (const std::int32_t u : fine.NetVerts(n)) {
      mapped.push_back(level.fine_to_coarse[static_cast<std::size_t>(u)]);
    }
    std::sort(mapped.begin(), mapped.end());
    mapped.erase(std::unique(mapped.begin(), mapped.end()), mapped.end());
    if (mapped.size() < 2) continue;  // swallowed by a cluster
    merged.Add(mapped, fine.NetWeight(n));
  }
  for (std::int32_t n = 0; n < merged.NumNets(); ++n) {
    level.hg.AddNet(merged.Weight(n), merged.Pins(n));
  }
  level.hg.Finalize();
  return level;
}

}  // namespace p3d::partition
