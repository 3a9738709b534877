#include "partition/fm.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace p3d::partition {
namespace {

// A pass aborts after this many consecutive non-improving moves (classic
// early-exit heuristic).
constexpr int kEarlyExitMoves = 300;

/// Indexed binary max-heap of one side's free vertices, keyed by
/// (gain, stamp). The stamp grows on every Insert and every AddGain, zero
/// deltas included, so among equal gains the most recently inserted or
/// updated vertex is on top: the head of the classic FM bucket list, so the
/// move order matches a bucket implementation's. Unlike a bucket array, its
/// size follows the vertex count, not the gain range (region hypergraphs
/// have ~25 free vertices but gains up to ~1e5).
class GainHeap {
 public:
  /// Sizes the heap for `num_verts` vertices and empties it. Reuses the
  /// storage of earlier calls.
  void Reset(std::int32_t num_verts) {
    key_.resize(static_cast<std::size_t>(num_verts));
    pos_.assign(static_cast<std::size_t>(num_verts), -1);
    heap_.clear();
    stamp_ = 0;
  }

  /// Empties the heap and restarts the stamp.
  void Clear() {
    for (const std::int32_t v : heap_) pos_[static_cast<std::size_t>(v)] = -1;
    heap_.clear();
    stamp_ = 0;
  }

  void Insert(std::int32_t v, std::int64_t gain) {
    assert(pos_[static_cast<std::size_t>(v)] < 0);
    key_[static_cast<std::size_t>(v)] = NextKey(gain);
    heap_.push_back(v);
    SiftUp(static_cast<std::int32_t>(heap_.size()) - 1);
  }

  void Remove(std::int32_t v) {
    const std::int32_t i = pos_[static_cast<std::size_t>(v)];
    assert(i >= 0);
    pos_[static_cast<std::size_t>(v)] = -1;
    const std::int32_t last = heap_.back();
    heap_.pop_back();
    if (last == v) return;
    Place(last, i);
    SiftUp(i);
    SiftDown(pos_[static_cast<std::size_t>(last)]);
  }

  void AddGain(std::int32_t v, std::int64_t delta) {
    const std::size_t vi = static_cast<std::size_t>(v);
    // The fresh stamp makes the key grow unless the gain drops.
    key_[vi] = NextKey(Gain(v) + delta);
    if (delta >= 0) {
      SiftUp(pos_[vi]);
    } else {
      SiftDown(pos_[vi]);
    }
  }

  /// Highest-gain vertex, or -1 if empty; its gain goes to `*gain`.
  std::int32_t Top(std::int64_t* gain) const {
    if (heap_.empty()) return -1;
    *gain = Gain(heap_.front());
    return heap_.front();
  }

 private:
  std::int64_t Gain(std::int32_t v) const {
    return key_[static_cast<std::size_t>(v)] >> 32;
  }

  // Per pass there are at most a few stamps per pin, far below 2^32.
  std::int64_t NextKey(std::int64_t gain) {
    assert(gain >= std::numeric_limits<std::int32_t>::min() &&
           gain <= std::numeric_limits<std::int32_t>::max());
    assert(stamp_ < std::numeric_limits<std::uint32_t>::max());
    return gain * (std::int64_t{1} << 32) + static_cast<std::int64_t>(stamp_++);
  }

  std::int64_t KeyAt(std::int32_t i) const {
    return key_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])];
  }

  void Place(std::int32_t v, std::int32_t i) {
    heap_[static_cast<std::size_t>(i)] = v;
    pos_[static_cast<std::size_t>(v)] = i;
  }

  void SiftUp(std::int32_t i) {
    const std::int32_t v = heap_[static_cast<std::size_t>(i)];
    const std::int64_t k = key_[static_cast<std::size_t>(v)];
    while (i > 0) {
      const std::int32_t parent = (i - 1) / 2;
      if (KeyAt(parent) >= k) break;
      Place(heap_[static_cast<std::size_t>(parent)], i);
      i = parent;
    }
    Place(v, i);
  }

  void SiftDown(std::int32_t i) {
    const auto n = static_cast<std::int32_t>(heap_.size());
    const std::int32_t v = heap_[static_cast<std::size_t>(i)];
    const std::int64_t k = key_[static_cast<std::size_t>(v)];
    while (true) {
      std::int32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && KeyAt(child + 1) > KeyAt(child)) ++child;
      if (KeyAt(child) <= k) break;
      Place(heap_[static_cast<std::size_t>(child)], i);
      i = child;
    }
    Place(v, i);
  }

  std::vector<std::int64_t> key_;   // (gain << 32) | stamp, per vertex
  std::vector<std::int32_t> pos_;   // heap slot per vertex, -1 if absent
  std::vector<std::int32_t> heap_;  // vertex per heap slot
  std::uint32_t stamp_ = 0;
};

/// FM workspace, one per thread: Reset() sizes it for each RefineFm call
/// without giving memory back, and Clear() empties it for each pass.
struct Workspace {
  void Reset(std::int32_t num_verts, std::int32_t num_nets) {
    locked.resize(static_cast<std::size_t>(num_verts));
    cnt0.resize(static_cast<std::size_t>(num_nets));
    cnt1.resize(static_cast<std::size_t>(num_nets));
    heap0.Reset(num_verts);
    heap1.Reset(num_verts);
    order.resize(static_cast<std::size_t>(num_verts));
    for (std::int32_t v = 0; v < num_verts; ++v) {
      order[static_cast<std::size_t>(v)] = v;
    }
  }

  void Clear() {
    std::fill(locked.begin(), locked.end(), 0);
    std::fill(cnt0.begin(), cnt0.end(), 0);
    std::fill(cnt1.begin(), cnt1.end(), 0);
    heap0.Clear();
    heap1.Clear();
    moves.clear();
  }

  GainHeap& Heap(int s) { return s == 0 ? heap0 : heap1; }

  std::vector<std::uint8_t> locked;
  std::vector<std::int32_t> cnt0;  // free+fixed vertices per net on side 0
  std::vector<std::int32_t> cnt1;
  GainHeap heap0;  // unlocked free vertices currently on side 0
  GainHeap heap1;
  std::vector<std::int32_t> moves;  // moved vertices in order, for rollback
  std::vector<std::int32_t> order;  // visit order, reshuffled every pass
};

}  // namespace

FmStats RefineFm(const Hypergraph& hg, std::vector<std::int8_t>* side_ptr,
                 const FmOptions& options, util::Rng& rng) {
  auto& side = *side_ptr;
  const std::int32_t nv = hg.NumVerts();
  FmStats stats;
  stats.initial_cut_q = hg.CutCostQ(side);
  stats.final_cut_q = stats.initial_cut_q;
  if (nv == 0) {
    stats.feasible = true;
    return stats;
  }

  std::int64_t pw0 = hg.PartWeightQ(side, 0);
  const std::int64_t min0 = options.min_part0_weight_q;
  const std::int64_t max0 = options.max_part0_weight_q;
  auto feasible = [&](std::int64_t w0) { return w0 >= min0 && w0 <= max0; };
  // Distance from feasibility, used to repair unbalanced partitions.
  auto infeas = [&](std::int64_t w0) -> std::int64_t {
    if (w0 < min0) return min0 - w0;
    if (w0 > max0) return w0 - max0;
    return 0;
  };

  // The global placer refines tens of thousands of small regions per run;
  // reusing one workspace per thread saves their allocations.
  thread_local Workspace st;
  st.Reset(nv, hg.NumNets());

  std::int64_t cur_cut = stats.initial_cut_q;
  stats.stop = FmStop::kCap;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    stats.passes = pass + 1;

    // --- initialize pass state -------------------------------------------
    st.Clear();
    for (std::int32_t n = 0; n < hg.NumNets(); ++n) {
      for (const std::int32_t v : hg.NetVerts(n)) {
        if (side[static_cast<std::size_t>(v)] == 0) {
          st.cnt0[static_cast<std::size_t>(n)] += 1;
        } else {
          st.cnt1[static_cast<std::size_t>(n)] += 1;
        }
      }
    }

    // Visit order randomization decorrelates repeated runs.
    rng.Shuffle(st.order);
    for (const std::int32_t v : st.order) {
      if (hg.Fixed(v) != FixedSide::kFree) continue;
      std::int64_t g = 0;
      const int from = side[static_cast<std::size_t>(v)];
      for (const std::int32_t n : hg.VertNets(v)) {
        const std::int32_t cf = from == 0 ? st.cnt0[static_cast<std::size_t>(n)]
                                          : st.cnt1[static_cast<std::size_t>(n)];
        const std::int32_t ct = from == 0 ? st.cnt1[static_cast<std::size_t>(n)]
                                          : st.cnt0[static_cast<std::size_t>(n)];
        if (cf == 1) g += hg.NetWeightQ(n);
        if (ct == 0) g -= hg.NetWeightQ(n);
      }
      st.Heap(from).Insert(v, g);
    }

    // --- move loop -----------------------------------------------------------
    std::int64_t best_cut = cur_cut;
    std::int64_t best_infeas = infeas(pw0);
    std::size_t best_prefix = 0;
    int non_improving = 0;

    while (true) {
      std::int64_t g0 = std::numeric_limits<std::int64_t>::min();
      std::int64_t g1 = std::numeric_limits<std::int64_t>::min();
      const std::int32_t v0 = st.heap0.Top(&g0);
      const std::int32_t v1 = st.heap1.Top(&g1);
      if (v0 < 0 && v1 < 0) break;

      // A move is admissible if the balance after it is feasible, or strictly
      // less infeasible than now (repair mode).
      const std::int64_t cur_inf = infeas(pw0);
      auto admissible = [&](std::int32_t v, int from) {
        const std::int64_t wv = hg.VertWeightQ(v);
        const std::int64_t w0_after = from == 0 ? pw0 - wv : pw0 + wv;
        return feasible(w0_after) || infeas(w0_after) < cur_inf;
      };

      int from = -1;
      const bool ok0 = v0 >= 0 && admissible(v0, 0);
      const bool ok1 = v1 >= 0 && admissible(v1, 1);
      if (ok0 && ok1) {
        if (g0 != g1) {
          from = g0 > g1 ? 0 : 1;
        } else {
          // Tie: move from the heavier side to improve balance headroom.
          from = pw0 * 2 >= hg.TotalVertWeightQ() ? 0 : 1;
        }
      } else if (ok0) {
        from = 0;
      } else if (ok1) {
        from = 1;
      } else {
        break;  // no admissible move
      }
      const std::int32_t v = from == 0 ? v0 : v1;
      const std::int64_t g = from == 0 ? g0 : g1;
      const int to = 1 - from;

      // Execute the move.
      st.Heap(from).Remove(v);
      st.locked[static_cast<std::size_t>(v)] = 1;
      const std::int64_t wv = hg.VertWeightQ(v);
      pw0 += from == 0 ? -wv : wv;
      cur_cut -= g;
      side[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(to);
      st.moves.push_back(v);

      // Standard FM incremental gain updates.
      for (const std::int32_t n : hg.VertNets(v)) {
        auto& cf = from == 0 ? st.cnt0[static_cast<std::size_t>(n)]
                             : st.cnt1[static_cast<std::size_t>(n)];
        auto& ct = from == 0 ? st.cnt1[static_cast<std::size_t>(n)]
                             : st.cnt0[static_cast<std::size_t>(n)];
        const std::int32_t w = hg.NetWeightQ(n);
        // Every bump counts as an update, even with w == 0: it makes u the
        // most recent vertex of its gain, as re-linking it into the head of
        // its bucket would.
        auto bump = [&](std::int32_t u, std::int64_t delta) {
          if (st.locked[static_cast<std::size_t>(u)]) return;
          if (hg.Fixed(u) != FixedSide::kFree) return;
          st.Heap(side[static_cast<std::size_t>(u)]).AddGain(u, delta);
        };
        // Before-move bookkeeping (counts still reflect pre-move state).
        if (ct == 0) {
          for (const std::int32_t u : hg.NetVerts(n)) {
            if (u != v) bump(u, w);
          }
        } else if (ct == 1) {
          for (const std::int32_t u : hg.NetVerts(n)) {
            if (u != v && side[static_cast<std::size_t>(u)] == to) bump(u, -w);
          }
        }
        cf -= 1;
        ct += 1;
        if (cf == 0) {
          for (const std::int32_t u : hg.NetVerts(n)) {
            if (u != v) bump(u, -w);
          }
        } else if (cf == 1) {
          for (const std::int32_t u : hg.NetVerts(n)) {
            if (u != v && side[static_cast<std::size_t>(u)] == from) bump(u, w);
          }
        }
      }

      // Track the best prefix: prefer feasibility, then cut.
      const std::int64_t inf_now = infeas(pw0);
      const bool better = (inf_now < best_infeas) ||
                          (inf_now == best_infeas && cur_cut < best_cut);
      if (better) {
        best_cut = cur_cut;
        best_infeas = inf_now;
        best_prefix = st.moves.size();
        non_improving = 0;
      } else {
        ++non_improving;
        if (non_improving >= kEarlyExitMoves) break;
      }
    }

    // --- roll back to the best prefix --------------------------------------
    for (std::size_t i = st.moves.size(); i > best_prefix; --i) {
      const std::int32_t v = st.moves[i - 1];
      const int cur = side[static_cast<std::size_t>(v)];
      // The vertex leaves side `cur` and returns to side `1 - cur`.
      side[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(1 - cur);
      pw0 += cur == 0 ? -hg.VertWeightQ(v) : hg.VertWeightQ(v);
    }
    cur_cut = best_cut;

    if (best_prefix == 0) {  // pass made no improvement
      stats.stop = FmStop::kConverged;
      break;
    }
  }

  stats.final_cut_q = cur_cut;
  stats.feasible = feasible(pw0);
  return stats;
}

}  // namespace partition
