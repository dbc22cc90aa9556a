#include "engines/bbk.h"

#include <algorithm>
#include <numeric>

#include "util/bitset.h"

namespace mbe {

BbkEnumerator::BbkEnumerator(const BipartiteGraph& graph,
                             const BbkOptions& options)
    : graph_(graph),
      options_(options),
      policy_{.bitmap_density = options.bitmap_density},
      roots_(graph) {}

void BbkEnumerator::EnumerateAll(ResultSink* sink) {
  for (size_t v = 0; v < graph_.num_right(); ++v) {
    if (Stopped(sink)) return;
    EnumerateShard(static_cast<VertexId>(v), 0, 1, sink);
  }
}

void BbkEnumerator::EnumerateSubtree(VertexId v, ResultSink* sink) {
  EnumerateShard(v, 0, 1, sink);
}

uint32_t BbkEnumerator::SplitHint(VertexId v, uint32_t max_shards,
                                  uint64_t min_work) {
  return roots_.SplitHint(v, max_shards, min_work);
}

void BbkEnumerator::RenumberRoot() {
  const SubtreeRoot& root = roots_.root();
  universe_ = root.l0.size();
  if (local_of_.size() < graph_.num_left()) {
    local_of_.resize(graph_.num_left());
  }
  // Local ids are positions in the sorted L0, so renumbering preserves
  // order: every renumbered local list below stays sorted.
  for (size_t i = 0; i < universe_; ++i) {
    local_of_[root.l0[i]] = static_cast<VertexId>(i);
  }
  entry_w_.clear();
  entry_loc_off_.clear();
  entry_loc_len_.clear();
  locs_.clear();
  locs_.reserve(root.locs.size());
  order_keys_.clear();
  for (const RootEntry& entry : root.entries) {
    const uint32_t idx = static_cast<uint32_t>(entry_w_.size());
    entry_w_.push_back(entry.w);
    entry_loc_off_.push_back(static_cast<uint32_t>(locs_.size()));
    entry_loc_len_.push_back(entry.loc_len);
    for (VertexId g : root.LocOf(entry)) locs_.push_back(local_of_[g]);
    if (entry.forbidden) {
      // Root Q ordered by descending local size: a dominator must cover
      // all of L', so big-neighborhood witnesses are the likely hits and
      // probing them first shortens the (frequent) non-maximal scans.
      order_keys_.push_back(uint64_t{entry.loc_len ^ 0xffffffffu} << 32 |
                            idx | 0x8000000000000000ull);
    } else {
      // Degree-ordered pruning: ascending root-local degree, entry-index
      // tiebreak. Fixed here, inherited by every descendant node — BBK
      // never re-sorts.
      order_keys_.push_back(uint64_t{entry.loc_len} << 32 | idx);
    }
  }
  std::sort(order_keys_.begin(), order_keys_.end());
  // Forbidden keys (top bit set by the complement) sort to the tail,
  // descending loc_len within the block; split them off into the root Q.
  const auto split = std::partition_point(
      order_keys_.begin(), order_keys_.end(),
      [](uint64_t key) { return !(key >> 63); });
  forbidden_.clear();
  for (auto it = split; it != order_keys_.end(); ++it) {
    forbidden_.push_back(static_cast<VertexId>(*it & 0xffffffffu));
  }
  order_keys_.erase(split, order_keys_.end());
}

void BbkEnumerator::EnumerateShard(VertexId v, uint32_t shard,
                                   uint32_t num_shards, ResultSink* sink) {
  PMBE_DCHECK(num_shards >= 1 && shard < num_shards);
  const bool claimed = roots_.Claim(v);
  if (Stopped(sink)) return;
  bool pruned = false;
  if (!roots_.Build(v, claimed, &pruned)) {
    if (pruned) ++stats_.subtrees_pruned;
    return;
  }
  RenumberRoot();
  EnumContext::Frame frame(&ctx_);
  std::vector<VertexId>& r = *frame.AcquireIds();
  r.push_back(v);
  r.insert(r.end(), roots_.absorbed().begin(), roots_.absorbed().end());
  std::sort(r.begin(), r.end());

  std::vector<VertexId>& cands = *frame.AcquireIds();
  cands.reserve(order_keys_.size());
  for (uint64_t key : order_keys_) {
    cands.push_back(static_cast<VertexId>(key & 0xffffffffu));
  }
  std::vector<VertexId>& q = *frame.AcquireIds();
  q.assign(forbidden_.begin(), forbidden_.end());

  // The subtree root biclique belongs to shard 0; every shard expands from
  // this same root state.
  if (shard == 0) {
    sink->Emit(roots_.root().l0, r);
    ++stats_.maximal;
  }
  if (!cands.empty()) {
    // Root L = the full local universe.
    std::vector<VertexId>& l = *frame.AcquireIds();
    l.resize(universe_);
    std::iota(l.begin(), l.end(), 0);
    std::span<const uint64_t> l_words;
    if (policy_.PickBitmap(universe_, universe_)) {
      std::vector<uint64_t>& words = *frame.AcquireWords();
      words.assign(util::WordsFor(universe_), 0);
      util::SetBits(l, words);
      ++stats_.bitmap_conversions;
      l_words = words;
    }
    Expand(l, l_words, r, cands, q, sink, shard, num_shards);
  }
  if (ctx_.peak_bytes() > stats_.arena_peak_bytes) {
    stats_.arena_peak_bytes = ctx_.peak_bytes();
  }
}

void BbkEnumerator::Expand(const std::vector<VertexId>& l,
                           std::span<const uint64_t> l_words,
                           const std::vector<VertexId>& r,
                           const std::vector<VertexId>& cands,
                           std::vector<VertexId>& q, ResultSink* sink,
                           uint32_t shard, uint32_t num_shards) {
  ++stats_.nodes_expanded;
  EnumContext::Frame frame(&ctx_);
  std::vector<VertexId>& lp = *frame.AcquireIds();
  std::vector<VertexId>& lg = *frame.AcquireIds();
  std::vector<VertexId>& rp = *frame.AcquireIds();
  std::vector<VertexId>& cp = *frame.AcquireIds();
  std::vector<VertexId>& qp = *frame.AcquireIds();
  std::vector<uint64_t>& lp_bits = *frame.AcquireWords();

  // "Killer" witness: the Q entry that most recently proved a sibling
  // non-maximal. Consecutive candidates in the inherited degree order tend
  // to be dominated by the same witness, so probing the killer first
  // usually settles the (frequent) non-maximal case in one intersection
  // instead of a Q scan.
  size_t killer = SIZE_MAX;

  for (size_t i = 0; i < cands.size(); ++i) {
    if (Stopped(sink)) return;
    const uint32_t vc = cands[i];
    if (num_shards > 1 && i % num_shards != shard) {
      // Another shard owns this position: skip the expansion but append
      // the candidate to Q, as the sequential loop would have by the time
      // later positions run. (Sequentially an empty-L' candidate is not
      // appended, but a Q entry with loc0 ∩ L' = ∅ has k = 0 < |L'| at
      // every descendant node and is dropped from Q' below, so the extra
      // entry can never flip a maximality verdict.)
      q.push_back(vc);
      continue;
    }

    // L' = loc0(vc) ∩ L over the renumbered local universe, answered by
    // whichever representation the parent carries.
    if (!l_words.empty()) {
      IntersectInto(LocalOf(vc), l_words, &lp);
    } else {
      IntersectInto(LocalOf(vc), l, &lp);
    }
    if (lp.empty()) continue;

    // Adaptive representation for L': the list is always kept (emission
    // and recursion need it); a bitmap is added when the density policy
    // says the word kernels win for the Q and classification probes below.
    std::span<const uint64_t> lpw;
    if (policy_.PickBitmap(lp.size(), universe_)) {
      lp_bits.assign(util::WordsFor(universe_), 0);
      util::SetBits(lp, lp_bits);
      ++stats_.bitmap_conversions;
      lpw = lp_bits;
    }
    auto loc_cap = [&](uint32_t entry) {
      if (!lpw.empty()) {
        ++stats_.bitmap_kernel_calls;
        return IntersectSize(LocalOf(entry), lpw);
      }
      return IntersectSizeCapped(LocalOf(entry), lp, lp.size());
    };

    // Maximality via the Q set: traversed candidates of this node are
    // cands[0..i-1], accumulated into q at the end of each iteration.
    // Dead entries (k == 0) are pruned from Q'.
    bool maximal = true;
    if (killer != SIZE_MAX && loc_cap(q[killer]) == lp.size()) {
      maximal = false;
    }
    if (maximal) {
      qp.clear();
      for (size_t t = 0; t < q.size(); ++t) {
        const size_t k = loc_cap(q[t]);
        if (k == lp.size()) {
          maximal = false;
          killer = t;
          break;
        }
        if (k > 0) qp.push_back(q[t]);
      }
    }

    if (maximal) {
      rp = r;
      rp.push_back(entry_w_[vc]);
      cp.clear();
      for (size_t j = i + 1; j < cands.size(); ++j) {
        const VertexId w = cands[j];
        const size_t k = loc_cap(w);
        if (k == lp.size()) {
          rp.push_back(entry_w_[w]);
          ++stats_.candidates_absorbed;
        } else if (k > 0) {
          cp.push_back(w);
        } else {
          ++stats_.candidates_dropped;
        }
      }
      std::sort(rp.begin(), rp.end());
      // Map L' back to global left ids (order-preserving renumbering, so
      // the mapped list is already sorted).
      lg.clear();
      lg.reserve(lp.size());
      for (VertexId x : lp) lg.push_back(roots_.root().l0[x]);
      sink->Emit(lg, rp);
      ++stats_.maximal;
      if (!cp.empty()) Expand(lp, lpw, rp, cp, qp, sink);
    } else {
      ++stats_.non_maximal;
    }
    q.push_back(vc);
  }
}

}  // namespace mbe
