#include "baselines/mbea.h"

#include <algorithm>
#include <numeric>

namespace mbe {

MbeaEnumerator::MbeaEnumerator(const BipartiteGraph& graph,
                               const MbeaOptions& options)
    : graph_(graph),
      options_(options),
      l_mask_(graph.num_left()),
      roots_(graph) {}

void MbeaEnumerator::EnumerateAll(ResultSink* sink) {
  if (graph_.num_left() == 0 || graph_.num_right() == 0) return;
  EnumContext::Frame frame(&ctx_);
  std::vector<VertexId>& l = *frame.AcquireIds();
  l.resize(graph_.num_left());
  std::iota(l.begin(), l.end(), 0);
  std::vector<VertexId>& cands = *frame.AcquireIds();
  cands.resize(graph_.num_right());
  std::iota(cands.begin(), cands.end(), 0);
  std::vector<VertexId>& r = *frame.AcquireIds();
  std::vector<VertexId>& q = *frame.AcquireIds();
  Expand(l, r, cands, q, sink);
  if (ctx_.peak_bytes() > stats_.arena_peak_bytes) {
    stats_.arena_peak_bytes = ctx_.peak_bytes();
  }
}

void MbeaEnumerator::EnumerateSubtree(VertexId v, ResultSink* sink) {
  EnumerateShard(v, 0, 1, sink);
}

uint32_t MbeaEnumerator::SplitHint(VertexId v, uint32_t max_shards,
                                   uint64_t min_work) {
  return roots_.SplitHint(v, max_shards, min_work);
}

void MbeaEnumerator::EnumerateShard(VertexId v, uint32_t shard,
                                    uint32_t num_shards, ResultSink* sink) {
  PMBE_DCHECK(num_shards >= 1 && shard < num_shards);
  const bool claimed = roots_.Claim(v);
  if (Stopped(sink)) return;
  bool pruned = false;
  if (!roots_.Build(v, claimed, &pruned)) {
    if (pruned) ++stats_.subtrees_pruned;
    return;
  }
  const SubtreeRoot& root = roots_.root();
  EnumContext::Frame frame(&ctx_);
  std::vector<VertexId>& r = *frame.AcquireIds();
  r.push_back(v);
  r.insert(r.end(), roots_.absorbed().begin(), roots_.absorbed().end());
  std::sort(r.begin(), r.end());

  std::vector<VertexId>& cands = *frame.AcquireIds();
  std::vector<VertexId>& q = *frame.AcquireIds();
  for (const RootEntry& entry : root.entries) {
    (entry.forbidden ? q : cands).push_back(entry.w);
  }
  // The subtree root biclique belongs to shard 0; every shard expands from
  // this same root state.
  if (shard == 0) {
    sink->Emit(root.l0, r);
    ++stats_.maximal;
  }
  if (!cands.empty()) {
    Expand(root.l0, r, cands, q, sink, shard, num_shards);
  }
  if (ctx_.peak_bytes() > stats_.arena_peak_bytes) {
    stats_.arena_peak_bytes = ctx_.peak_bytes();
  }
}

void MbeaEnumerator::Expand(const std::vector<VertexId>& l,
                            const std::vector<VertexId>& r,
                            const std::vector<VertexId>& cands,
                            std::vector<VertexId>& q, ResultSink* sink,
                            uint32_t shard, uint32_t num_shards) {
  ++stats_.nodes_expanded;
  EnumContext::Frame frame(&ctx_);

  const VertexId* order = cands.data();
  std::vector<VertexId>* ordered = nullptr;
  if (options_.improved) {
    // iMBEA: traverse candidates in ascending |N(w) ∩ L|. Key and vertex
    // pack into one 64-bit word, so the sort runs over pooled flat words.
    l_mask_.Set(l);
    std::vector<uint64_t>& keyed = *frame.AcquireWords();
    keyed.reserve(cands.size());
    for (VertexId w : cands) {
      const uint64_t key =
          IntersectSizeWithMask(graph_.RightNeighbors(w), l_mask_);
      keyed.push_back(key << 32 | w);
    }
    l_mask_.Clear(l);
    std::sort(keyed.begin(), keyed.end());
    ordered = frame.AcquireIds();
    ordered->reserve(cands.size());
    for (uint64_t kw : keyed) {
      ordered->push_back(static_cast<VertexId>(kw & 0xffffffffu));
    }
    order = ordered->data();
  }

  std::vector<VertexId>& lp = *frame.AcquireIds();
  std::vector<VertexId>& rp = *frame.AcquireIds();
  std::vector<VertexId>& cp = *frame.AcquireIds();
  std::vector<VertexId>& qp = *frame.AcquireIds();
  for (size_t i = 0; i < cands.size(); ++i) {
    if (Stopped(sink)) return;
    const VertexId vc = order[i];
    if (num_shards > 1 && i % num_shards != shard) {
      // Another shard owns this position: skip the expansion but append
      // the candidate to Q, as the sequential loop would have by the time
      // later positions run. (Sequentially an empty-L' candidate is not
      // appended, but a Q vertex with N(q) ∩ L = ∅ has k = 0 < |L'| at
      // every descendant node and is dropped from Q' in iMBEA mode, so the
      // extra entry can never flip a maximality verdict.)
      q.push_back(vc);
      continue;
    }

    l_mask_.Set(l);
    IntersectWithMask(graph_.RightNeighbors(vc), l_mask_, &lp);
    l_mask_.Clear(l);
    if (lp.empty()) continue;

    l_mask_.Set(lp);
    // Maximality via the Q set: traversed vertices of this node are
    // order[0..i-1], accumulated into q at the end of each iteration.
    bool maximal = true;
    qp.clear();
    for (VertexId qv : q) {
      const size_t k =
          options_.improved
              ? IntersectSizeCapped(graph_.RightNeighbors(qv), lp, lp.size())
              : IntersectSizeWithMask(graph_.RightNeighbors(qv), l_mask_);
      if (k == lp.size()) {
        maximal = false;
        break;
      }
      if (k > 0 || !options_.improved) qp.push_back(qv);
    }

    if (maximal) {
      rp = r;
      rp.push_back(vc);
      cp.clear();
      for (size_t j = i + 1; j < cands.size(); ++j) {
        const VertexId w = order[j];
        const size_t k =
            IntersectSizeWithMask(graph_.RightNeighbors(w), l_mask_);
        if (k == lp.size()) {
          rp.push_back(w);
          ++stats_.candidates_absorbed;
        } else if (k > 0) {
          cp.push_back(w);
        } else {
          ++stats_.candidates_dropped;
        }
      }
      std::sort(rp.begin(), rp.end());
      sink->Emit(lp, rp);
      ++stats_.maximal;
      l_mask_.Clear(lp);
      if (!cp.empty()) Expand(lp, rp, cp, qp, sink);
    } else {
      ++stats_.non_maximal;
      l_mask_.Clear(lp);
    }
    q.push_back(vc);
  }
}

}  // namespace mbe
