#include "core/mbet.h"

#include <algorithm>
#include <bit>

#include "util/fault.h"
#include "util/memory.h"

namespace mbe {

MbetEnumerator::MbetEnumerator(const BipartiteGraph& graph,
                               const MbetOptions& options)
    : graph_(graph),
      options_(options),
      roots_(graph),
      lp_mask_(graph.num_left()),
      ctx_(options.memory) {
  // MBETM stores no local lists, so there is nothing to build a trie over,
  // and its recomputation intersects global adjacency lists, so the local
  // renumbering (and with it the bitmap path) does not apply.
  if (options_.recompute_locals) options_.use_trie = false;
  renumber_ = !options_.recompute_locals;
#ifdef PMBE_FORCE_BITMAP
  options_.bitmap_density = 0.0;
#endif
}

MbetEnumerator::Level& MbetEnumerator::LevelAt(size_t depth) {
  while (levels_.size() <= depth) {
    levels_.push_back(std::make_unique<Level>());
  }
  return *levels_[depth];
}

void MbetEnumerator::EnumerateAll(ResultSink* sink) {
  for (VertexId v = 0; v < graph_.num_right(); ++v) {
    if (Stopped(sink)) return;
    EnumerateSubtree(v, sink);
  }
  ctx_.Trim();  // release pooled scratch so trackers balance to zero
}

void MbetEnumerator::EmitBiclique(std::span<const VertexId> l,
                                  std::span<const VertexId> r,
                                  ResultSink* sink) {
  if (renumber_) {
    // Local ids are positions in the sorted root l0, so the translated
    // list is ascending without a sort.
    emit_l_.clear();
    emit_l_.reserve(l.size());
    for (VertexId x : l) emit_l_.push_back(roots_.root().l0[x]);
    sink->Emit(emit_l_, r);
  } else {
    sink->Emit(l, r);
  }
  ++stats_.maximal;
}

void MbetEnumerator::EnumerateSubtree(VertexId v, ResultSink* sink) {
  EnumerateShard(v, 0, 1, sink);
}

uint32_t MbetEnumerator::SplitHint(VertexId v, uint32_t max_shards,
                                   uint64_t min_work) {
  if (graph_.RightDegree(v) < options_.min_left) return 1;
  return roots_.SplitHint(v, max_shards, min_work);
}

void MbetEnumerator::EnumerateShard(VertexId v, uint32_t shard,
                                    uint32_t num_shards, ResultSink* sink) {
  PMBE_DCHECK(num_shards >= 1 && shard < num_shards);
  const bool claimed = roots_.Claim(v);
  shard_ = shard;
  num_shards_ = num_shards;
  if (Stopped(sink)) return;
  // Size filter: every biclique of this subtree has L ⊆ N(v).
  if (graph_.RightDegree(v) < options_.min_left) return;
  bool pruned = false;
  if (!roots_.Build(v, claimed, &pruned)) {
    if (pruned) ++stats_.subtrees_pruned;
    return;
  }
  const SubtreeRoot& root = roots_.root();

  Level& lvl = LevelAt(0);
  local_universe_ = root.l0.size();
  if (renumber_) {
    // Renumber this subtree's left vertices into [0, |L0|): position in
    // the sorted l0 is the local id, so sorted global locals map to
    // sorted local locals.
    if (local_id_.size() < graph_.num_left()) {
      local_id_.resize(graph_.num_left(), 0);
    }
    for (size_t i = 0; i < root.l0.size(); ++i) {
      local_id_[root.l0[i]] = static_cast<VertexId>(i);
    }
    lvl.l.resize(local_universe_);
    for (size_t i = 0; i < local_universe_; ++i) {
      lvl.l[i] = static_cast<VertexId>(i);
    }
  } else {
    lvl.l = root.l0;
  }
  lvl.r.clear();
  lvl.r.push_back(v);
  lvl.r.insert(lvl.r.end(), roots_.absorbed().begin(),
               roots_.absorbed().end());
  std::sort(lvl.r.begin(), lvl.r.end());

  lvl.groups.clear();
  lvl.locs.clear();
  lvl.members.clear();
  for (const RootEntry& entry : root.entries) {
    Group g;
    g.mem_off = static_cast<uint32_t>(lvl.members.size());
    g.mem_len = 1;
    lvl.members.push_back(entry.w);
    g.min_member = entry.w;
    g.loc_off = static_cast<uint32_t>(lvl.locs.size());
    g.loc_len = entry.loc_len;
    uint64_t hash = 1469598103934665603ULL;
    for (VertexId x : root.LocOf(entry)) {
      const VertexId id = renumber_ ? local_id_[x] : x;
      lvl.locs.push_back(id);
      hash = (hash ^ (id + 1ULL)) * 1099511628211ULL;
    }
    g.loc_hash = hash;
    g.forbidden = entry.forbidden;
    lvl.groups.push_back(g);
  }
  Aggregate(&lvl);
  if (options_.recompute_locals) lvl.locs.clear();
  lvl.trie_built = false;

  // The subtree root biclique (N(v), {v} ∪ absorbed) is maximal by
  // construction: domination by an earlier vertex was excluded by the
  // builder, and all dominating later vertices were absorbed. Under a
  // split it belongs to shard 0 (every shard starts from this root).
  if (shard_ == 0 && lvl.r.size() >= options_.min_right) {
    EmitBiclique(lvl.l, lvl.r, sink);
  }

  bool has_candidate = false;
  uint64_t r_upper = lvl.r.size();
  for (const Group& g : lvl.groups) {
    if (!g.forbidden) {
      has_candidate = true;
      r_upper += g.mem_len;
    }
  }
  if (!has_candidate) return;
  if (r_upper < options_.min_right) return;
  if (options_.best_edges != nullptr &&
      lvl.l.size() * r_upper <= *options_.best_edges) {
    return;
  }
  Recurse(0, sink);
  if (ctx_.peak_bytes() > stats_.arena_peak_bytes) {
    stats_.arena_peak_bytes = ctx_.peak_bytes();
  }
}

void MbetEnumerator::Aggregate(Level* lvl) {
  std::vector<Group>& groups = lvl->groups;
  const size_t n = groups.size();
  if (!options_.use_aggregation || n < 2) return;
  constexpr uint32_t kEnd = ~0u;         // end of a duplicate chain
  constexpr uint32_t kMerged = ~0u - 1;  // duplicate already folded in
  const size_t table = std::bit_ceil(2 * n);
  const int shift = 64 - std::countr_zero(table);
  agg_slots_.assign(table, 0);
  agg_next_.assign(n, kEnd);

  // One pass: equal locals imply equal (status, size, hash), so each group
  // probes for its first occurrence and, when the locals match, chains
  // itself onto it.
  const VertexId* locs = lvl->locs.data();
  for (uint32_t i = 0; i < n; ++i) {
    const Group& g = groups[i];
    const uint64_t key = g.loc_hash + 2ULL * g.loc_len + g.forbidden;
    for (size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> shift;;
         slot = (slot + 1) & (table - 1)) {
      const uint32_t first = agg_slots_[slot];
      if (first == 0) {
        agg_slots_[slot] = i + 1;
        break;
      }
      const Group& rep = groups[first - 1];
      if (rep.forbidden == g.forbidden && rep.loc_len == g.loc_len &&
          rep.loc_hash == g.loc_hash &&
          std::equal(locs + rep.loc_off, locs + rep.loc_off + rep.loc_len,
                     locs + g.loc_off)) {
        agg_next_[i] = agg_next_[first - 1];
        agg_next_[first - 1] = i;
        break;
      }
    }
  }

  // Compact the first occurrences in order. Chains only run forward, so
  // every record a chain reads still sits above the write cursor. A merged
  // candidate group gathers all members into fresh arena space, unsorted
  // (R' sorts its additions); a merged forbidden group keeps its one
  // representative. The old runs become dead space until the level is
  // rebuilt.
  std::vector<VertexId>& members = lvl->members;
  auto gather = [&members](const Group& g) {
    // By index: a reallocation would invalidate iterators into members.
    for (uint32_t m = 0; m < g.mem_len; ++m) {
      members.push_back(members[g.mem_off + m]);
    }
  };
  size_t out = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (agg_next_[i] == kMerged) continue;
    Group rep = groups[i];
    if (agg_next_[i] != kEnd) {
      const uint32_t merged_off = static_cast<uint32_t>(members.size());
      if (!rep.forbidden) gather(rep);
      for (uint32_t k = agg_next_[i]; k != kEnd;) {
        const Group& dup = groups[k];
        stats_.vertices_aggregated += dup.mem_len;
        rep.min_member = std::min(rep.min_member, dup.min_member);
        if (!rep.forbidden) gather(dup);
        const uint32_t next = agg_next_[k];
        agg_next_[k] = kMerged;
        k = next;
      }
      if (!rep.forbidden) {
        rep.mem_off = merged_off;
        rep.mem_len = static_cast<uint32_t>(members.size()) - merged_off;
      }
    }
    groups[out++] = rep;
  }
  groups.resize(out);
}

void MbetEnumerator::Classify(Level& lvl) {
  const size_t n = lvl.groups.size();
  lvl.counts.resize(n);
  if (lvl.trie_built) {
    // One pass over the prefix tree classifies every group; shared
    // prefixes are probed once.
    stats_.trie_probes += lvl.trie.ClassifyAll(lp_mask_, &lvl.counts);
    stats_.local_scan_size += lvl.trie.total_list_length();
    return;
  }
  if (options_.recompute_locals) {
    // MBETM: no stored locals; count against the full adjacency of a
    // representative member (all members share the same local).
    for (size_t h = 0; h < n; ++h) {
      auto nbrs = graph_.RightNeighbors(lvl.members[lvl.groups[h].mem_off]);
      lvl.counts[h] =
          static_cast<uint32_t>(IntersectSizeWithMask(nbrs, lp_mask_));
      stats_.trie_probes += nbrs.size();
      stats_.local_scan_size += nbrs.size();
    }
    return;
  }
  if (lvl.words_built) {
    // Dense node: one AND+popcount per group over the fixed-width local
    // bitmaps. Probe accounting stays logical (|loc| per group, like the
    // direct scan) so the trie-vs-direct probe-ratio metric keeps its
    // meaning across representations; bitmap_kernel_calls records the
    // physical kernel used.
    const size_t words = lvl.words_per_group;
    const std::span<const uint64_t> lp(*lvl.lp_words);
    for (size_t h = 0; h < n; ++h) {
      const Group& g = lvl.groups[h];
      const std::span<const uint64_t> loc(lvl.loc_words->data() + h * words,
                                          words);
      lvl.counts[h] = static_cast<uint32_t>(IntersectSize(loc, lp));
      stats_.trie_probes += g.loc_len;
      stats_.local_scan_size += g.loc_len;
    }
    stats_.bitmap_kernel_calls += n;
    return;
  }
  // Direct per-group scan over stored locals (trie ablated). Pull the
  // next group's loc run toward L1 while the mask kernel chews on the
  // current one; the runs live in one arena but groups are visited in
  // aggregation order, so the hardware streamer does not cover the hops.
  for (size_t h = 0; h < n; ++h) {
    const Group& g = lvl.groups[h];
    if (h + 1 < n) {
      __builtin_prefetch(lvl.locs.data() + lvl.groups[h + 1].loc_off);
    }
    lvl.counts[h] =
        static_cast<uint32_t>(IntersectSizeWithMask(lvl.LocOf(g), lp_mask_));
    stats_.trie_probes += g.loc_len;
    stats_.local_scan_size += g.loc_len;
  }
}

std::span<const VertexId> MbetEnumerator::LocalOrAdjacency(
    const Level& lvl, const Group& g) const {
  if (options_.recompute_locals) {
    return graph_.RightNeighbors(lvl.members[g.mem_off]);
  }
  return lvl.LocOf(g);
}

void MbetEnumerator::MergeIntoR(std::span<const VertexId> r,
                                std::vector<VertexId>* additions,
                                std::vector<VertexId>* out) {
  std::sort(additions->begin(), additions->end());
  out->clear();
  out->reserve(r.size() + additions->size());
  std::merge(r.begin(), r.end(), additions->begin(), additions->end(),
             std::back_inserter(*out));
}

void MbetEnumerator::BuildChild(size_t depth, uint32_t traversed) {
  Level& lvl = *levels_[depth];
  Level& child = LevelAt(depth + 1);
  const uint32_t lp_size = static_cast<uint32_t>(child.l.size());

  child.groups.clear();
  child.locs.clear();
  child.members.clear();
  for (size_t h = 0; h < lvl.groups.size(); ++h) {
    if (h == traversed) continue;
    const Group& g = lvl.groups[h];
    const uint32_t count = lvl.counts[h];
    // Absorbed and dropped candidates are settled by the caller.
    if (!g.forbidden && (count == lp_size || count == 0)) continue;
    // A Q group that misses L' is dead; the prune_q ablation keeps it
    // alive with an empty local.
    if (count == 0 && options_.prune_q) continue;
    Group c;
    c.forbidden = g.forbidden;
    c.min_member = g.min_member;
    c.mem_off = static_cast<uint32_t>(child.members.size());
    if (g.forbidden) {
      // Q groups are only read for their local (maximality witnesses and
      // MBETM's recount), which any one member reproduces.
      c.mem_len = 1;
      child.members.push_back(lvl.members[g.mem_off]);
    } else {
      c.mem_len = g.mem_len;
      auto mem = lvl.MembersOf(g);
      child.members.insert(child.members.end(), mem.begin(), mem.end());
    }
    c.loc_off = static_cast<uint32_t>(child.locs.size());
    c.loc_len = count;
    if (count > 0) {
      // Materialize loc ∩ L' straight into the child's arena, hashing on
      // the way.
      uint64_t hash = 1469598103934665603ULL;
      for (VertexId x : LocalOrAdjacency(lvl, g)) {
        if (lp_mask_.Test(x)) {
          child.locs.push_back(x);
          hash = (hash ^ (x + 1ULL)) * 1099511628211ULL;
        }
      }
      c.loc_hash = hash;
      PMBE_DCHECK(child.locs.size() - c.loc_off == count);
    }
    child.groups.push_back(c);
  }
  Aggregate(&child);
  if (options_.recompute_locals) child.locs.clear();
  child.trie_built = false;
}

void MbetEnumerator::FinishChain(size_t depth, uint32_t chain,
                                 std::vector<VertexId>* scratch,
                                 ResultSink* sink) {
  const Level& lvl = *levels_[depth];
  const Level& child = *levels_[depth + 1];
  Level& grandchild = LevelAt(depth + 2);
  ++stats_.nodes_expanded;
  if (Stopped(sink)) return;
  const Group& c = lvl.groups[chain];
  const uint32_t lpp_size = lvl.counts[chain];
  if (lpp_size < options_.min_left) return;

  // L'' = loc(c) ∩ L'. A forbidden group of the child covers L'' iff its
  // parent local does (L'' ⊆ L'), and only a parent count of at least
  // |L''| leaves room for that.
  Intersect(LocalOrAdjacency(lvl, c), child.l, &grandchild.l);
  PMBE_DCHECK(grandchild.l.size() == lpp_size);
  for (size_t h = 0; h < lvl.groups.size(); ++h) {
    const Group& q = lvl.groups[h];
    if (q.forbidden && lvl.counts[h] >= lpp_size &&
        IsSubset(grandchild.l, LocalOrAdjacency(lvl, q))) {
      ++stats_.non_maximal;
      return;
    }
  }
  // The grandchild has no candidate left (c was the only one), so it is
  // a leaf: R'' = R' ∪ members(c).
  auto mem = lvl.MembersOf(c);
  scratch->assign(mem.begin(), mem.end());
  MergeIntoR(child.r, scratch, &grandchild.r);
  if (grandchild.r.size() >= options_.min_right) {
    EmitBiclique(grandchild.l, grandchild.r, sink);
  }
}

uint64_t MbetEnumerator::LevelBytes(const Level& lvl) {
  uint64_t bytes = sizeof(Level);
  bytes += lvl.groups.size() * sizeof(Group);
  bytes += (lvl.locs.size() + lvl.members.size()) * sizeof(VertexId);
  bytes += (lvl.l.size() + lvl.r.size()) * sizeof(VertexId);
  bytes += lvl.counts.size() * sizeof(uint32_t);
  bytes += lvl.order.size() * sizeof(uint32_t);
  bytes += lvl.trie.MemoryBytes();
  return bytes;
}

void MbetEnumerator::Recurse(size_t depth, ResultSink* sink) {
  EnumContext::Frame frame(&ctx_);
  Level& lvl = *levels_[depth];
  ++stats_.nodes_expanded;

  // Adaptive trie: each candidate traversal runs one classification pass,
  // so the build only pays off on nodes wide enough to amortize it.
  if (options_.use_trie && !lvl.trie_built) {
    uint32_t cand_groups = 0;
    for (const Group& g : lvl.groups) cand_groups += g.forbidden ? 0 : 1;
    if (cand_groups >= options_.trie_min_groups) {
      // "trie.build" models the trie arena failing to allocate.
      if (PMBE_FAULT("trie.build")) util::CurrentMemoryBudget().ForceExhaust();
      if (util::CurrentMemoryBudget().UnderPressure() ||
          util::CurrentMemoryBudget().exhausted()) {
        // Degrade: classification falls back to per-candidate scans —
        // slower, identical results, no trie arena.
        util::CurrentMemoryBudget().NoteDegradation();
      } else {
        lvl.lists.clear();
        lvl.lists.reserve(lvl.groups.size());
        for (const Group& g : lvl.groups) lvl.lists.push_back(lvl.LocOf(g));
        lvl.trie.BuildUnordered(lvl.lists);
        lvl.trie_built = true;
      }
    }
  }

  // Adaptive bitmaps (docs/SET_REPRESENTATION.md): on nodes the trie does
  // not take, dense-enough locals are materialized once into fixed-width
  // bitmaps over the local universe, turning every classification pass at
  // this node into AND+popcount kernels.
  lvl.words_built = false;
  lvl.loc_words = nullptr;
  lvl.lp_words = nullptr;
  if (!lvl.trie_built && renumber_ && !lvl.groups.empty() &&
      options_.bitmap_density <= 1.0) {
    uint64_t total_loc = 0;
    for (const Group& g : lvl.groups) total_loc += g.loc_len;
    if (static_cast<double>(total_loc) >=
        options_.bitmap_density * static_cast<double>(local_universe_) *
            static_cast<double>(lvl.groups.size())) {
      // "bitmap.build" models the word arrays failing to allocate.
      if (PMBE_FAULT("bitmap.build")) util::CurrentMemoryBudget().ForceExhaust();
      if (util::CurrentMemoryBudget().UnderPressure() ||
          util::CurrentMemoryBudget().exhausted()) {
        // Degrade: stay on sorted lists — slower kernels, same results.
        util::CurrentMemoryBudget().NoteDegradation();
      } else {
        const size_t words = util::WordsFor(local_universe_);
        lvl.loc_words = frame.AcquireWords();
        lvl.lp_words = frame.AcquireWords();
        lvl.loc_words->assign(words * lvl.groups.size(), 0);
        lvl.lp_words->assign(words, 0);
        for (size_t h = 0; h < lvl.groups.size(); ++h) {
          util::SetBits(lvl.LocOf(lvl.groups[h]),
                        std::span<uint64_t>(lvl.loc_words->data() + h * words,
                                            words));
        }
        lvl.words_per_group = words;
        lvl.words_built = true;
        stats_.bitmap_conversions += lvl.groups.size();
      }
    }
  }

  // Charge this node's level state (groups, locals, trie) to both the
  // tracker and the hard memory budget for the duration of its subtree.
  // RAII: an exception unwinding through the subtree (throwing sink,
  // injected fault) must return the charge too.
  const util::ScopedCharge node_charge(util::CurrentMemoryBudget(),
                                       options_.memory, LevelBytes(lvl));

  // Candidate traversal order: ascending local size (small locals first is
  // the classic choice: their subtrees are shallow and they turn into
  // strong Q witnesses early), ties by smallest member id.
  lvl.order.clear();
  for (size_t i = 0; i < lvl.groups.size(); ++i) {
    if (!lvl.groups[i].forbidden) lvl.order.push_back(static_cast<uint32_t>(i));
  }
  std::sort(lvl.order.begin(), lvl.order.end(), [&](uint32_t a, uint32_t b) {
    const Group& ga = lvl.groups[a];
    const Group& gb = lvl.groups[b];
    if (ga.loc_len != gb.loc_len) return ga.loc_len < gb.loc_len;
    return ga.min_member < gb.min_member;
  });

  std::vector<VertexId>* absorbed_members = frame.AcquireIds();
  const bool sharded = depth == 0 && num_shards_ > 1;

  uint32_t pos = 0;
  for (uint32_t idx : lvl.order) {
    const uint32_t my_pos = pos++;
    if (Stopped(sink)) break;
    Group& g = lvl.groups[idx];
    if (sharded && my_pos % num_shards_ != shard_) {
      // Another shard owns this position. In the sequential order every
      // traversed candidate ends forbidden before later positions run
      // (see the tail of this loop), so marking it forbidden here — and
      // enumerating nothing — leaves the node state of the positions this
      // shard does own exactly as the sequential run would have it.
      g.forbidden = true;
      continue;
    }
    const uint32_t lp_size = g.loc_len;
    if (lp_size < options_.min_left) {
      // Every biclique under g has L ⊆ loc(g), all too small. Skip the
      // expansion but keep g as a Q witness for its siblings.
      g.forbidden = true;
      continue;
    }

    // Materialize L' into the child slot.
    Level& child = LevelAt(depth + 1);
    if (options_.recompute_locals) {
      lp_mask_.Set(lvl.l);
      IntersectWithMask(graph_.RightNeighbors(lvl.members[g.mem_off]),
                        lp_mask_, &child.l);
      lp_mask_.Clear(lvl.l);
      PMBE_DCHECK(child.l.size() == lp_size);
    } else {
      auto loc = lvl.LocOf(g);
      child.l.assign(loc.begin(), loc.end());
    }

    lp_mask_.Set(child.l);
    if (lvl.words_built) {
      util::ClearWords(*lvl.lp_words);
      util::SetBits(child.l, *lvl.lp_words);
    }
    Classify(lvl);

    // Maximality (node) check: a forbidden group dominating L' witnesses
    // that this child's bicliques are enumerated elsewhere.
    bool witness = false;
    for (size_t h = 0; h < lvl.groups.size(); ++h) {
      if (lvl.groups[h].forbidden && lvl.counts[h] == lp_size) {
        witness = true;
        break;
      }
    }
    if (witness) {
      ++stats_.non_maximal;
      lp_mask_.Clear(child.l);
      g.forbidden = true;  // acts as Q for the remaining siblings
      continue;
    }

    // Settle the child's R' and count its candidates (non-forbidden groups
    // other than g with 0 < count < |L'|) before building anything. The
    // candidates not yet traversed are exactly the positions after this
    // one: every earlier position is forbidden by now. Aggregation only
    // merges candidates with each other, so a child with 0 or 1
    // candidates here has 0 or 1 after it, and never branches.
    absorbed_members->clear();
    uint32_t child_candidates = 0;
    uint32_t chain = 0;
    uint64_t r_upper = 0;
    for (uint32_t k = pos; k < lvl.order.size(); ++k) {
      const uint32_t h = lvl.order[k];
      const Group& cg = lvl.groups[h];
      PMBE_DCHECK(!cg.forbidden);
      const uint32_t count = lvl.counts[h];
      if (count == lp_size) {
        // Dominates L': belongs in R' of the child.
        ++stats_.candidates_absorbed;
        auto mem = lvl.MembersOf(cg);
        absorbed_members->insert(absorbed_members->end(), mem.begin(),
                                 mem.end());
      } else if (count == 0) {
        ++stats_.candidates_dropped;
      } else {
        ++child_candidates;
        chain = h;
        r_upper += cg.mem_len;
      }
    }
    {
      auto mem = lvl.MembersOf(g);
      absorbed_members->insert(absorbed_members->end(), mem.begin(),
                               mem.end());
      MergeIntoR(lvl.r, absorbed_members, &child.r);
    }
    if (child_candidates > 1) BuildChild(depth, idx);
    lp_mask_.Clear(child.l);

    if (child.r.size() >= options_.min_right) {
      EmitBiclique(child.l, child.r, sink);
    }

    // The child's own expansion gates.
    r_upper += child.r.size();
    const bool expand =
        child_candidates > 0 && r_upper >= options_.min_right &&
        (options_.best_edges == nullptr ||
         child.l.size() * r_upper > *options_.best_edges);
    if (expand && child_candidates == 1) {
      FinishChain(depth, chain, absorbed_members, sink);
    } else if (expand) {
      Recurse(depth + 1, sink);
    }

    g.forbidden = true;
  }

}

}  // namespace mbe
