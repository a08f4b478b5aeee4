#include "automata/fpras.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <map>

namespace uocqa {

namespace {

/// Proportional pick shared by every selection on the sampling path: the
/// first index j with r < prefix[j+1], clamped to the last index — exactly
/// the element the legacy linear scan (`acc += size; if (r < acc) break;`)
/// selected, found by binary search. `prefix` has m+1 entries for m items
/// (m >= 1) and is non-decreasing.
size_t PickIndex(const std::vector<double>& prefix, double r) {
  size_t m = prefix.size() - 1;
  auto it = std::upper_bound(prefix.begin() + 1,
                             prefix.begin() + static_cast<ptrdiff_t>(m), r);
  return static_cast<size_t>(it - (prefix.begin() + 1));
}

/// Size-support rows are bitsets of `w` words: bit s stands for size s.
bool HasSize(const uint64_t* row, size_t s) {
  return (row[s >> 6] >> (s & 63)) & 1u;
}

/// Clears every bit above `max` in a `w`-word row.
void ClearAbove(uint64_t* row, size_t w, size_t max) {
  size_t last = max / 64;
  if (last >= w) return;
  if (max % 64 != 63) row[last] &= (uint64_t{2} << (max % 64)) - 1;
  std::fill(row + last + 1, row + w, uint64_t{0});
}

/// out = {x + y : x ∈ a, y ∈ b, x + y <= max}; `out` aliases neither input.
void Sumset(const uint64_t* a, const uint64_t* b, size_t w, size_t max,
            uint64_t* out) {
  std::fill(out, out + w, uint64_t{0});
  for (size_t wa = 0; wa < w; ++wa) {
    for (uint64_t bits = a[wa]; bits != 0; bits &= bits - 1) {
      size_t x = wa * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      if (x > max) break;
      size_t shift_words = x / 64;
      size_t shift_bits = x % 64;
      for (size_t j = shift_words; j < w; ++j) {
        uint64_t v = b[j - shift_words] << shift_bits;
        if (shift_bits != 0 && j > shift_words) {
          v |= b[j - shift_words - 1] >> (64 - shift_bits);
        }
        out[j] |= v;
      }
    }
  }
  ClearAbove(out, w, max);
}

/// The root of a group's trial streams: a function of the seed and the
/// group's identity (its cell and its (symbol, child sizes) key) only.
uint64_t UnionSeed(uint64_t seed, NftaState q, size_t size,
                   const std::pair<NftaSymbol, std::vector<size_t>>& key) {
  size_t h = q;
  HashCombine(&h, size);
  HashCombine(&h, key.first);
  HashCombine(&h, key.second.size());
  for (size_t s : key.second) HashCombine(&h, s);
  return Rng::Stream(seed, h).NextU64();
}

}  // namespace

NftaFpras::NftaFpras(const Nfta& nfta, FprasConfig config, ThreadPool* pool)
    : nfta_(nfta),
      compiled_keep_(nfta.CompiledShared()),
      c_(*compiled_keep_),
      config_(config),
      external_pool_(pool) {}

ThreadPool* NftaFpras::pool() {
  if (config_.threads == 1) return nullptr;
  if (external_pool_ != nullptr) return external_pool_;
  if (!owned_pool_) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
  return owned_pool_.get();
}

const NftaFpras::Cell* NftaFpras::FindCell(NftaState q, size_t size) const {
  auto it = cells_.find({q, size});
  return it == cells_.end() ? nullptr : &it->second;
}

bool NftaFpras::Supported(NftaState q, size_t size) const {
  return size != 0 && size <= supp_max_ && q < c_.state_count() &&
         HasSize(SupportRow(q), size);
}

void NftaFpras::EnsureSupport(size_t max_size) {
  if (max_size <= supp_max_) return;
  const size_t max = std::max(max_size, 2 * supp_max_);
  const size_t w = max / 64 + 1;
  const size_t n = c_.state_count();
  const size_t t_count = c_.transition_count();
  supp_.assign(n * w, 0);
  supp_words_ = w;
  supp_max_ = max;

  // Transitions indexed by child state (CSR), so a state whose support grew
  // re-queues exactly the transitions that read it.
  std::vector<uint32_t> by_child_begin(n + 1, 0);
  for (CompiledNfta::TransitionId t = 0; t < t_count; ++t) {
    for (uint32_t i = 0; i < c_.rank(t); ++i) {
      ++by_child_begin[c_.children(t)[i] + 1];
    }
  }
  for (size_t q = 0; q < n; ++q) by_child_begin[q + 1] += by_child_begin[q];
  std::vector<CompiledNfta::TransitionId> by_child(by_child_begin[n]);
  std::vector<uint32_t> fill(by_child_begin.begin(), by_child_begin.end() - 1);
  for (CompiledNfta::TransitionId t = 0; t < t_count; ++t) {
    for (uint32_t i = 0; i < c_.rank(t); ++i) {
      by_child[fill[c_.children(t)[i]]++] = t;
    }
  }

  // Fixpoint: supp[q] ⊇ {1} for a leaf transition from q, and
  // supp[q] ⊇ 1 + supp[q1] ⊕ … ⊕ supp[qr] for τ = (q, a, (q1..qr)).
  std::deque<CompiledNfta::TransitionId> queue;
  std::vector<uint8_t> queued(t_count, 0);
  for (CompiledNfta::TransitionId t = 0; t < t_count; ++t) {
    if (c_.rank(t) == 0) {
      supp_[c_.from(t) * w] |= uint64_t{2};
    } else {
      queue.push_back(t);
      queued[t] = 1;
    }
  }
  std::vector<uint64_t> acc(w);
  std::vector<uint64_t> next(w);
  while (!queue.empty()) {
    CompiledNfta::TransitionId t = queue.front();
    queue.pop_front();
    queued[t] = 0;
    std::fill(acc.begin(), acc.end(), uint64_t{0});
    acc[0] = 1;  // {0}
    bool empty = false;
    for (uint32_t i = 0; i < c_.rank(t) && !empty; ++i) {
      Sumset(acc.data(), SupportRow(c_.children(t)[i]), w, max - 1,
             next.data());
      acc.swap(next);
      empty = std::all_of(acc.begin(), acc.end(),
                          [](uint64_t x) { return x == 0; });
    }
    if (empty) continue;
    // Shift by one (the root node) and merge into supp[from].
    uint64_t* row = supp_.data() + c_.from(t) * w;
    bool grew = false;
    for (size_t j = w; j-- > 0;) {
      uint64_t shifted = (acc[j] << 1) | (j > 0 ? acc[j - 1] >> 63 : 0);
      grew |= (shifted & ~row[j]) != 0;
      row[j] |= shifted;
    }
    if (!grew) continue;
    NftaState q = c_.from(t);
    for (uint32_t k = by_child_begin[q]; k < by_child_begin[q + 1]; ++k) {
      if (!queued[by_child[k]]) {
        queued[by_child[k]] = 1;
        queue.push_back(by_child[k]);
      }
    }
  }
}

bool NftaFpras::Intersects(NftaState p, NftaState p2, size_t size) {
  if (!Supported(p, size) || !Supported(p2, size)) return false;
  if (p == p2) return true;
  if (p > p2) std::swap(p, p2);
  auto [it, inserted] =
      intersects_.try_emplace({(uint64_t{p} << 32) | p2, size}, false);
  // References into an unordered_map survive rehashing, so the recursion
  // below may insert freely; child sizes are strictly smaller, so it never
  // reads this entry before it is set.
  bool& known = it->second;
  if (!inserted) return known;
  CompiledNfta::IdRange r1 = c_.TransitionsFrom(p);
  CompiledNfta::IdRange r2 = c_.TransitionsFrom(p2);
  for (CompiledNfta::TransitionId t1 = r1.begin; t1 < r1.end; ++t1) {
    for (CompiledNfta::TransitionId t2 = r2.begin; t2 < r2.end; ++t2) {
      if (c_.symbol(t1) == c_.symbol(t2) && c_.rank(t1) == c_.rank(t2) &&
          ChildrenIntersect(c_.children(t1), c_.children(t2), c_.rank(t1),
                            size - 1)) {
        known = true;
        return true;
      }
    }
  }
  return false;
}

bool NftaFpras::ChildrenIntersect(const NftaState* a, const NftaState* b,
                                  size_t rank, size_t remaining) {
  if (rank == 0) return remaining == 0;
  if (rank == 1) return Intersects(a[0], b[0], remaining);
  for (size_t t = 1; t + rank - 1 <= remaining; ++t) {
    if (Intersects(a[0], b[0], t) &&
        ChildrenIntersect(a + 1, b + 1, rank - 1, remaining - t)) {
      return true;
    }
  }
  return false;
}

bool NftaFpras::PairwiseDisjoint(const Group& group) {
  // Group members share their symbol and child sizes, so two of them
  // overlap iff their child languages intersect at every position.
  const std::vector<Component>& comps = group.components;
  for (size_t j = 0; j < comps.size(); ++j) {
    const NftaState* kj = c_.children(comps[j].transition);
    for (size_t k = j + 1; k < comps.size(); ++k) {
      const NftaState* kk = c_.children(comps[k].transition);
      bool overlap = true;
      for (size_t i = 0; i < comps[j].child_sizes.size() && overlap; ++i) {
        overlap = Intersects(kj[i], kk[i], comps[j].child_sizes[i]);
      }
      if (overlap) return false;
    }
  }
  return true;
}

const NftaFpras::Cell& NftaFpras::GetCell(NftaState q, size_t size) {
  static const Cell kEmpty;
  if (!Supported(q, size)) return kEmpty;
  auto [it, inserted] = cells_.try_emplace({q, size});
  // Stable across rehashing; child sizes are strictly smaller, so the
  // recursion below never returns this cell before it is complete.
  Cell& cell = it->second;
  if (!inserted) return cell;

  // Build components, grouped by (symbol, child sizes). Only compositions
  // whose every part lies in its child's support are enumerated: the
  // suffix rows hold the sums the remaining positions can still reach.
  const size_t w = supp_words_;
  std::map<std::pair<NftaSymbol, std::vector<size_t>>, size_t> group_index;
  auto add = [&](CompiledNfta::TransitionId tid, std::vector<size_t> sizes,
                 double prod) {
    auto key = config_.group_disjoint_components
                   ? std::make_pair(c_.symbol(tid), sizes)
                   : std::make_pair(NftaSymbol{0}, std::vector<size_t>{});
    auto [git, fresh] = group_index.try_emplace(key, cell.groups.size());
    if (fresh) {
      cell.groups.emplace_back();
      cell.groups.back().union_seed = UnionSeed(config_.seed, q, size, key);
    }
    cell.groups[git->second].components.push_back(
        Component{tid, std::move(sizes), prod});
  };
  std::vector<uint64_t> suffix;
  CompiledNfta::IdRange range = c_.TransitionsFrom(q);
  for (CompiledNfta::TransitionId tid = range.begin; tid < range.end; ++tid) {
    size_t rank = c_.rank(tid);
    if (rank == 0) {
      if (size == 1) add(tid, {}, 1.0);
      continue;
    }
    if (size < rank + 1) continue;
    const NftaState* kids = c_.children(tid);
    // suffix row k = supp[kids[k]] ⊕ … ⊕ supp[kids[rank-1]]; row rank = {0}.
    suffix.assign((rank + 1) * w, 0);
    suffix[rank * w] = 1;
    for (size_t k = rank; k-- > 0;) {
      Sumset(SupportRow(kids[k]), suffix.data() + (k + 1) * w, w, size - 1,
             suffix.data() + k * w);
    }
    if (!HasSize(suffix.data(), size - 1)) continue;
    std::vector<size_t> sizes(rank, 0);
    std::function<void(size_t, size_t)> rec = [&](size_t pos,
                                                  size_t remaining) {
      if (pos == rank) {
        double prod = 1.0;
        for (size_t i = 0; i < rank && prod > 0; ++i) {
          prod *= GetCell(kids[i], sizes[i]).estimate;
        }
        if (prod > 0) add(tid, sizes, prod);
        return;
      }
      const uint64_t* row = SupportRow(kids[pos]);
      const uint64_t* rest = suffix.data() + (pos + 1) * w;
      for (size_t si = 1; si <= remaining; ++si) {
        if (!HasSize(row, si) || !HasSize(rest, remaining - si)) continue;
        sizes[pos] = si;
        rec(pos + 1, remaining - si);
      }
    };
    rec(0, size - 1);
  }

  double total = 0;
  cell.group_prefix.reserve(cell.groups.size() + 1);
  cell.group_prefix.push_back(0);
  for (Group& g : cell.groups) {
    g.prefix.reserve(g.components.size() + 1);
    g.prefix.push_back(0);
    for (const Component& comp : g.components) {
      g.prefix.push_back(g.prefix.back() + comp.size);
    }
    g.estimate = EstimateGroup(&g);
    total += g.estimate;
    cell.group_prefix.push_back(cell.group_prefix.back() + g.estimate);
  }
  cell.estimate = total;
  return cell;
}

double NftaFpras::EstimateGroup(Group* group) {
  std::vector<Component>& comps = group->components;
  if (comps.empty()) return 0;
  double sum = group->prefix.back();
  if (comps.size() == 1 || sum <= 0) return sum;
  if (config_.group_disjoint_components && PairwiseDisjoint(*group)) {
    ++groups_disjoint_;
    return sum;
  }

  // Karp–Luby–Madras: estimate = sum * Pr[sampled (j, t) has j minimal].
  ++union_estimations_;
  size_t m = comps.size();
  double eps = std::max(1e-3, config_.epsilon * 0.5);
  size_t samples = static_cast<size_t>(
      std::ceil(4.0 * static_cast<double>(m) *
                std::log(4.0 / config_.delta) / (eps * eps)));
  samples = std::clamp(samples, config_.min_samples, config_.max_samples);
  klm_trials_ += samples;

  // Trials are independent, so they run chunked; whatever the thread
  // count, chunk c always covers the same trials with the same RNG
  // streams, so estimates depend only on (automaton, config). Every cell a
  // trial samples from was computed while this group's components were
  // built, so the parallel section only reads `cells_`.
  size_t chunks = (samples + kTrialChunk - 1) / kTrialChunk;
  std::vector<std::pair<size_t, size_t>> counts(chunks);  // hits, performed
  RunTrialsBatched(*group, sum, samples, &counts);

  size_t hits = 0;
  size_t performed = 0;
  for (const auto& [h, p] : counts) {
    hits += h;
    performed += p;
  }
  if (performed == 0) return 0;
  return sum * static_cast<double>(hits) / static_cast<double>(performed);
}

void NftaFpras::EnsureLeafRows() {
  if (leaf_rows_ready_) return;
  size_t wps = c_.words_per_set();
  size_t n_symbols = c_.symbol_count();
  leaf_rows_.assign(n_symbols * wps, 0);
  for (size_t s = 0; s < n_symbols; ++s) {
    c_.CombineBehaviors(static_cast<NftaSymbol>(s), nullptr, 0,
                        leaf_rows_.data() + s * wps);
  }
  leaf_rows_ready_ = true;
}

int NftaFpras::MinIndexBatched(const Group& group, uint32_t root,
                               const BatchCtx& ctx) const {
  const TreePool& pool = ctx.pool;
  const TreePool::Node& root_node = pool.nodes[root];
  size_t wps = c_.words_per_set();
  size_t n_children = 0;
  for (uint32_t ch = root_node.first_child; ch != TreePool::kNil;
       ch = pool.nodes[ch].next_sibling) {
    ++n_children;
  }
  for (size_t j = 0; j < group.components.size(); ++j) {
    const Component& comp = group.components[j];
    CompiledNfta::TransitionId tid = comp.transition;
    if (c_.symbol(tid) != root_node.symbol || c_.rank(tid) != n_children ||
        comp.child_sizes.size() != n_children) {
      continue;
    }
    const NftaState* kids = c_.children(tid);
    bool ok = true;
    size_t i = 0;
    for (uint32_t ch = root_node.first_child; ch != TreePool::kNil;
         ch = pool.nodes[ch].next_sibling, ++i) {
      if (pool.nodes[ch].size != comp.child_sizes[i] ||
          !CompiledNfta::TestBit(ctx.rows.data() + ch * wps, kids[i])) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(j);
  }
  return -1;
}

void NftaFpras::ComputeRow(BatchCtx* ctx, uint32_t node) const {
  size_t wps = c_.words_per_set();
  if (ctx->rows.size() < (static_cast<size_t>(node) + 1) * wps) {
    // Geometric growth: the rows array tracks the pool and truncation
    // never shrinks it, so regrows amortize out.
    ctx->rows.resize(
        std::max((static_cast<size_t>(node) + 1) * wps, ctx->rows.size() * 2));
  }
  const TreePool::Node& nd = ctx->pool.nodes[node];
  uint64_t* row = ctx->rows.data() + static_cast<size_t>(node) * wps;
  if (nd.first_child == TreePool::kNil) {
    std::memcpy(row, leaf_rows_.data() + nd.symbol * wps,
                wps * sizeof(uint64_t));
    return;
  }
  size_t rank = 0;
  for (uint32_t ch = nd.first_child; ch != TreePool::kNil;
       ch = ctx->pool.nodes[ch].next_sibling) {
    ++rank;
  }
  if (ctx->child_ptrs.size() < rank) ctx->child_ptrs.resize(rank);
  size_t ci = 0;
  for (uint32_t ch = nd.first_child; ch != TreePool::kNil;
       ch = ctx->pool.nodes[ch].next_sibling) {
    ctx->child_ptrs[ci++] = ctx->rows.data() + static_cast<size_t>(ch) * wps;
  }
  const simd::Kernels& k = c_.kernels();
  k.clear_words(row, wps);
  int32_t gi = c_.GroupIndex(nd.symbol, static_cast<uint32_t>(rank));
  if (gi >= 0) {
    k.combine_group(c_.ProbeForGroup(gi), ctx->child_ptrs.data(), row);
  }
}

uint32_t NftaFpras::SampleComponentFlatBatched(Rng& rng,
                                               const Component& comp,
                                               BatchCtx* ctx) {
  CompiledNfta::TransitionId tid = comp.transition;
  uint32_t total = 1;
  for (size_t s : comp.child_sizes) total += static_cast<uint32_t>(s);
  uint32_t node = ctx->pool.New(c_.symbol(tid), total);
  const NftaState* kids = c_.children(tid);
  for (size_t i = 0; i < comp.child_sizes.size(); ++i) {
    uint32_t child = SampleFlatBatched(rng, kids[i], comp.child_sizes[i], ctx);
    if (child == TreePool::kNil) return TreePool::kNil;
    ctx->pool.AddChild(node, child);
  }
  return node;
}

uint32_t NftaFpras::SampleFlatBatched(Rng& rng, NftaState q, size_t size,
                                      BatchCtx* ctx) {
  // Pick a group proportionally to its (union) estimate, then a component
  // proportionally to its size, then apply minimal-index rejection. One
  // uniform per pick, binary-searched over the cached prefix sums. Read-only:
  // every cell this can touch was built by the GetCell call that preceded
  // the sampling, so trial threads never mutate `cells_`. Each pooled node's
  // behaviour row is computed once (ComputeRow, on subtree completion) and
  // the min-index checks read the rows.
  const Cell* cell = FindCell(q, size);
  assert(cell != nullptr);
  if (cell == nullptr || cell->estimate <= 0 || cell->groups.empty()) {
    return TreePool::kNil;
  }
  for (size_t attempt = 0; attempt < config_.max_rejection_attempts;
       ++attempt) {
    double r = rng.UniformDouble() * cell->estimate;
    size_t gi = PickIndex(cell->group_prefix, r);
    const Group& g = cell->groups[gi];
    if (g.components.empty()) continue;
    double csum = g.prefix.back();
    if (csum <= 0) continue;
    double rc = rng.UniformDouble() * csum;
    size_t j = PickIndex(g.prefix, rc);
    // Reclaim rejected attempts by truncating back to the pre-attempt mark:
    // it keeps surviving subtrees contiguous in preorder, so rows stay
    // index-aligned with their nodes.
    size_t mark = ctx->pool.nodes.size();
    uint32_t t = SampleComponentFlatBatched(rng, g.components[j], ctx);
    if (t == TreePool::kNil) {
      ctx->pool.Truncate(mark);
      continue;
    }
    // Min-index over the cached child rows (consumes no randomness; for a
    // single-component group it is trivially 0 == j).
    int min_idx = g.components.size() == 1
                      ? 0
                      : MinIndexBatched(g, t, *ctx);
    if (min_idx >= 0 && static_cast<size_t>(min_idx) == j) {
      ComputeRow(ctx, t);  // subtree complete: cache the winner's row
      return t;
    }
    ctx->pool.Truncate(mark);
  }
  // Rejection budget exhausted: return any sample (slight bias) so callers
  // always make progress on non-empty languages.
  for (const Group& g : cell->groups) {
    for (const Component& comp : g.components) {
      size_t mark = ctx->pool.nodes.size();
      uint32_t t = SampleComponentFlatBatched(rng, comp, ctx);
      if (t != TreePool::kNil) {
        ComputeRow(ctx, t);
        return t;
      }
      ctx->pool.Truncate(mark);
    }
  }
  return TreePool::kNil;
}

void NftaFpras::RunTrialsBatched(
    const Group& group, double sum, size_t samples,
    std::vector<std::pair<size_t, size_t>>* counts) {
  // One Rng stream per trial, chunks evaluated in lockstep phases. The
  // builds cache one behaviour row per pooled node (computed in post-order
  // as subtrees complete; truncation reclaims rejected attempts), so the
  // min-index checks — nested and top-level — read rows instead of
  // re-evaluating subtrees.
  const std::vector<Component>& comps = group.components;
  EnsureLeafRows();  // serial: the parallel section below only reads it
  auto run_chunk = [&](size_t c) {
    BatchCtx ctx;
    size_t begin = c * kTrialChunk;
    size_t end = std::min(samples, begin + kTrialChunk);
    size_t n = end - begin;

    // Phase 1: per-trial streams + batched component picks (one uniform
    // each, binary search over the prefix sums).
    ctx.rngs.reserve(n);
    ctx.picks.resize(n);
    for (size_t i = 0; i < n; ++i) {
      ctx.rngs.push_back(Rng::Stream(group.union_seed, begin + i));
      double r = ctx.rngs.back().UniformDouble() * sum;
      ctx.picks[i] = static_cast<uint32_t>(PickIndex(group.prefix, r));
    }

    // Phase 2: batched row-caching tree builds into the shared pool, each
    // trial resuming its own stream. Roots keep no row (the min-index
    // check only reads their children's rows).
    ctx.pool.Clear();
    ctx.roots.resize(n);
    size_t performed = 0;
    for (size_t i = 0; i < n; ++i) {
      size_t mark = ctx.pool.nodes.size();
      uint32_t t = SampleComponentFlatBatched(ctx.rngs[i],
                                              comps[ctx.picks[i]], &ctx);
      if (t == TreePool::kNil) {
        ctx.pool.Truncate(mark);
        ctx.roots[i] = TreePool::kNil;
        continue;
      }
      ctx.roots[i] = t;
      ++performed;
    }

    // Phase 3: batched min-index checks against the cached rows.
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (ctx.roots[i] == TreePool::kNil) continue;
      int min_idx = MinIndexBatched(group, ctx.roots[i], ctx);
      assert(min_idx >= 0);
      if (min_idx >= 0 && static_cast<uint32_t>(min_idx) == ctx.picks[i]) {
        ++hits;
      }
    }
    (*counts)[c] = {hits, performed};
  };
  ParallelForOn(pool(), counts->size(), run_chunk, /*grain=*/1);
}

std::optional<LabeledTree> NftaFpras::Sample(Rng& rng, NftaState q,
                                             size_t size) {
  EnsureSupport(size);
  // Builds every reachable cell (serial).
  if (GetCell(q, size).estimate <= 0) return std::nullopt;
  EnsureLeafRows();
  // A one-trial batch: the same builder the KLM trials use.
  sample_ctx_.pool.Clear();
  uint32_t root = SampleFlatBatched(rng, q, size, &sample_ctx_);
  if (root == TreePool::kNil) return std::nullopt;
  // Materialize the winner only (rejected attempts never touch the heap).
  const std::vector<TreePool::Node>& nodes = sample_ctx_.pool.nodes;
  std::function<LabeledTree(uint32_t)> build =
      [&](uint32_t n) -> LabeledTree {
    LabeledTree out(nodes[n].symbol);
    for (uint32_t ch = nodes[n].first_child; ch != TreePool::kNil;
         ch = nodes[ch].next_sibling) {
      out.children.push_back(build(ch));
    }
    return out;
  };
  return build(root);
}

double NftaFpras::EstimateFrom(NftaState q, size_t size) {
  EnsureSupport(size);
  return GetCell(q, size).estimate;
}

double NftaFpras::EstimateExactSize(size_t size) {
  if (nfta_.initial() == kNoNftaState) return 0;
  return EstimateFrom(nfta_.initial(), size);
}

double NftaFpras::EstimateUpTo(size_t max_size) {
  EnsureSupport(max_size);
  double total = 0;
  for (size_t s = 1; s <= max_size; ++s) total += EstimateExactSize(s);
  return total;
}

}  // namespace uocqa
