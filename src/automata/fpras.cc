#include "automata/fpras.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>

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

}  // namespace

NftaFpras::NftaFpras(const Nfta& nfta, FprasConfig config, ThreadPool* pool)
    : nfta_(nfta),
      compiled_keep_(nfta.CompiledShared()),
      c_(*compiled_keep_),
      config_(config),
      rng_(config.seed),
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

NftaFpras::Cell& NftaFpras::GetCell(NftaState q, size_t size) {
  auto [it, inserted] = cells_.try_emplace({q, size});
  Cell& cell = it->second;
  if (cell.computed) return cell;
  // Mark first to guard against (impossible) cycles: child sizes are
  // strictly smaller.
  cell.computed = true;
  if (size == 0) return cell;

  // Build components, grouped by (symbol, child sizes).
  std::map<std::pair<NftaSymbol, std::vector<size_t>>, size_t> group_index;
  CompiledNfta::IdRange range = c_.TransitionsFrom(q);
  for (CompiledNfta::TransitionId tid = range.begin; tid < range.end; ++tid) {
    size_t rank = c_.rank(tid);
    if (rank == 0) {
      if (size != 1) continue;
      Component comp;
      comp.transition = tid;
      comp.size = 1.0;
      auto key = config_.group_disjoint_components
                     ? std::make_pair(c_.symbol(tid), std::vector<size_t>{})
                     : std::make_pair(NftaSymbol{0}, std::vector<size_t>{});
      auto [git, fresh] = group_index.try_emplace(key, cell.groups.size());
      if (fresh) cell.groups.emplace_back();
      cell.groups[git->second].components.push_back(std::move(comp));
      continue;
    }
    if (size < rank + 1) continue;
    const NftaState* kids = c_.children(tid);
    // Enumerate compositions of size-1 into `rank` positive parts.
    std::vector<size_t> sizes(rank, 1);
    std::function<void(size_t, size_t)> rec = [&](size_t pos,
                                                  size_t remaining) {
      if (pos == rank) {
        if (remaining != 0) return;
        double prod = 1.0;
        for (size_t i = 0; i < rank && prod > 0; ++i) {
          prod *= GetCell(kids[i], sizes[i]).estimate;
        }
        if (prod <= 0) return;
        Component comp;
        comp.transition = tid;
        comp.child_sizes = sizes;
        comp.size = prod;
        auto key = config_.group_disjoint_components
                       ? std::make_pair(c_.symbol(tid), sizes)
                       : std::make_pair(NftaSymbol{0}, std::vector<size_t>{});
        auto [git, fresh] = group_index.try_emplace(key, cell.groups.size());
        if (fresh) cell.groups.emplace_back();
        cell.groups[git->second].components.push_back(std::move(comp));
        return;
      }
      size_t max_here = remaining - (rank - pos - 1);
      for (size_t si = 1; si <= max_here; ++si) {
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
    // Left-to-right prefix sums: prefix.back() reproduces the legacy
    // accumulated `sum` bit-for-bit.
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

void NftaFpras::EvalNodeBehavior(const TreePool& pool, uint32_t node,
                                 CompiledNfta::Workspace* ws,
                                 size_t base) const {
  // Recursive bitset run over pooled nodes, same slot discipline as
  // CompiledNfta::EvalInto: result at `base`, subtree scratch above.
  size_t wps = c_.words_per_set();
  size_t rank = 0;
  for (uint32_t ch = pool.nodes[node].first_child; ch != TreePool::kNil;
       ch = pool.nodes[ch].next_sibling) {
    ++rank;
  }
  ws->EnsureSlots(base + 1 + rank, wps);
  size_t i = 0;
  for (uint32_t ch = pool.nodes[node].first_child; ch != TreePool::kNil;
       ch = pool.nodes[ch].next_sibling) {
    EvalNodeBehavior(pool, ch, ws, base + 1 + (i++));
  }
  // Child-set pointers live in the workspace scratch (allocation-free once
  // warm; safe to share across the recursion — a node only fills it after
  // its child subtrees are done, and the combine consumes it immediately).
  if (ws->child_ptrs.size() < rank) ws->child_ptrs.resize(rank);
  const uint64_t** child_ptrs = ws->child_ptrs.data();
  for (size_t j = 0; j < rank; ++j) {
    child_ptrs[j] = ws->slots.data() + (base + 1 + j) * wps;
  }
  c_.CombineBehaviors(pool.nodes[node].symbol,
                      rank == 0 ? nullptr : child_ptrs,
                      static_cast<uint32_t>(rank),
                      ws->slots.data() + base * wps);
}

int NftaFpras::MinIndexFlat(const Group& group, uint32_t root,
                            SampleCtx* ctx) const {
  const TreePool& pool = ctx->pool;
  const TreePool::Node& root_node = pool.nodes[root];
  size_t wps = c_.words_per_set();

  // Compute each child's behaviour (bitset run) and collect its cached
  // size, once per call; with grouping enabled all components share root
  // symbol and child sizes, without it the per-component checks below
  // filter mismatches.
  size_t n_children = 0;
  for (uint32_t ch = root_node.first_child; ch != TreePool::kNil;
       ch = pool.nodes[ch].next_sibling) {
    ++n_children;
  }
  // Child i's behaviour lands in slot i; slots are assigned bottom-up so
  // sibling results at lower slots survive later siblings' scratch.
  ctx->ws.EnsureSlots(n_children, wps);
  {
    size_t i = 0;
    for (uint32_t ch = root_node.first_child; ch != TreePool::kNil;
         ch = pool.nodes[ch].next_sibling) {
      EvalNodeBehavior(pool, ch, &ctx->ws, i++);
    }
  }

  for (size_t j = 0; j < group.components.size(); ++j) {
    const Component& comp = group.components[j];
    CompiledNfta::TransitionId tid = comp.transition;
    if (c_.symbol(tid) != root_node.symbol ||
        c_.rank(tid) != n_children ||
        comp.child_sizes.size() != n_children) {
      continue;
    }
    const NftaState* kids = c_.children(tid);
    bool ok = true;
    size_t i = 0;
    for (uint32_t ch = root_node.first_child; ch != TreePool::kNil;
         ch = pool.nodes[ch].next_sibling, ++i) {
      if (pool.nodes[ch].size != comp.child_sizes[i] ||
          !CompiledNfta::TestBit(ctx->ws.slots.data() + i * wps, kids[i])) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(j);
  }
  return -1;
}

uint32_t NftaFpras::SampleComponentFlat(Rng& rng, const Component& comp,
                                        SampleCtx* ctx) {
  CompiledNfta::TransitionId tid = comp.transition;
  uint32_t total = 1;
  for (size_t s : comp.child_sizes) total += static_cast<uint32_t>(s);
  uint32_t node = ctx->pool.New(c_.symbol(tid), total);
  const NftaState* kids = c_.children(tid);
  for (size_t i = 0; i < comp.child_sizes.size(); ++i) {
    uint32_t child = SampleFlat(rng, kids[i], comp.child_sizes[i], ctx);
    if (child == TreePool::kNil) return TreePool::kNil;
    ctx->pool.AddChild(node, child);
  }
  return node;
}

uint32_t NftaFpras::SampleFlat(Rng& rng, NftaState q, size_t size,
                               SampleCtx* ctx) {
  // Read-only: every cell this can touch was built by the GetCell call
  // that preceded the sampling (component construction recurses through
  // all child cells), so trial threads never mutate `cells_`.
  const Cell* cell = FindCell(q, size);
  assert(cell != nullptr && cell->computed);
  if (cell == nullptr || cell->estimate <= 0 || cell->groups.empty()) {
    return TreePool::kNil;
  }
  for (size_t attempt = 0; attempt < config_.max_rejection_attempts;
       ++attempt) {
    // Pick a group proportionally to its (union) estimate, then a component
    // proportionally to its size, then apply minimal-index rejection. One
    // uniform per pick, binary-searched over the cached prefix sums.
    double r = rng.UniformDouble() * cell->estimate;
    size_t gi = PickIndex(cell->group_prefix, r);
    const Group& g = cell->groups[gi];
    if (g.components.empty()) continue;
    double csum = g.prefix.back();
    if (csum <= 0) continue;
    double rc = rng.UniformDouble() * csum;
    size_t j = PickIndex(g.prefix, rc);
    // Reclaim rejected attempts by truncating back to the pre-attempt mark:
    // result-neutral (the nodes are garbage either way — RNG consumption
    // and the returned structure are untouched) and it keeps surviving
    // subtrees contiguous in preorder, which the batched trial sweep
    // relies on.
    size_t mark = ctx->pool.nodes.size();
    uint32_t t = SampleComponentFlat(rng, g.components[j], ctx);
    if (t == TreePool::kNil) {
      ctx->pool.Truncate(mark);
      continue;
    }
    int min_idx = MinIndexFlat(g, t, ctx);
    if (min_idx >= 0 && static_cast<size_t>(min_idx) == j) return t;
    // Rejected: t belongs to an earlier component; retry.
    ctx->pool.Truncate(mark);
  }
  // Rejection budget exhausted: return any sample (slight bias) so callers
  // always make progress on non-empty languages.
  for (const Group& g : cell->groups) {
    for (const Component& comp : g.components) {
      size_t mark = ctx->pool.nodes.size();
      uint32_t t = SampleComponentFlat(rng, comp, ctx);
      if (t != TreePool::kNil) return t;
      ctx->pool.Truncate(mark);
    }
  }
  return TreePool::kNil;
}

double NftaFpras::EstimateGroup(Group* group) {
  std::vector<Component>& comps = group->components;
  if (comps.empty()) return 0;
  double sum = group->prefix.back();
  if (comps.size() == 1 || sum <= 0) return sum;

  // Karp–Luby–Madras: estimate = sum * Pr[sampled (j, t) has j minimal].
  ++union_estimations_;
  size_t m = comps.size();
  double eps = std::max(1e-3, config_.epsilon * 0.5);
  size_t samples = static_cast<size_t>(
      std::ceil(4.0 * static_cast<double>(m) *
                std::log(4.0 / config_.delta) / (eps * eps)));
  samples = std::clamp(samples, config_.min_samples, config_.max_samples);

  // Trials are independent, so they run chunked; whatever the thread
  // count, chunk c always covers the same trials with the same RNG
  // streams, so estimates depend only on (automaton, config). Every cell a
  // trial samples from was computed while this group's components were
  // built, so the parallel section only reads `cells_`.
  uint64_t union_seed = rng_.NextU64();
  size_t chunks = (samples + kTrialChunk - 1) / kTrialChunk;
  std::vector<std::pair<size_t, size_t>> counts(chunks);  // hits, performed
  RunTrialsBatched(group, sum, samples, union_seed, &counts);

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
  // Mirrors SampleFlat pick-for-pick (same uniforms, same accept/reject
  // decisions — the cached rows are bit-identical to the recursive
  // evaluation), so estimates don't depend on which of the two builders
  // produced them. The difference is purely cost: each pooled
  // node's behaviour row is computed once (ComputeRow, on subtree
  // completion) and the min-index checks read the rows, instead of
  // re-running the recursive bitset evaluation per nesting level.
  const Cell* cell = FindCell(q, size);
  assert(cell != nullptr && cell->computed);
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
  // Rejection budget exhausted: return any sample (slight bias), same
  // fallback order as SampleFlat.
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
    Group* group, double sum, size_t samples, uint64_t union_seed,
    std::vector<std::pair<size_t, size_t>>* counts) {
  // One Rng stream per trial, chunks evaluated in lockstep phases. The
  // builds cache one behaviour row per pooled node (computed in post-order
  // as subtrees complete; truncation reclaims rejected attempts), so the
  // min-index checks — nested and top-level — read rows instead of
  // re-evaluating subtrees.
  std::vector<Component>& comps = group->components;
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
      ctx.rngs.push_back(Rng::Stream(union_seed, begin + i));
      double r = ctx.rngs.back().UniformDouble() * sum;
      ctx.picks[i] = static_cast<uint32_t>(PickIndex(group->prefix, r));
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
      int min_idx = MinIndexBatched(*group, ctx.roots[i], ctx);
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
  GetCell(q, size);  // builds every reachable cell (serial)
  sample_ctx_.pool.Clear();
  uint32_t root = SampleFlat(rng, q, size, &sample_ctx_);
  if (root == TreePool::kNil) return std::nullopt;
  // Materialize the winner only (trial rejects never touch the heap).
  std::function<LabeledTree(uint32_t)> build =
      [&](uint32_t n) -> LabeledTree {
    LabeledTree out(sample_ctx_.pool.nodes[n].symbol);
    for (uint32_t ch = sample_ctx_.pool.nodes[n].first_child;
         ch != TreePool::kNil; ch = sample_ctx_.pool.nodes[ch].next_sibling) {
      out.children.push_back(build(ch));
    }
    return out;
  };
  return build(root);
}

double NftaFpras::EstimateFrom(NftaState q, size_t size) {
  return GetCell(q, size).estimate;
}

double NftaFpras::EstimateExactSize(size_t size) {
  if (nfta_.initial() == kNoNftaState) return 0;
  return EstimateFrom(nfta_.initial(), size);
}

double NftaFpras::EstimateUpTo(size_t max_size) {
  double total = 0;
  for (size_t s = 1; s <= max_size; ++s) total += EstimateExactSize(s);
  return total;
}

}  // namespace uocqa
