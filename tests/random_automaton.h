// A seeded random NFTA generator shared by the automaton test suites.

#ifndef UOCQA_TESTS_RANDOM_AUTOMATON_H_
#define UOCQA_TESTS_RANDOM_AUTOMATON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "automata/nfta.h"
#include "base/rng.h"

namespace uocqa {

/// 2..max_states states, 1..3 symbols, 4..max_transitions transitions of
/// rank 0..3; initial state 0.
inline Nfta RandomAutomaton(uint64_t seed, size_t max_states = 5,
                            size_t max_transitions = 13) {
  Rng rng(seed);
  Nfta a;
  size_t n_states = 2 + rng.UniformIndex(max_states - 1);
  size_t n_symbols = 1 + rng.UniformIndex(3);
  for (size_t i = 0; i < n_states; ++i) a.AddState();
  for (size_t s = 0; s < n_symbols; ++s) {
    a.InternSymbol("s" + std::to_string(s));
  }
  size_t n_transitions = 4 + rng.UniformIndex(max_transitions - 3);
  for (size_t i = 0; i < n_transitions; ++i) {
    NftaState from = static_cast<NftaState>(rng.UniformIndex(n_states));
    NftaSymbol sym = static_cast<NftaSymbol>(rng.UniformIndex(n_symbols));
    size_t rank = rng.UniformIndex(4);  // 0..3
    std::vector<NftaState> children;
    for (size_t r = 0; r < rank; ++r) {
      children.push_back(static_cast<NftaState>(rng.UniformIndex(n_states)));
    }
    a.AddTransition(from, sym, std::move(children));
  }
  a.SetInitial(0);
  return a;
}

}  // namespace uocqa

#endif  // UOCQA_TESTS_RANDOM_AUTOMATON_H_
