#include "db/inverted_index.hpp"

#include <algorithm>

namespace bes {

void inverted_index::add(std::uint32_t id, std::span<const symbol_id> symbols) {
  // Phase 1 — all allocations: create missing lists and grow full ones.
  // Anything thrown here leaves only empty lists / spare capacity behind,
  // never a posting for `id`.
  for (symbol_id s : symbols) {
    auto& list = lists_[s];
    if (list.size() == list.capacity()) {
      list.reserve(list.empty() ? 4 : 2 * list.size());
    }
  }
  // Phase 2 — no-throw appends into reserved capacity.
  for (symbol_id s : symbols) {
    auto& list = lists_[s];
    if (list.empty() || list.back() != id) list.push_back(id);
  }
}

std::vector<std::uint32_t> inverted_index::lookup_any(
    std::span<const symbol_id> symbols, std::uint32_t lo, std::uint32_t hi,
    std::size_t* hits) const {
  std::vector<std::uint32_t> out;
  for (symbol_id s : symbols) {
    auto it = lists_.find(s);
    if (it == lists_.end()) continue;
    const std::vector<std::uint32_t>& list = it->second;
    const auto first = std::lower_bound(list.begin(), list.end(), lo);
    const auto last = std::lower_bound(first, list.end(), hi);
    out.insert(out.end(), first, last);
  }
  if (hits != nullptr) *hits = out.size();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t inverted_index::postings(symbol_id symbol) const noexcept {
  auto it = lists_.find(symbol);
  return it == lists_.end() ? 0 : it->second.size();
}

}  // namespace bes
