// R-tree (Guttman 1984, the paper's reference [1]) — the "by size and
// location" indexing family the paper contrasts with relation-based
// indexing. We use it as a spatial access path: window queries over all
// icon MBRs in the database ("images with some icon inside this region")
// complement the relation-based BE-string scoring.
//
// Quadratic-split insertion, overlap window search; M = 8 entries per node,
// m = 3 minimum fill. Deletion is not needed by any experiment and is
// intentionally out of scope.
//
// Every entry carries a symbol-signature bitmap (a 64-bit Bloom-style mask,
// see spatial_index::signature_of): internal entries hold the OR of their
// subtree's leaf signatures, maintained through inserts and splits, so a
// fused search can prune a whole subtree the moment its window does not
// overlap OR its signature shares no bit with the query — the hybrid
// spatial-visual traversal of "Hybrid Indexes to Expedite Spatial-Visual
// Search" (PAPERS.md). Signatures never steer choose_leaf or split, so the
// tree's shape depends on the boxes alone.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/rect.hpp"

namespace bes {

class rtree {
 public:
  using payload_t = std::uint64_t;
  // Symbol-signature bitmap: bit (symbol % 64). A superset filter — a clear
  // bit proves absence, a set bit may collide — so signature pruning alone
  // admits false positives that an exact check downstream removes.
  using signature_t = std::uint64_t;

  // One predicate of a fused search: a window AND a signature mask that a
  // matching entry must overlap/intersect simultaneously.
  struct fused_probe {
    rect window;
    signature_t mask = 0;
  };

  // Traversal accounting for fused searches (access_path_stats).
  struct fused_stats {
    std::size_t nodes_visited = 0;  // nodes popped off the traversal stack
  };

  rtree() = default;

  // Inserts a box with its payload. Boxes may duplicate and overlap freely.
  // Throws std::invalid_argument on an invalid box. `sig` is the entry's
  // symbol signature, OR-ed into every ancestor on the way down; an entry
  // with sig 0 is invisible to search_fused.
  void insert(const rect& box, payload_t payload, signature_t sig);

  // Payloads of all entries whose box overlaps `window` (shares at least
  // one point), in unspecified order.
  [[nodiscard]] std::vector<payload_t> search(const rect& window) const;

  // Payloads of all entries whose box is fully contained in `window`.
  [[nodiscard]] std::vector<payload_t> search_contained(
      const rect& window) const;

  // Payloads of all leaf entries matched by at least one probe: the entry's
  // box overlaps the probe window AND its signature intersects the probe
  // mask. ONE traversal serves every probe: a subtree is descended only
  // while some probe passes both predicates against its entry, so spatial
  // and signature pruning compound instead of intersecting two full
  // candidate lists after the fact. Order unspecified; duplicates possible
  // only if duplicate boxes were inserted.
  [[nodiscard]] std::vector<payload_t> search_fused(
      std::span<const fused_probe> probes, fused_stats* stats = nullptr) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] int height() const noexcept;  // 0 for empty tree

  // Structural invariants (node fills, parent MBR coverage, parent
  // signature coverage); used by tests.
  [[nodiscard]] bool check_invariants() const;

  static constexpr std::size_t max_entries = 8;
  static constexpr std::size_t min_entries = 3;

 private:
  struct node;
  struct entry {
    rect box;
    payload_t payload = 0;           // leaf entries
    signature_t sig = 0;             // leaf: own bit; internal: OR of subtree
    std::unique_ptr<node> child;     // internal entries
  };
  struct node {
    bool leaf = true;
    std::vector<entry> entries;
  };

  static rect bounds_of(const node& n) noexcept;
  static signature_t sig_of(const node& n) noexcept;
  static long long enlargement(const rect& current, const rect& extra) noexcept;
  node* choose_leaf(node* from, const rect& box, signature_t sig,
                    std::vector<node*>& path);
  static std::unique_ptr<node> split(node& full);
  void insert_entry(entry e);

  std::unique_ptr<node> root_;
  std::size_t size_ = 0;
  int height_ = 0;
};

}  // namespace bes
