#include "db/database.hpp"

#include <algorithm>
#include <stdexcept>

namespace bes {

std::vector<symbol_id> distinct_symbols(const symbolic_image& image) {
  std::vector<symbol_id> out;
  out.reserve(image.size());
  for (const icon& obj : image.icons()) out.push_back(obj.symbol);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ------------------------------------------------------------- db_snapshot

bool db_snapshot::alive(image_id id) const noexcept {
  if (id >= visible) return false;
  const std::uint64_t removed = db->removed_epoch(id);
  return removed == 0 || removed > epoch;
}

bool db_snapshot::all_live() const noexcept {
  return db->tombstone_count() == 0 && visible >= db->size();
}

// ----------------------------------------------------------- image_database

image_id image_database::add(std::string name, symbolic_image image) {
  be_string2d strings = encode(image);
  return add_encoded(std::move(name), std::move(image), std::move(strings));
}

image_id image_database::add_encoded(std::string name, symbolic_image image,
                                     be_string2d strings) {
  be_histogram2d histograms = make_histograms(strings);
  return add_encoded(std::move(name), std::move(image), std::move(strings),
                     std::move(histograms));
}

image_id image_database::add_encoded(std::string name, symbolic_image image,
                                     be_string2d strings,
                                     be_histogram2d histograms) {
  // Validate before any mutation: a rejected record must leave no trace.
  for (const icon& obj : image.icons()) {
    if (obj.symbol >= alphabet_.size()) {
      throw std::invalid_argument(
          "image_database: icon references un-interned symbol " +
          std::to_string(obj.symbol));
    }
  }
  const std::vector<symbol_id> symbols = distinct_symbols(image);

  std::lock_guard lock(ingest_->write_mutex);
  const auto id = static_cast<image_id>(records_.size());
  // Stage the record first, index it second, publish last: if the index
  // update throws, the staged record is never published (the next add
  // overwrites the slot) — no phantom posting can outlive a failed add, and
  // a scan racing this add sees either nothing or the fully indexed record.
  records_.stage(db_record{id, std::move(name), std::move(image),
                           std::move(strings), std::move(histograms)});
  {
    std::unique_lock index_lock(ingest_->index_mutex);
    index_.add(id, symbols);
  }
  records_.commit();
  return id;
}

bool image_database::remove(image_id id) {
  std::lock_guard lock(ingest_->write_mutex);
  if (id >= records_.size()) return false;
  std::atomic_ref<std::uint64_t> mark(records_.mutable_ref(id).removed_at);
  if (mark.load(std::memory_order_relaxed) != 0) return false;
  const std::uint64_t removal =
      ingest_->epoch.load(std::memory_order_relaxed) + 1;
  mark.store(removal, std::memory_order_release);
  ingest_->tombstones.fetch_add(1, std::memory_order_release);
  // Epoch publishes last: a snapshot that reads this epoch sees the mark.
  ingest_->epoch.store(removal, std::memory_order_release);
  return true;
}

db_snapshot image_database::snapshot() const noexcept {
  db_snapshot snap;
  snap.db = this;
  // Watermark before epoch: a removal landing between the two loads targets
  // either a visible record (its epoch <= snap.epoch applies cleanly) or an
  // unpublished one (invisible anyway) — every interleaving is a consistent
  // cut.
  snap.visible = records_.size();
  snap.epoch = ingest_->epoch.load(std::memory_order_acquire);
  return snap;
}

std::uint64_t image_database::removed_epoch(image_id id) const noexcept {
  if (id >= records_.size()) return 0;
  // const_cast is confined here: atomic_ref needs a mutable lvalue, and the
  // field is only ever written under the write mutex.
  auto& rec = const_cast<db_record&>(records_[id]);
  return std::atomic_ref<std::uint64_t>(rec.removed_at)
      .load(std::memory_order_acquire);
}

const db_record& image_database::record(image_id id) const {
  if (id >= records_.size()) {
    throw std::out_of_range("image_database: unknown id " + std::to_string(id));
  }
  return records_[id];
}

std::vector<image_id> image_database::candidates(
    std::span<const symbol_id> query_symbols, id_range range,
    std::size_t* generated) const {
  std::shared_lock lock(ingest_->index_mutex);
  return index_.lookup_any(query_symbols, range.lo, range.hi, generated);
}

std::vector<image_id> image_database::candidates(
    const symbolic_image& query) const {
  const auto symbols = distinct_symbols(query);
  return candidates(symbols);
}

std::size_t image_database::postings(symbol_id symbol) const {
  std::shared_lock lock(ingest_->index_mutex);
  return index_.postings(symbol);
}

}  // namespace bes
