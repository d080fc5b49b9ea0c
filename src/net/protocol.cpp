#include "net/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "geometry/dihedral.hpp"

namespace bes::net {

namespace {

// Token wire form (u32): the dummy token is all-ones; a boundary token is
// (symbol << 1) | kind. Symbols therefore must fit 31 bits, which every
// real alphabet does by ~nine orders of magnitude.
constexpr std::uint32_t wire_dummy = 0xFFFFFFFFu;
constexpr std::uint32_t max_wire_symbol = 0x7FFFFFFEu;

std::uint32_t encode_token(token t) {
  if (t.is_dummy()) return wire_dummy;
  if (t.symbol() > max_wire_symbol) {
    throw frame_error("protocol: symbol id too large for wire");
  }
  return (t.symbol() << 1) |
         static_cast<std::uint32_t>(t.kind() == boundary_kind::end ? 1 : 0);
}

token decode_token(std::uint32_t raw) {
  if (raw == wire_dummy) return token::dummy();
  return token::boundary(raw >> 1, (raw & 1) != 0 ? boundary_kind::end
                                                  : boundary_kind::begin);
}

[[noreturn]] void reject(const char* what) {
  throw frame_error(std::string("protocol: ") + what);
}

void expect_type(const frame& f, frame_type t) {
  if (f.type != t) {
    reject("frame type mismatch");
  }
}

}  // namespace

std::string_view to_string(query_status status) noexcept {
  switch (status) {
    case query_status::ok: return "ok";
    case query_status::expired: return "expired";
    case query_status::failed: return "failed";
    case query_status::rejected: return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// payload_writer

void payload_writer::u8(std::uint8_t v) { buf_.push_back(v); }

void payload_writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void payload_writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void payload_writer::f64(double v) {
  u64(std::bit_cast<std::uint64_t>(v));
}

void payload_writer::str(const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    reject("string too long");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void payload_writer::tokens(const std::vector<token>& ts) {
  u32(static_cast<std::uint32_t>(ts.size()));
  for (token t : ts) u32(encode_token(t));
}

void payload_writer::symbol_ids(const std::vector<symbol_id>& ids) {
  u32(static_cast<std::uint32_t>(ids.size()));
  for (symbol_id id : ids) u32(id);
}

// ---------------------------------------------------------------------------
// payload_reader

void payload_reader::need(std::size_t n) const {
  if (size_ - pos_ < n) reject("truncated payload");
}

std::uint8_t payload_reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t payload_reader::u32() {
  need(4);
  const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                          (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return v;
}

std::uint64_t payload_reader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double payload_reader::f64() { return std::bit_cast<double>(u64()); }

std::string payload_reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<token> payload_reader::tokens(std::size_t max_count) {
  const std::uint32_t n = u32();
  if (n > max_count) reject("token list too long");
  // 4 bytes per token must still fit in what remains — checked up front so a
  // corrupt count cannot drive a huge reserve.
  need(static_cast<std::size_t>(n) * 4);
  std::vector<token> ts;
  ts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ts.push_back(decode_token(u32()));
  return ts;
}

std::vector<symbol_id> payload_reader::symbol_ids() {
  const std::uint32_t n = u32();
  need(static_cast<std::size_t>(n) * 4);
  std::vector<symbol_id> ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.push_back(u32());
  return ids;
}

void payload_reader::expect_end() const {
  if (pos_ != size_) reject("trailing bytes in payload");
}

// ---------------------------------------------------------------------------
// Encoders

frame encode(const hello_msg& m) {
  payload_writer w;
  w.u32(m.magic);
  w.u32(m.version);
  return {frame_type::hello, std::move(w).take()};
}

frame encode(const hello_ok_msg& m) {
  payload_writer w;
  w.u32(m.version);
  w.u32(m.shard);
  w.u64(m.images);
  w.u64(m.symbols);
  return {frame_type::hello_ok, std::move(w).take()};
}

namespace {

void write_options(payload_writer& w, const query_options& o) {
  w.u64(o.top_k);
  w.f64(o.min_score);
  w.u8(o.transform_invariant ? 1 : 0);
  w.u8(o.use_index ? 1 : 0);
  w.u8(o.histogram_pruning ? 1 : 0);
  w.u32(o.threads);
  w.u8(static_cast<std::uint8_t>(o.similarity.norm));
  w.u8(o.similarity.exact_lcs ? 1 : 0);
}

bool read_flag(payload_reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) reject("flag byte out of range");
  return v != 0;
}

query_options read_options(payload_reader& r) {
  query_options o;
  o.top_k = r.u64();
  o.min_score = r.f64();
  o.transform_invariant = read_flag(r);
  o.use_index = read_flag(r);
  o.histogram_pruning = read_flag(r);
  o.threads = r.u32();
  const std::uint8_t norm = r.u8();
  try {
    o.similarity.norm = checked_norm_kind(norm);
  } catch (const std::invalid_argument&) {
    reject("norm_kind out of range");
  }
  o.similarity.exact_lcs = read_flag(r);
  return o;
}

}  // namespace

frame encode(const query_msg& m) {
  if (m.query.x.size() > max_query_axis_tokens ||
      m.query.y.size() > max_query_axis_tokens) {
    reject("query axis too long for wire");
  }
  payload_writer w;
  w.u64(m.query_id);
  w.u32(m.deadline_ms);
  w.f64(m.floor);
  write_options(w, m.options);
  w.tokens(m.query.x.tokens());
  w.tokens(m.query.y.tokens());
  w.symbol_ids(m.query_symbols);
  return {frame_type::query, std::move(w).take()};
}

frame encode(const threshold_msg& m) {
  payload_writer w;
  w.u64(m.query_id);
  w.f64(m.floor);
  return {frame_type::threshold, std::move(w).take()};
}

frame encode(const cancel_msg& m) {
  payload_writer w;
  w.u64(m.query_id);
  return {frame_type::cancel, std::move(w).take()};
}

frame encode(const result_msg& m) {
  payload_writer w;
  w.u64(m.query_id);
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u32(static_cast<std::uint32_t>(m.results.size()));
  for (const query_result& r : m.results) {
    w.u32(r.id);
    w.f64(r.score);
    w.u8(static_cast<std::uint8_t>(r.transform));
  }
  w.u64(m.stats.scanned);
  w.u64(m.stats.scored);
  w.u64(m.stats.pruned);
  w.u64(m.stats.band_rejected);
  w.u64(m.stats.candidates_generated);
  return {frame_type::result, std::move(w).take()};
}

frame encode(const error_msg& m) {
  payload_writer w;
  w.u64(m.query_id);
  w.str(m.message);
  return {frame_type::error, std::move(w).take()};
}

frame encode(const symbols_msg& m) {
  payload_writer w;
  w.u32(static_cast<std::uint32_t>(m.names.size()));
  for (const std::string& name : m.names) w.str(name);
  return {frame_type::symbols, std::move(w).take()};
}

// ---------------------------------------------------------------------------
// Decoders

hello_msg decode_hello(const frame& f) {
  expect_type(f, frame_type::hello);
  payload_reader r(f.payload);
  hello_msg m;
  m.magic = r.u32();
  m.version = r.u32();
  r.expect_end();
  if (m.magic != protocol_magic) reject("bad magic");
  return m;
}

hello_ok_msg decode_hello_ok(const frame& f) {
  expect_type(f, frame_type::hello_ok);
  payload_reader r(f.payload);
  hello_ok_msg m;
  m.version = r.u32();
  m.shard = r.u32();
  m.images = r.u64();
  m.symbols = r.u64();
  r.expect_end();
  return m;
}

query_msg decode_query(const frame& f) {
  expect_type(f, frame_type::query);
  payload_reader r(f.payload);
  query_msg m;
  m.query_id = r.u64();
  m.deadline_ms = r.u32();
  m.floor = r.f64();
  m.options = read_options(r);
  m.query.x = axis_string(r.tokens(max_query_axis_tokens));
  m.query.y = axis_string(r.tokens(max_query_axis_tokens));
  m.query_symbols = r.symbol_ids();
  r.expect_end();
  return m;
}

threshold_msg decode_threshold(const frame& f) {
  expect_type(f, frame_type::threshold);
  payload_reader r(f.payload);
  threshold_msg m;
  m.query_id = r.u64();
  m.floor = r.f64();
  r.expect_end();
  return m;
}

cancel_msg decode_cancel(const frame& f) {
  expect_type(f, frame_type::cancel);
  payload_reader r(f.payload);
  cancel_msg m;
  m.query_id = r.u64();
  r.expect_end();
  return m;
}

result_msg decode_result(const frame& f) {
  expect_type(f, frame_type::result);
  payload_reader r(f.payload);
  result_msg m;
  m.query_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(query_status::rejected)) {
    reject("query_status out of range");
  }
  m.status = static_cast<query_status>(status);
  const std::uint32_t count = r.u32();
  m.results.reserve(std::min<std::uint32_t>(count, 1u << 20));
  for (std::uint32_t i = 0; i < count; ++i) {
    query_result qr;
    qr.id = r.u32();
    qr.score = r.f64();
    const std::uint8_t d = r.u8();
    if (d >= all_dihedral.size()) reject("dihedral out of range");
    qr.transform = static_cast<dihedral>(d);
    m.results.push_back(qr);
  }
  m.stats.scanned = r.u64();
  m.stats.scored = r.u64();
  m.stats.pruned = r.u64();
  m.stats.band_rejected = r.u64();
  m.stats.candidates_generated = r.u64();
  r.expect_end();
  return m;
}

error_msg decode_error(const frame& f) {
  expect_type(f, frame_type::error);
  payload_reader r(f.payload);
  error_msg m;
  m.query_id = r.u64();
  m.message = r.str();
  r.expect_end();
  return m;
}

symbols_msg decode_symbols(const frame& f) {
  expect_type(f, frame_type::symbols);
  payload_reader r(f.payload);
  symbols_msg m;
  const std::uint32_t count = r.u32();
  m.names.reserve(std::min<std::uint32_t>(count, 1u << 20));
  for (std::uint32_t i = 0; i < count; ++i) m.names.push_back(r.str());
  r.expect_end();
  return m;
}

}  // namespace bes::net
