// The wire-format suite: frame round-trips over a real loopback socket,
// then the corruption battery — every flipped header byte, a flipped
// payload byte, truncation at each boundary, oversized declared lengths,
// and unknown frame types must surface as frame_error/net_error, never as
// a hang, a crash, or a silently-misread frame. The protocol codec half
// round-trips every message struct and rejects malformed payloads.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/be_string.hpp"
#include "core/token.hpp"
#include "geometry/dihedral.hpp"
#include "net/framing.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/checksum.hpp"

namespace bes::net {
namespace {

// A connected loopback socket pair: `a` is the connecting side, `b` the
// accepted side. Accept runs on the listener after connect is in flight
// (loopback connects complete against the backlog, so this never blocks).
struct socket_pair {
  tcp_socket a;
  tcp_socket b;
};

socket_pair make_pair() {
  tcp_listener listener(0);
  socket_pair pair;
  pair.a = tcp_socket::connect("127.0.0.1", listener.port(), 2000);
  pair.b = listener.accept(2000);
  EXPECT_TRUE(pair.a.valid());
  EXPECT_TRUE(pair.b.valid());
  return pair;
}

net_time soon() { return deadline_in(5000); }

// ------------------------------------------------------------- frame I/O

TEST(Framing, RoundTripsFramesBackToBack) {
  socket_pair pair = make_pair();
  const frame ping{frame_type::ping, {}};
  const frame err{frame_type::error, {1, 2, 3, 4, 250, 0}};
  write_frame(pair.a, ping);
  write_frame(pair.a, err);

  const auto got1 = read_frame(pair.b, soon());
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(got1->type, frame_type::ping);
  EXPECT_TRUE(got1->payload.empty());

  const auto got2 = read_frame(pair.b, soon());
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->type, frame_type::error);
  EXPECT_EQ(got2->payload, err.payload);
}

TEST(Framing, CleanCloseOnFrameBoundaryIsNullopt) {
  socket_pair pair = make_pair();
  write_frame(pair.a, frame{frame_type::pong, {9}});
  pair.a.close();
  const auto got = read_frame(pair.b, soon());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, frame_type::pong);
  EXPECT_FALSE(read_frame(pair.b, soon()).has_value());
}

TEST(Framing, EveryFlippedHeaderByteIsRejected) {
  // The header carries its own CRC over bytes [0, 12); flipping any of the
  // 16 bytes must break either that CRC or the CRC field itself — the
  // declared length is never trusted from a damaged header.
  const std::vector<std::uint8_t> good =
      encode_frame(frame{frame_type::ping, {42}});
  ASSERT_GE(good.size(), frame_header_bytes);
  for (std::size_t i = 0; i < frame_header_bytes; ++i) {
    socket_pair pair = make_pair();
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x20;
    pair.a.send_all(bad.data(), bad.size());
    EXPECT_THROW((void)read_frame(pair.b, soon()), frame_error)
        << "header byte " << i;
  }
}

TEST(Framing, EveryFlippedPayloadByteIsRejected) {
  const frame f{frame_type::error, {0x10, 0x20, 0x30, 0x40, 0x50}};
  const std::vector<std::uint8_t> good = encode_frame(f);
  for (std::size_t i = frame_header_bytes; i < good.size(); ++i) {
    socket_pair pair = make_pair();
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    pair.a.send_all(bad.data(), bad.size());
    EXPECT_THROW((void)read_frame(pair.b, soon()), frame_error)
        << "payload byte " << (i - frame_header_bytes);
  }
}

TEST(Framing, TruncationAtEveryBoundaryIsAnError) {
  // A peer dying mid-frame is an I/O failure (net_error), not a clean
  // close: truncate after 1 header byte, mid-header, after the full header,
  // and mid-payload.
  const std::vector<std::uint8_t> good =
      encode_frame(frame{frame_type::error, {1, 2, 3, 4}});
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{8}, frame_header_bytes,
        frame_header_bytes + 2}) {
    socket_pair pair = make_pair();
    pair.a.send_all(good.data(), keep);
    pair.a.close();
    EXPECT_THROW((void)read_frame(pair.b, soon()), net_error)
        << "kept " << keep << " bytes";
  }
}

TEST(Framing, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  // A CRC-valid header may still declare a payload beyond the cap (a
  // hostile peer, or skewed limits). read_frame must throw on the header
  // alone — no payload bytes are ever sent here, so a non-throwing path
  // would block forever instead.
  const frame big{frame_type::symbols,
                  std::vector<std::uint8_t>(1024, 0xAB)};
  const std::vector<std::uint8_t> wire = encode_frame(big);
  socket_pair pair = make_pair();
  pair.a.send_all(wire.data(), frame_header_bytes);
  EXPECT_THROW((void)read_frame(pair.b, soon(), /*max_payload=*/512),
               frame_error);
}

TEST(Framing, UnknownFrameTypeIsRejected) {
  EXPECT_FALSE(known_frame_type(0));
  EXPECT_FALSE(known_frame_type(999));
  EXPECT_TRUE(known_frame_type(static_cast<std::uint32_t>(frame_type::hello)));
  EXPECT_TRUE(
      known_frame_type(static_cast<std::uint32_t>(frame_type::symbols)));

  // Hand-build a frame with type 999 and valid CRCs: the framing layer must
  // reject it even though every checksum passes.
  std::vector<std::uint8_t> wire = encode_frame(frame{frame_type::ping, {}});
  const std::uint32_t bogus_type = 999;
  std::memcpy(wire.data(), &bogus_type, 4);
  const std::uint32_t header_crc = crc32(wire.data(), 12);
  std::memcpy(wire.data() + 12, &header_crc, 4);
  socket_pair pair = make_pair();
  pair.a.send_all(wire.data(), wire.size());
  EXPECT_THROW((void)read_frame(pair.b, soon()), frame_error);
}

TEST(Framing, ReadHonorsDeadline) {
  socket_pair pair = make_pair();
  const net_time deadline = deadline_in(80);
  EXPECT_THROW((void)read_frame(pair.b, deadline), net_error);
  // The failed read must not have consumed anything it shouldn't: a frame
  // sent afterwards still parses.
  write_frame(pair.a, frame{frame_type::ping, {}});
  const auto got = read_frame(pair.b, soon());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, frame_type::ping);
}

// -------------------------------------------------------- protocol codec

be_string2d tiny_query() {
  be_string2d s;
  s.x = axis_string({token::boundary(0, boundary_kind::begin), token::dummy(),
                     token::boundary(0, boundary_kind::end)});
  s.y = axis_string({token::boundary(1, boundary_kind::begin),
                     token::boundary(1, boundary_kind::end)});
  return s;
}

TEST(Protocol, HelloRoundTrip) {
  const hello_msg m;
  const hello_msg back = decode_hello(encode(m));
  EXPECT_EQ(back.magic, protocol_magic);
  EXPECT_EQ(back.version, protocol_version);

  hello_msg wrong;
  wrong.magic = 0xDEADBEEF;
  EXPECT_THROW((void)decode_hello(encode(wrong)), frame_error);
}

TEST(Protocol, HelloOkRoundTrip) {
  hello_ok_msg m;
  m.shard = 7;
  m.images = 123456789012345ull;
  m.symbols = 42;
  const hello_ok_msg back = decode_hello_ok(encode(m));
  EXPECT_EQ(back.version, m.version);
  EXPECT_EQ(back.shard, m.shard);
  EXPECT_EQ(back.images, m.images);
  EXPECT_EQ(back.symbols, m.symbols);
}

TEST(Protocol, QueryRoundTripPreservesEveryOption) {
  query_msg m;
  m.query_id = 0x1122334455667788ull;
  m.deadline_ms = 1500;
  m.floor = 0.625;
  m.options.top_k = 5;
  m.options.min_score = 0.25;
  m.options.transform_invariant = true;
  m.options.use_index = false;
  m.options.histogram_pruning = true;
  m.options.threads = 3;
  m.options.similarity.exact_lcs = true;
  m.query = tiny_query();
  m.query_symbols = {0, 1, 99};

  const query_msg back = decode_query(encode(m));
  EXPECT_EQ(back.query_id, m.query_id);
  EXPECT_EQ(back.deadline_ms, m.deadline_ms);
  EXPECT_EQ(back.floor, m.floor);
  EXPECT_EQ(back.options.top_k, m.options.top_k);
  EXPECT_EQ(back.options.min_score, m.options.min_score);
  EXPECT_EQ(back.options.transform_invariant, m.options.transform_invariant);
  EXPECT_EQ(back.options.use_index, m.options.use_index);
  EXPECT_EQ(back.options.histogram_pruning, m.options.histogram_pruning);
  EXPECT_EQ(back.options.threads, m.options.threads);
  EXPECT_EQ(back.options.similarity.exact_lcs, m.options.similarity.exact_lcs);
  EXPECT_EQ(back.query.x, m.query.x);
  EXPECT_EQ(back.query.y, m.query.y);
  EXPECT_EQ(back.query_symbols, m.query_symbols);
}

TEST(Protocol, ThresholdCancelRoundTrip) {
  threshold_msg t;
  t.query_id = 31;
  t.floor = 0.875;
  const threshold_msg tb = decode_threshold(encode(t));
  EXPECT_EQ(tb.query_id, t.query_id);
  EXPECT_EQ(tb.floor, t.floor);

  cancel_msg c;
  c.query_id = 32;
  EXPECT_EQ(decode_cancel(encode(c)).query_id, c.query_id);
}

TEST(Protocol, ResultRoundTripPreservesResultsAndStats) {
  result_msg m;
  m.query_id = 77;
  m.status = query_status::expired;
  m.results.push_back({3, 1.0, dihedral::identity});
  m.results.push_back({9, 0.5, dihedral::rot180});
  m.results.push_back({1, 0.25, dihedral::transpose});
  m.stats.scanned = 100;
  m.stats.scored = 60;
  m.stats.pruned = 40;
  m.stats.band_rejected = 11;
  m.stats.candidates_generated = 140;

  const result_msg back = decode_result(encode(m));
  EXPECT_EQ(back.query_id, m.query_id);
  EXPECT_EQ(back.status, m.status);
  EXPECT_EQ(back.results, m.results);
  EXPECT_EQ(back.stats.scanned, m.stats.scanned);
  EXPECT_EQ(back.stats.scored, m.stats.scored);
  EXPECT_EQ(back.stats.pruned, m.stats.pruned);
  EXPECT_EQ(back.stats.band_rejected, m.stats.band_rejected);
  EXPECT_EQ(back.stats.candidates_generated, m.stats.candidates_generated);
}

TEST(Protocol, ErrorAndSymbolsRoundTrip) {
  error_msg e;
  e.query_id = 5;
  e.message = "shard on fire";
  const error_msg eb = decode_error(encode(e));
  EXPECT_EQ(eb.query_id, e.query_id);
  EXPECT_EQ(eb.message, e.message);

  symbols_msg s;
  s.names = {"A", "B", "road", "house"};
  EXPECT_EQ(decode_symbols(encode(s)).names, s.names);
}

TEST(Protocol, DecodersRejectWrongFrameType) {
  const frame f = encode(cancel_msg{4});
  EXPECT_THROW((void)decode_threshold(f), frame_error);
  EXPECT_THROW((void)decode_result(f), frame_error);
  EXPECT_THROW((void)decode_hello(f), frame_error);
}

TEST(Protocol, TrailingBytesAreRejected) {
  frame f = encode(cancel_msg{4});
  f.payload.push_back(0);
  EXPECT_THROW((void)decode_cancel(f), frame_error);
}

TEST(Protocol, TruncatedPayloadsAreRejected) {
  // Every proper prefix of a valid query payload must decode to an error,
  // never to a silently-short message.
  query_msg m;
  m.query = tiny_query();
  m.query_symbols = {0, 1};
  const frame full = encode(m);
  for (std::size_t keep = 0; keep < full.payload.size(); ++keep) {
    frame cut{full.type,
              {full.payload.begin(),
               full.payload.begin() + static_cast<std::ptrdiff_t>(keep)}};
    EXPECT_THROW((void)decode_query(cut), frame_error) << "kept " << keep;
  }
}

TEST(Protocol, OutOfRangeEnumsAreRejected) {
  // Flag byte > 1 (transform_invariant lives right after top_k + min_score).
  {
    frame f = encode(query_msg{});
    f.payload[8 + 4 + 8 + 8 + 8] = 2;
    EXPECT_THROW((void)decode_query(f), frame_error);
  }
  // status byte > rejected, and a dihedral byte >= 8.
  {
    result_msg m;
    m.results = {{1, 1.0, dihedral::identity}};
    frame f = encode(m);
    f.payload[8] = 4;  // status
    EXPECT_THROW((void)decode_result(f), frame_error);
  }
  {
    result_msg m;
    m.results = {{1, 1.0, dihedral::identity}};
    frame f = encode(m);
    f.payload[8 + 1 + 4 + 4 + 8] = 8;  // the one result's dihedral
    EXPECT_THROW((void)decode_result(f), frame_error);
  }
}

TEST(Protocol, CorruptCollectionCountsAreRejectedNotAllocated) {
  // A huge token count with no bytes behind it must fail the up-front
  // bounds check instead of driving a giant reserve.
  payload_writer w;
  w.u32(0xFFFFFFF0u);
  const std::vector<std::uint8_t> payload = std::move(w).take();
  payload_reader r(payload);
  EXPECT_THROW((void)r.tokens(), frame_error);
  payload_reader r2(payload);
  EXPECT_THROW((void)r2.symbol_ids(), frame_error);
}

// A query frame whose x or y axis carries `tokens` dummy tokens. encode()
// refuses an axis past max_query_axis_tokens, so a longer one is spliced
// into a valid encoding by hand, as a broken or hostile peer would send it.
frame query_with_axis_tokens(bool y_axis, std::uint32_t tokens) {
  const std::vector<token> full(max_query_axis_tokens, token::dummy());
  query_msg m;
  (y_axis ? m.query.y : m.query.x) = axis_string(full);
  frame f = encode(m);
  // The payload ends: x count + tokens, y count + tokens, symbol count (0).
  const std::size_t axis_end = f.payload.size() - 4 - (y_axis ? 0 : 4);
  const std::size_t count_at = axis_end - 4 * full.size() - 4;
  f.payload.insert(f.payload.begin() + static_cast<std::ptrdiff_t>(axis_end),
                   4 * (tokens - full.size()), 0xFF);
  for (std::size_t b = 0; b < 4; ++b) {
    f.payload[count_at + b] = static_cast<std::uint8_t>(tokens >> (8 * b));
  }
  return f;
}

TEST(Protocol, QueryAxisPastTheCapIsRejected) {
  const auto cap = static_cast<std::uint32_t>(max_query_axis_tokens);
  const axis_string over_cap{std::vector<token>(cap + 1, token::dummy())};
  for (const bool y_axis : {false, true}) {
    const query_msg at_cap = decode_query(query_with_axis_tokens(y_axis, cap));
    EXPECT_EQ((y_axis ? at_cap.query.y : at_cap.query.x).size(), cap);
    EXPECT_THROW((void)decode_query(query_with_axis_tokens(y_axis, cap + 1)),
                 frame_error)
        << (y_axis ? "y" : "x");
    query_msg m;
    (y_axis ? m.query.y : m.query.x) = over_cap;
    EXPECT_THROW((void)encode(m), frame_error) << (y_axis ? "y" : "x");
  }
}

TEST(Protocol, DummyAndBoundaryTokensSurviveTheWire) {
  be_string2d s;
  s.x = axis_string({token::dummy(), token::boundary(0x7FFFFFFE >> 1,
                                                     boundary_kind::end)});
  s.y = axis_string(std::vector<token>{});
  query_msg m;
  m.query = s;
  const query_msg back = decode_query(encode(m));
  EXPECT_TRUE(back.query.x.at(0).is_dummy());
  EXPECT_EQ(back.query.x.at(1).symbol(), 0x7FFFFFFEu >> 1);
  EXPECT_EQ(back.query.x.at(1).kind(), boundary_kind::end);
  EXPECT_TRUE(back.query.y.empty());
}

}  // namespace
}  // namespace bes::net
