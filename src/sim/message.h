// CONGEST messages.
//
// A message is "a communication of O(log(n+u)) bits passed along a single
// edge" (paper, Introduction). We serialize payloads into 64-bit words and
// enforce a constant word budget: every quantity the algorithms ship (an odd
// hash, a Z_p evaluation point, an interval of augmented weights, a w-bit
// echo vector) fits in a handful of words. The budget is a hard storage cap:
// payload words live inline in the Message (InlineWords), so a Message is
// trivially copyable and sending one performs no heap allocation. Oversized
// messages are a model violation: they assert in debug builds and are
// counted in Metrics in release builds.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

#include "sim/inline_words.h"

namespace kkt::sim {

// Protocol-level message tags. Kept in one registry so traces are readable
// and tags never collide across composed protocols.
enum class Tag : std::uint16_t {
  kNone = 0,
  // proto/broadcast_echo
  kBroadcast,
  kEcho,
  // proto/leader_election
  kElectEcho,
  kLeaderAnnounce,
  // proto/cycle_break
  kCycleUnmarkProposal,
  // core handshakes
  kAddEdge,
  kDropEdge,
  // core/sample_find_min (Appendix A)
  kSampleRequest,
  kSampleReply,
  // baseline/ghs
  kGhsTest,
  kGhsAccept,
  kGhsReject,
  kGhsReport,
  kGhsConnect,
  kGhsFragment,
  // baseline/flood_st
  kFloodExplore,
  kFloodAck,
  // baseline/naive repair
  kNaiveProbe,
  kNaiveProbeReply,

  kTagCount,  // sentinel: number of tags (for per-tag accounting)
};

// Human-readable tag name (for traces and message breakdowns).
const char* tag_name(Tag t) noexcept;

// Inverse of tag_name: resolves a trace name back to its tag. Returns
// nullopt for unknown names (including "?").
std::optional<Tag> tag_from_name(std::string_view name) noexcept;

// CONGEST budget: number of 64-bit payload words a message may carry.
// 8 words = 512 bits = O(log(n+u)) for the ID/weight spaces we instantiate.
inline constexpr std::size_t kMaxMessageWords = 8;

struct Message {
  Tag tag = Tag::kNone;
  InlineWords<kMaxMessageWords> words;

  Message() = default;
  explicit Message(Tag t) : tag(t) {}
  Message(Tag t, std::initializer_list<std::uint64_t> w) : tag(t), words(w) {}

  // Wire size: tag byte pair + payload.
  std::size_t bits() const noexcept { return 16 + 64 * words.size(); }
};

// The whole point of the inline representation: the transport copies
// messages through the timing wheel with no per-message allocation.
static_assert(std::is_trivially_copyable_v<Message>);
static_assert(std::is_trivially_destructible_v<Message>);

}  // namespace kkt::sim
