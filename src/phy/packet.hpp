// A data-plane packet traveling hop by hop along a multi-hop flow.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace e2efa {

struct Packet {
  std::uint64_t uid = 0;   ///< Unique within a run; receivers drop retried copies by it.
  std::int32_t flow = -1;  ///< Owning flow id.
  std::int32_t hop = 0;    ///< Subflow (hop index) the packet is currently on.
  std::int32_t subflow = -1;  ///< Global subflow id of the current hop.
  std::int64_t seq = 0;    ///< Per-flow sequence number at the source.
  std::int32_t payload_bytes = 0;
  std::int32_t src = -1;  ///< Current-hop transmitter node.
  std::int32_t dst = -1;  ///< Current-hop receiver node.
  TimeNs created = 0;     ///< Source generation time.
};

}  // namespace e2efa
