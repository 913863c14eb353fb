// The fixed IEEE 802.11 DCF parameters the paper evaluates 2PA under: ns-2's
// 2 Mbps DSSS timing, its RTS/CTS/ACK frame sizes and retry limit.
//
// Constants, not configuration: nothing in the repository runs the MAC with
// other values. The MAC, the fluid model and the invariant checker all read
// them from here; src/check includes this header without linking e2efa_mac.
// The values callers do vary (CW_min, RTS/CTS vs basic access) stay in
// SimConfig.
#pragma once

#include "util/time.hpp"

namespace e2efa {

inline constexpr TimeNs kSlot = 20 * kMicrosecond;
inline constexpr TimeNs kSifs = 10 * kMicrosecond;
inline constexpr TimeNs kDifs = 50 * kMicrosecond;

/// Binary exponential backoff never widens the base window past this.
inline constexpr int kCwMax = 1023;
/// Drops the packet after this many failed attempts.
inline constexpr int kRetryLimit = 7;

/// Contention window for broadcast control frames (src/ctrl): they carry no
/// tag state, so a control-only backlog draws uniformly from
/// [1, kCtrlCw + 1] instead of consulting the BackoffPolicy.
inline constexpr int kCtrlCw = 31;
/// Upper bound on the extra bytes a CtrlPiggyback may attach to an RTS/CTS.
/// The RTS sender cannot know whether the responder will piggyback, so when
/// a piggyback source is installed its CTS-timeout budget is widened by
/// this many bytes of airtime.
inline constexpr int kCtrlPiggybackMax = 48;

// Frame sizes in bytes (MAC header + FCS; DATA adds the payload).
inline constexpr int kRtsBytes = 20;
inline constexpr int kCtsBytes = 14;
inline constexpr int kAckBytes = 14;
/// MAC + IP/UDP overhead on top of a DATA frame's payload.
inline constexpr int kDataHeaderBytes = 52;

}  // namespace e2efa
