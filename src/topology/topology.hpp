// Static wireless network topology: node positions plus radio ranges.
//
// Connectivity follows the unit-disk model the paper's evaluation reduces
// to: node j can receive node i's transmission iff it lies within the
// transmission range; it is *interfered with* by i iff within the
// interference range (>= transmission range). Both scenarios in the paper
// use 250 m for both ranges.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geom/geom.hpp"
#include "geom/spatial_index.hpp"

namespace e2efa {

using NodeId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

/// A degraded view of a Topology: which nodes are alive and which links are
/// administratively down (fault injection). Empty vectors mean "everything
/// up", so a default-constructed mask is the healthy network. The mask never
/// changes the underlying Topology — geometry, neighbor lists, and
/// interference relations stay those of the full network; the mask only
/// filters which links can carry traffic (routing, frame decoding).
struct TopologyMask {
  std::vector<bool> node_up;  ///< Empty = all nodes up; else one flag per node.
  /// Links forced down, as normalized (min id, max id) pairs. Both endpoints
  /// being alive does not resurrect a downed link.
  std::vector<std::pair<NodeId, NodeId>> down_links;

  bool node_alive(NodeId n) const;
  /// True when both endpoints are alive and the link is not forced down.
  /// Does NOT check geometric range — pair with Topology::has_link.
  bool link_alive(NodeId a, NodeId b) const;
  bool all_up() const { return node_up.empty() && down_links.empty(); }

  bool operator==(const TopologyMask&) const = default;
};

/// Immutable-after-construction set of node positions with range-based
/// connectivity queries and cached neighbor lists.
class Topology {
 public:
  /// `tx_range_m` is the transmission (and default interference) range.
  Topology(std::vector<Point> positions, double tx_range_m,
           std::optional<double> interference_range_m = std::nullopt);

  int node_count() const { return static_cast<int>(positions_.size()); }
  const Point& position(NodeId n) const;
  double tx_range() const { return tx_range_; }
  double interference_range() const { return if_range_; }

  /// True when a and b are distinct nodes within transmission range
  /// (i.e., a bidirectional wireless link exists between them).
  bool has_link(NodeId a, NodeId b) const;

  /// True when b is within a's interference range (a != b).
  bool interferes(NodeId a, NodeId b) const;

  /// Nodes within transmission range of n (excluding n), ascending ids.
  const std::vector<NodeId>& neighbors(NodeId n) const;

  /// Nodes within interference range of n (excluding n), ascending ids.
  const std::vector<NodeId>& interference_neighbors(NodeId n) const;

  /// One flag per entry of interference_neighbors(n), in the same order:
  /// nonzero when that neighbor is also within transmission range, i.e.
  /// has_link(n, it). Precomputed, so the PHY's per-frame fan-out needs no
  /// distance test.
  const char* interference_links(NodeId n) const;

  /// True when the connectivity graph is a single connected component.
  bool connected() const;

  /// The uniform-grid index over the node positions (cell size =
  /// interference range) that built the neighbor lists; exposed so
  /// scenario generation and other geometric passes can run their own
  /// range queries without an all-pairs scan.
  const SpatialGrid& grid() const { return grid_; }

  /// Optional human-readable labels ("A", "B", ...) used in printed tables.
  void set_labels(std::vector<std::string> labels);
  /// Label for node n; defaults to its numeric id.
  std::string label(NodeId n) const;

 private:
  void check_node(NodeId n) const;

  std::vector<Point> positions_;
  double tx_range_;
  double if_range_;
  SpatialGrid grid_;
  std::vector<std::vector<NodeId>> neighbors_;
  std::vector<std::vector<NodeId>> if_neighbors_;
  /// interference_links of every node, concatenated; node n's flags start
  /// at if_link_start_[n].
  std::vector<char> if_links_;
  std::vector<std::size_t> if_link_start_;
  std::vector<std::string> labels_;
};

}  // namespace e2efa
