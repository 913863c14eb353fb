#include "net/scenario_file.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "route/routing.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace e2efa {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ContractViolation(strformat("scenario file line %d: %s", line, msg.c_str()));
}

// Numeric fields are read a whole token at a time and parsed strictly
// (util/strings), so "250abc" or "0x" is an error rather than a prefix.
bool next_double(std::istream& line, double* out) {
  std::string tok;
  if (!(line >> tok)) return false;
  const auto v = parse_double(tok);
  if (v) *out = *v;
  return v.has_value();
}

bool next_int(std::istream& line, long long* out) {
  std::string tok;
  if (!(line >> tok)) return false;
  const auto v = parse_int(tok);
  if (v) *out = *v;
  return v.has_value();
}

void expect_end(std::istream& line, int lineno, const std::string& cmd) {
  std::string extra;
  if (line >> extra) fail(lineno, "unexpected token after " + cmd);
}

struct FlowSpec {
  std::vector<std::string> nodes;
  double weight = 1.0;
  int line = 0;
};

// fault/recover directives, with labels still unresolved.
struct FaultSpec {
  bool recover = false;  ///< false: fault (down), true: recover (up).
  bool link = false;     ///< false: node event, true: link event.
  std::string a, b;      ///< Node label(s); b only for link events.
  double at_s = 0.0;
  int line = 0;
};

struct LossSpec {
  bool is_default = false;
  std::string a, b;
  double per = 0.0;
  int line = 0;
};

// flow_arrive / flow_depart directives (flow ordinals resolved after all
// flows are read).
struct ChurnSpec {
  bool depart = false;
  int flow = -1;
  double at_s = 0.0;
  int line = 0;
};

// mobility directives, with the node label still unresolved.
struct MobSpec {
  std::string label;
  double speed = 0.0;
  double pause = 0.0;
  std::uint64_t seed = 0;
  int line = 0;
};

}  // namespace

Scenario parse_scenario_text(const std::string& text, std::string name) {
  std::vector<Point> positions;
  std::vector<std::string> labels;
  std::map<std::string, NodeId> by_label;
  std::vector<FlowSpec> flow_specs;
  std::vector<FaultSpec> fault_specs;
  std::vector<LossSpec> loss_specs;
  std::vector<ChurnSpec> churn_specs;
  std::vector<MobSpec> mob_specs;
  double range = 250.0;
  double irange = -1.0;
  TransportKind transport = TransportKind::kCbr;
  int transport_line = 0;

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string cmd;
    if (!(line >> cmd)) continue;  // blank / comment-only

    if (cmd == "range" || cmd == "irange") {
      double v;
      if (!next_double(line, &v) || v <= 0)
        fail(lineno, cmd + " needs a positive number");
      expect_end(line, lineno, cmd);
      (cmd == "range" ? range : irange) = v;
    } else if (cmd == "node") {
      std::string label;
      double x, y;
      if (!(line >> label) || !next_double(line, &x) || !next_double(line, &y))
        fail(lineno, "node needs: label x y");
      expect_end(line, lineno, cmd);
      if (by_label.contains(label)) fail(lineno, "duplicate node label " + label);
      by_label[label] = static_cast<NodeId>(positions.size());
      positions.push_back({x, y});
      labels.push_back(label);
    } else if (cmd == "flow") {
      FlowSpec spec;
      spec.line = lineno;
      std::string tok;
      while (line >> tok) {
        if (tok == "weight") {
          if (!next_double(line, &spec.weight) || spec.weight <= 0)
            fail(lineno, "weight needs a positive number");
          expect_end(line, lineno, "weight");
          break;
        }
        spec.nodes.push_back(tok);
      }
      if (spec.nodes.size() < 2) fail(lineno, "flow needs at least two nodes");
      flow_specs.push_back(std::move(spec));
    } else if (cmd == "fault" || cmd == "recover") {
      FaultSpec spec;
      spec.recover = cmd == "recover";
      spec.line = lineno;
      std::string kind;
      if (!(line >> kind) || (kind != "node" && kind != "link"))
        fail(lineno, cmd + " needs: " + cmd + " node|link ...");
      spec.link = kind == "link";
      const std::string usage =
          cmd + (spec.link ? " link needs: two node labels and a time"
                           : " node needs: a node label and a time");
      if (!(line >> spec.a)) fail(lineno, usage);
      if (spec.link && !(line >> spec.b)) fail(lineno, usage);
      if (!next_double(line, &spec.at_s)) fail(lineno, usage);
      if (spec.at_s < 0) fail(lineno, cmd + " time must not be negative");
      expect_end(line, lineno, cmd);
      fault_specs.push_back(std::move(spec));
    } else if (cmd == "loss") {
      LossSpec spec;
      spec.line = lineno;
      if (!(line >> spec.a)) fail(lineno, "loss needs: a b rate, or: default rate");
      if (spec.a == "default") {
        spec.is_default = true;
        if (!next_double(line, &spec.per)) fail(lineno, "loss default needs a rate");
      } else {
        if (!(line >> spec.b) || !next_double(line, &spec.per))
          fail(lineno, "loss needs: a b rate, or: default rate");
      }
      if (spec.per < 0.0 || spec.per > 1.0)
        fail(lineno, "loss rate must be within [0, 1]");
      expect_end(line, lineno, cmd);
      loss_specs.push_back(std::move(spec));
    } else if (cmd == "flow_arrive" || cmd == "flow_depart") {
      ChurnSpec spec;
      spec.depart = cmd == "flow_depart";
      spec.line = lineno;
      long long flow = 0;
      if (!next_int(line, &flow) || !next_double(line, &spec.at_s))
        fail(lineno, cmd + " needs: flow-index time");
      if (flow < 0) fail(lineno, cmd + " flow index must not be negative");
      if (flow > std::numeric_limits<int>::max())
        fail(lineno, cmd + " flow index is out of range");
      spec.flow = static_cast<int>(flow);
      if (spec.at_s < 0) fail(lineno, cmd + " time must not be negative");
      expect_end(line, lineno, cmd);
      churn_specs.push_back(spec);
    } else if (cmd == "mobility") {
      MobSpec spec;
      spec.line = lineno;
      if (!(line >> spec.label))
        fail(lineno, "mobility needs: label speed v [pause p] [seed k]");
      bool have_speed = false;
      std::string key;
      while (line >> key) {
        if (key == "speed") {
          if (!next_double(line, &spec.speed))
            fail(lineno, "mobility speed needs a number");
          have_speed = true;
        } else if (key == "pause") {
          if (!next_double(line, &spec.pause))
            fail(lineno, "mobility pause needs a number");
        } else if (key == "seed") {
          long long seed = 0;
          if (!next_int(line, &seed) || seed < 0)
            fail(lineno, "mobility seed needs a non-negative integer");
          spec.seed = static_cast<std::uint64_t>(seed);
        } else {
          fail(lineno, "unknown mobility option '" + key + "'");
        }
      }
      if (!have_speed || spec.speed <= 0)
        fail(lineno, "mobility needs a positive speed");
      if (spec.pause < 0) fail(lineno, "mobility pause must not be negative");
      mob_specs.push_back(std::move(spec));
    } else if (cmd == "transport") {
      std::string kind;
      if (!(line >> kind)) fail(lineno, "transport needs: cbr|aimd|bbr");
      if (transport_line != 0)
        fail(lineno, strformat("duplicate transport directive (line %d)",
                               transport_line));
      transport_line = lineno;
      const auto parsed = parse_transport_kind(kind);
      if (!parsed) fail(lineno, "unknown transport kind '" + kind + "'");
      transport = *parsed;
      expect_end(line, lineno, cmd);
    } else {
      fail(lineno, "unknown directive '" + cmd + "'");
    }
  }
  if (positions.empty()) throw ContractViolation("scenario file defines no nodes");
  if (flow_specs.empty()) throw ContractViolation("scenario file defines no flows");

  Topology topo(std::move(positions), range,
                irange > 0 ? std::optional<double>(irange) : std::nullopt);
  topo.set_labels(labels);

  Scenario sc{std::move(name), std::move(topo), {}, {}};
  sc.transport = transport;
  for (const FlowSpec& spec : flow_specs) {
    std::vector<NodeId> ids;
    for (const std::string& label : spec.nodes) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) fail(spec.line, "unknown node label " + label);
      ids.push_back(it->second);
    }
    if (ids.size() == 2) {
      const auto path = shortest_path(sc.topo, ids[0], ids[1]);
      if (!path)
        fail(spec.line, "no route from " + spec.nodes[0] + " to " + spec.nodes[1]);
      Flow f;
      f.path = *path;
      f.weight = spec.weight;
      sc.flow_specs.push_back(std::move(f));
    } else {
      Flow f;
      f.path = std::move(ids);
      f.weight = spec.weight;
      for (std::size_t h = 0; h + 1 < f.path.size(); ++h) {
        if (!sc.topo.has_link(f.path[h], f.path[h + 1]))
          fail(spec.line, "hop " + spec.nodes[h] + " -> " + spec.nodes[h + 1] +
                              " is not a link");
      }
      sc.flow_specs.push_back(std::move(f));
    }
  }

  // Resolve fault/loss directives (labels may be defined anywhere in the
  // file, so this has to run after all nodes are known).
  auto resolve = [&](const std::string& label, int line) {
    const auto it = by_label.find(label);
    if (it == by_label.end()) fail(line, "unknown node label " + label);
    return it->second;
  };
  // Per-target monotonicity: the FaultPlan applies events in file order, so
  // a fault/recover whose time precedes an earlier directive for the same
  // node or link would silently be overridden — reject it at the source.
  std::map<std::pair<NodeId, NodeId>, std::pair<double, int>> last_event;
  auto check_order = [&](NodeId a, NodeId b, double t, int line) {
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    const auto it = last_event.find(key);
    if (it != last_event.end() && t < it->second.first)
      fail(line, strformat("out-of-order time %g: an earlier directive for the "
                           "same target (line %d) is at t=%g",
                           t, it->second.second, it->second.first));
    last_event[key] = {t, line};
  };
  for (const FaultSpec& spec : fault_specs) {
    const NodeId a = resolve(spec.a, spec.line);
    if (!spec.link) {
      check_order(a, kInvalidNode, spec.at_s, spec.line);
      spec.recover ? sc.faults.node_up(a, spec.at_s)
                   : sc.faults.node_down(a, spec.at_s);
      continue;
    }
    const NodeId b = resolve(spec.b, spec.line);
    if (a == b) fail(spec.line, "link fault endpoints must differ");
    check_order(a, b, spec.at_s, spec.line);
    spec.recover ? sc.faults.link_up(a, b, spec.at_s)
                 : sc.faults.link_down(a, b, spec.at_s);
  }
  for (const LossSpec& spec : loss_specs) {
    if (spec.is_default) {
      sc.faults.set_default_loss(spec.per);
      continue;
    }
    const NodeId a = resolve(spec.a, spec.line);
    const NodeId b = resolve(spec.b, spec.line);
    if (a == b) fail(spec.line, "loss endpoints must differ");
    sc.faults.set_loss(a, b, spec.per);
  }

  // Flow churn windows. Ordinals index the flow list in file order; an
  // all-default window vector is normalized away so churn-free files stay
  // non-dynamic (and serialization is a fixed point).
  if (!churn_specs.empty()) {
    const int FC = static_cast<int>(sc.flow_specs.size());
    sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
    std::vector<int> arrive_line(sc.flow_specs.size(), 0);
    std::vector<int> depart_line(sc.flow_specs.size(), 0);
    for (const ChurnSpec& spec : churn_specs) {
      if (spec.flow >= FC)
        fail(spec.line, strformat("flow index %d out of range (%d flows defined)",
                                  spec.flow, FC));
      const auto f = static_cast<std::size_t>(spec.flow);
      if (spec.depart) {
        if (depart_line[f] != 0)
          fail(spec.line, strformat("duplicate flow_depart for flow %d (line %d)",
                                    spec.flow, depart_line[f]));
        depart_line[f] = spec.line;
        sc.activity[f].stop_s = spec.at_s;
      } else {
        if (arrive_line[f] != 0)
          fail(spec.line, strformat("duplicate flow_arrive for flow %d (line %d)",
                                    spec.flow, arrive_line[f]));
        arrive_line[f] = spec.line;
        sc.activity[f].start_s = spec.at_s;
      }
    }
    for (std::size_t f = 0; f < sc.activity.size(); ++f) {
      if (depart_line[f] != 0 && sc.activity[f].stop_s <= sc.activity[f].start_s)
        fail(depart_line[f],
             strformat("flow_depart at or before flow %d's arrival (t=%g)",
                       static_cast<int>(f), sc.activity[f].start_s));
    }
    if (all_default_activity(sc.activity)) sc.activity.clear();
  }

  // Mobility walks (labels resolved now; one walk per node).
  std::map<NodeId, int> mob_line;
  for (const MobSpec& spec : mob_specs) {
    const NodeId n = resolve(spec.label, spec.line);
    const auto it = mob_line.find(n);
    if (it != mob_line.end())
      fail(spec.line,
           strformat("duplicate mobility for node %s (line %d)",
                     spec.label.c_str(), it->second));
    mob_line[n] = spec.line;
    MobilitySpec m;
    m.node = n;
    m.speed_mps = spec.speed;
    m.pause_s = spec.pause;
    m.seed = spec.seed;
    sc.mobility.push_back(m);
  }
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  E2EFA_ASSERT_MSG(in.good(), "cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str(), path);
}

std::string serialize_scenario_text(const Scenario& sc) {
  std::string out = "# scenario: " + sc.name + "\n";
  out += strformat("range %.17g\n", sc.topo.tx_range());
  // The default (cbr) is omitted so pre-transport files round-trip
  // byte-identically.
  if (sc.transport != TransportKind::kCbr)
    out += strformat("transport %s\n", to_string(sc.transport));
  if (sc.topo.interference_range() != sc.topo.tx_range())
    out += strformat("irange %.17g\n", sc.topo.interference_range());
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    const Point& p = sc.topo.position(n);
    const std::string label = sc.topo.label(n);
    E2EFA_ASSERT_MSG(!label.empty() &&
                         label.find_first_of(" \t#") == std::string::npos,
                     "node label is not a serializable token");
    out += strformat("node %s %.17g %.17g\n", label.c_str(), p.x, p.y);
  }
  for (const Flow& f : sc.flow_specs) {
    // Multi-hop paths are written explicitly: a 2-endpoint form would be
    // re-routed min-hop on parse, and a routing tie could pick a different
    // path. Single-hop flows have no tie to break.
    out += "flow";
    for (NodeId n : f.path) {
      out += ' ';
      out += sc.topo.label(n);
    }
    out += strformat(" weight %.17g\n", f.weight);
  }
  if (!sc.activity.empty()) {
    E2EFA_ASSERT_MSG(sc.activity.size() == sc.flow_specs.size(),
                     "scenario activity size mismatch");
    for (std::size_t f = 0; f < sc.activity.size(); ++f) {
      const FlowActivity& w = sc.activity[f];
      if (w.start_s != 0.0)
        out += strformat("flow_arrive %d %.17g\n", static_cast<int>(f), w.start_s);
      if (w.stop_s != kFlowNeverStops)
        out += strformat("flow_depart %d %.17g\n", static_cast<int>(f), w.stop_s);
    }
  }
  {
    // Sorted by node so the output is canonical whatever order the specs
    // were added in; pause and seed are always written (their defaults are
    // unambiguous), which makes serialization a fixed point under re-parse.
    std::vector<MobilitySpec> mob = sc.mobility;
    std::sort(mob.begin(), mob.end(),
              [](const MobilitySpec& a, const MobilitySpec& b) {
                return a.node < b.node;
              });
    for (const MobilitySpec& m : mob)
      out += strformat("mobility %s speed %.17g pause %.17g seed %llu\n",
                       sc.topo.label(m.node).c_str(), m.speed_mps, m.pause_s,
                       static_cast<unsigned long long>(m.seed));
  }
  for (const FaultEvent& e : sc.faults.events()) {
    const char* cmd =
        e.kind == FaultEvent::Kind::kNodeDown || e.kind == FaultEvent::Kind::kLinkDown
            ? "fault"
            : "recover";
    const bool link = e.kind == FaultEvent::Kind::kLinkDown ||
                      e.kind == FaultEvent::Kind::kLinkUp;
    if (link)
      out += strformat("%s link %s %s %.17g\n", cmd,
                       sc.topo.label(e.node).c_str(), sc.topo.label(e.peer).c_str(),
                       e.at_s);
    else
      out += strformat("%s node %s %.17g\n", cmd, sc.topo.label(e.node).c_str(),
                       e.at_s);
  }
  for (const LossRule& r : sc.faults.loss_rules())
    out += strformat("loss %s %s %.17g\n", sc.topo.label(r.a).c_str(),
                     sc.topo.label(r.b).c_str(), r.per);
  if (sc.faults.default_loss() > 0.0)
    out += strformat("loss default %.17g\n", sc.faults.default_loss());
  return out;
}

}  // namespace e2efa
