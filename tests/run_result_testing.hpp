// Shared test helper: full-field RunResult equality, bitwise on doubles.
// Determinism in this codebase means *identical*, not merely close — the
// same seed must reproduce every counter, share, delay and telemetry value
// exactly, across reruns, BatchRunner pool sizes and clique thread
// counts. This is the single definition; determinism_test, fault_test,
// churn_test and transport_test all assert through it, so a field added to
// RunResult only needs one new EXPECT_EQ.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/runner.hpp"
#include "util/strings.hpp"

namespace e2efa {

inline void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.end_to_end_per_flow, b.end_to_end_per_flow);
  EXPECT_EQ(a.total_end_to_end, b.total_end_to_end);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_mac, b.dropped_mac);
  EXPECT_EQ(a.loss_ratio, b.loss_ratio);
  EXPECT_EQ(a.has_target, b.has_target);
  EXPECT_EQ(a.target_subflow_share, b.target_subflow_share);
  EXPECT_EQ(a.target_flow_share, b.target_flow_share);
  EXPECT_EQ(a.channel.frames_transmitted, b.channel.frames_transmitted);
  EXPECT_EQ(a.channel.frames_delivered, b.channel.frames_delivered);
  EXPECT_EQ(a.channel.frames_corrupted, b.channel.frames_corrupted);
  EXPECT_EQ(a.channel.bytes_corrupted, b.channel.bytes_corrupted);
  EXPECT_EQ(a.channel.frames_faulted, b.channel.frames_faulted);
  EXPECT_EQ(a.channel.faulted_dead, b.channel.faulted_dead);
  EXPECT_EQ(a.channel.faulted_loss, b.channel.faulted_loss);
  EXPECT_EQ(a.channel.airtime_ns, b.channel.airtime_ns);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.max_delay_s, b.max_delay_s);
  EXPECT_EQ(a.window_end_to_end, b.window_end_to_end);
  EXPECT_EQ(a.epoch_starts_s, b.epoch_starts_s);
  EXPECT_EQ(a.epoch_flow_share, b.epoch_flow_share);
  EXPECT_EQ(a.epoch_lp_status, b.epoch_lp_status);
  EXPECT_EQ(a.suspended_per_flow, b.suspended_per_flow);
  EXPECT_EQ(a.suspended_packets, b.suspended_packets);
  EXPECT_EQ(a.link_failures, b.link_failures);
  EXPECT_EQ(a.epoch_end_to_end, b.epoch_end_to_end);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.ctrl, b.ctrl);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.transport.acks_sent, b.transport.acks_sent);
  EXPECT_EQ(a.transport.acks_relayed, b.transport.acks_relayed);
  EXPECT_EQ(a.transport.acks_delivered, b.transport.acks_delivered);
  ASSERT_EQ(a.transport.flows.size(), b.transport.flows.size());
  for (std::size_t f = 0; f < a.transport.flows.size(); ++f) {
    EXPECT_EQ(a.transport.flows[f].cwnd, b.transport.flows[f].cwnd);
    EXPECT_EQ(a.transport.flows[f].srtt_s, b.transport.flows[f].srtt_s);
    EXPECT_EQ(a.transport.flows[f].delivery_rate_pps,
              b.transport.flows[f].delivery_rate_pps);
    EXPECT_EQ(a.transport.flows[f].retransmits,
              b.transport.flows[f].retransmits);
    EXPECT_EQ(a.transport.flows[f].timeouts, b.transport.flows[f].timeouts);
  }
  EXPECT_EQ(a.reconv_s, b.reconv_s);
}

/// Canonical text form of every RunResult field except events_processed,
/// one `name value...` line per field, doubles in %.17g (exact round-trip).
/// Golden files under tests/goldens/ hold this text, so a trajectory change
/// anywhere in a run shows up as a diff naming the field. events_processed
/// is left out on purpose: it counts engine work, not simulated behaviour,
/// and changes whenever the engine schedules differently for the same
/// trajectory.
namespace golden_detail {

inline void put(std::string& out, double v) { out += strformat(" %.17g", v); }
inline void put(std::string& out, std::int64_t v) {
  out += strformat(" %lld", static_cast<long long>(v));
}
inline void put(std::string& out, std::uint64_t v) {
  out += strformat(" %llu", static_cast<unsigned long long>(v));
}
inline void put(std::string& out, int v) { out += strformat(" %d", v); }
inline void put(std::string& out, bool v) { out += v ? " 1" : " 0"; }

template <class T>
void line(std::string& out, const std::string& name, const T& v) {
  out += name;
  put(out, v);
  out += '\n';
}

template <class T>
void line(std::string& out, const std::string& name, const std::vector<T>& v) {
  out += name;
  out += strformat(" [%zu]", v.size());
  for (const T& x : v) put(out, x);
  out += '\n';
}

template <class T>
void line(std::string& out, const std::string& name,
          const std::vector<std::vector<T>>& v) {
  out += strformat("%s [%zu]\n", name.c_str(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    line(out, name + strformat("[%zu]", i), v[i]);
}

}  // namespace golden_detail

inline std::string golden_dump(const RunResult& r) {
  using golden_detail::line;
  std::string o;
  o += strformat("protocol %s\n", to_string(r.protocol));
  line(o, "sim_seconds", r.sim_seconds);
  line(o, "delivered_per_subflow", r.delivered_per_subflow);
  line(o, "end_to_end_per_flow", r.end_to_end_per_flow);
  line(o, "total_end_to_end", r.total_end_to_end);
  line(o, "lost_packets", r.lost_packets);
  line(o, "dropped_queue", r.dropped_queue);
  line(o, "dropped_mac", r.dropped_mac);
  line(o, "loss_ratio", r.loss_ratio);
  line(o, "has_target", r.has_target);
  line(o, "target_subflow_share", r.target_subflow_share);
  line(o, "target_flow_share", r.target_flow_share);
  line(o, "channel.frames_transmitted", r.channel.frames_transmitted);
  line(o, "channel.frames_delivered", r.channel.frames_delivered);
  line(o, "channel.frames_corrupted", r.channel.frames_corrupted);
  line(o, "channel.bytes_corrupted", r.channel.bytes_corrupted);
  line(o, "channel.frames_faulted", r.channel.frames_faulted);
  line(o, "channel.faulted_dead", r.channel.faulted_dead);
  line(o, "channel.faulted_loss", r.channel.faulted_loss);
  line(o, "channel.airtime_ns", r.channel.airtime_ns);
  line(o, "mean_delay_s", r.mean_delay_s);
  line(o, "max_delay_s", r.max_delay_s);
  line(o, "window_end_to_end", r.window_end_to_end);
  line(o, "epoch_starts_s", r.epoch_starts_s);
  line(o, "epoch_flow_share", r.epoch_flow_share);
  o += strformat("epoch_lp_status [%zu]", r.epoch_lp_status.size());
  for (LpStatus s : r.epoch_lp_status) o += strformat(" %s", to_string(s));
  o += '\n';
  line(o, "suspended_per_flow", r.suspended_per_flow);
  line(o, "suspended_packets", r.suspended_packets);
  line(o, "link_failures", r.link_failures);
  line(o, "epoch_end_to_end", r.epoch_end_to_end);
  o += strformat("recoveries [%zu]\n", r.recoveries.size());
  for (const RunResult::Recovery& x : r.recoveries)
    o += strformat("recovery %d %.17g %.17g\n", x.flow, x.fault_s, x.recovered_s);
  line(o, "metrics.period_s", r.metrics.period_s);
  line(o, "metrics.reconv_s", r.metrics.reconv_s);
  o += strformat("metrics.samples [%zu]\n", r.metrics.samples.size());
  for (std::size_t i = 0; i < r.metrics.samples.size(); ++i) {
    const MetricsSample& m = r.metrics.samples[i];
    const std::string p = strformat("sample[%zu].", i);
    line(o, p + "t_s", m.t_s);
    line(o, p + "flow_goodput_pps", m.flow_goodput_pps);
    line(o, p + "jain", m.jain);
    line(o, p + "queue_depth_p50", m.queue_depth_p50);
    line(o, p + "queue_depth_p95", m.queue_depth_p95);
    line(o, p + "queue_depth_max", m.queue_depth_max);
    line(o, p + "mac_retry_rate", m.mac_retry_rate);
    line(o, p + "channel_utilization", m.channel_utilization);
    line(o, p + "ctrl_bytes", m.ctrl_bytes);
    line(o, p + "ctrl_overhead", m.ctrl_overhead);
    line(o, p + "ctrl_retransmits", m.ctrl_retransmits);
    line(o, p + "ctrl_seq_gaps", m.ctrl_seq_gaps);
    line(o, p + "flow_cwnd", m.flow_cwnd);
    line(o, p + "flow_srtt_s", m.flow_srtt_s);
    line(o, p + "flow_delivery_pps", m.flow_delivery_pps);
  }
  const RunResult::CtrlSummary& c = r.ctrl;
  line(o, "ctrl.hello_sent", c.hello_sent);
  line(o, "ctrl.constraint_sent", c.constraint_sent);
  line(o, "ctrl.rate_sent", c.rate_sent);
  line(o, "ctrl.msgs_received", c.msgs_received);
  line(o, "ctrl.solves", c.solves);
  line(o, "ctrl.ctrl_bytes", c.ctrl_bytes);
  line(o, "ctrl.ctrl_frames", c.ctrl_frames);
  line(o, "ctrl.admit_req_sent", c.admit_req_sent);
  line(o, "ctrl.admit_rsp_sent", c.admit_rsp_sent);
  line(o, "ctrl.retransmits", c.retransmits);
  line(o, "ctrl.seq_gaps", c.seq_gaps);
  line(o, "ctrl.stale_dropped", c.stale_dropped);
  line(o, "ctrl.forced_solves", c.forced_solves);
  line(o, "ctrl.applied_subflow_share", c.applied_subflow_share);
  o += strformat("admissions [%zu]\n", r.admissions.size());
  for (const RunResult::Admission& a : r.admissions)
    o += strformat("admission %d %.17g %d %d %.17g %d\n", a.flow, a.at_s,
                   a.admitted ? 1 : 0, a.reason, a.worst_load, a.inband);
  line(o, "transport.acks_sent", r.transport.acks_sent);
  line(o, "transport.acks_relayed", r.transport.acks_relayed);
  line(o, "transport.acks_delivered", r.transport.acks_delivered);
  o += strformat("transport.flows [%zu]\n", r.transport.flows.size());
  for (const TransportTelemetry& t : r.transport.flows)
    o += strformat("transport.flow %.17g %.17g %.17g %lld %lld\n", t.cwnd,
                   t.srtt_s, t.delivery_rate_pps,
                   static_cast<long long>(t.retransmits),
                   static_cast<long long>(t.timeouts));
  line(o, "reconv_s", r.reconv_s);
  return o;
}

}  // namespace e2efa
