#include "encode/witness.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace mcsym::encode {

using mcapi::ExecEvent;

Witness decode_witness(const smt::Solver& solver, const Encoding& enc,
                       const trace::Trace& trace) {
  Witness w;
  // Matching: each receive's id variable equals the uid of exactly one send.
  for (const EventIndex r : enc.recv_order) {
    const std::int64_t uid = solver.model_int(enc.match_id.at(r));
    const auto it = enc.send_of_uid.find(uid);
    MCSYM_ASSERT_MSG(it != enc.send_of_uid.end(),
                     "model assigned a match id that is no send uid");
    w.matching.emplace_back(r, it->second);
    w.recv_values.emplace_back(r, solver.model_int(enc.recv_value.at(r)));
  }
  std::sort(w.matching.begin(), w.matching.end());
  std::sort(w.recv_values.begin(), w.recv_values.end());

  // Linearization: sort communication events by model clock (ties broken by
  // thread then op to keep output deterministic).
  std::vector<std::pair<std::int64_t, EventIndex>> order;
  order.reserve(enc.clock.size());
  for (const auto& [idx, clk] : enc.clock) {
    order.emplace_back(solver.model_int(clk), idx);
  }
  std::sort(order.begin(), order.end(), [&trace](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    const auto& ea = trace.event(a.second).ev;
    const auto& eb = trace.event(b.second).ev;
    if (ea.thread != eb.thread) return ea.thread < eb.thread;
    return ea.op_index < eb.op_index;
  });
  w.linearization.reserve(order.size());
  for (const auto& [clk, idx] : order) {
    w.linearization.push_back(idx);
    w.clock_values.emplace_back(idx, clk);
  }
  for (const auto& [r, bind] : enc.bind_time) {
    w.bind_values.emplace_back(r, solver.model_int(bind));
  }
  std::sort(w.bind_values.begin(), w.bind_values.end());

  for (const auto& [label, term] : enc.prop_terms) {
    if (!solver.model_bool(term)) w.violated.push_back(label);
  }
  return w;
}

Witness translate_witness(const Witness& witness, const trace::Trace& from,
                          const trace::Trace& to) {
  MCSYM_ASSERT(from.num_threads() == to.num_threads());
  std::vector<EventIndex> to_index(from.size(), trace::kNoEvent);
  for (mcapi::ThreadRef t = 0; t < from.num_threads(); ++t) {
    const auto& src = from.thread_events(t);
    const auto& dst = to.thread_events(t);
    MCSYM_ASSERT(src.size() == dst.size());
    for (std::size_t k = 0; k < src.size(); ++k) to_index[src[k]] = dst[k];
  }
  const auto at = [&to_index](EventIndex e) { return to_index[e]; };
  Witness w;
  for (const auto& [r, s] : witness.matching) w.matching.emplace_back(at(r), at(s));
  for (const auto& [r, v] : witness.recv_values) w.recv_values.emplace_back(at(r), v);
  for (const EventIndex e : witness.linearization) w.linearization.push_back(at(e));
  for (const auto& [e, clk] : witness.clock_values) {
    w.clock_values.emplace_back(at(e), clk);
  }
  for (const auto& [r, bind] : witness.bind_values) {
    w.bind_values.emplace_back(at(r), bind);
  }
  std::sort(w.matching.begin(), w.matching.end());
  std::sort(w.recv_values.begin(), w.recv_values.end());
  std::sort(w.bind_values.begin(), w.bind_values.end());
  w.violated = witness.violated;
  return w;
}

std::string Witness::to_string(const trace::Trace& trace) const {
  const mcapi::Program& prog = trace.program();
  std::ostringstream os;
  os << "witness:\n";
  os << "  matching: " << match::matching_to_string(trace, matching) << "\n";
  os << "  schedule:\n";
  for (const EventIndex idx : linearization) {
    const ExecEvent& e = trace.event(idx).ev;
    os << "    " << prog.thread(e.thread).name << ": ";
    switch (e.kind) {
      case ExecEvent::Kind::kSend:
        os << "send#" << e.uid << " " << prog.endpoint(e.src).name << "->"
           << prog.endpoint(e.dst).name;
        break;
      case ExecEvent::Kind::kRecv:
        os << "recv(" << prog.endpoint(e.dst).name << ")";
        break;
      case ExecEvent::Kind::kRecvIssue:
        os << "recv_i(" << prog.endpoint(e.dst).name << ")";
        break;
      case ExecEvent::Kind::kWait:
        os << "wait(req" << e.req << ")";
        break;
      case ExecEvent::Kind::kTest:
        os << "test(req" << e.req << ")=" << (e.outcome ? 1 : 0);
        break;
      case ExecEvent::Kind::kWaitAny:
        os << "wait_any -> req" << e.req << " (index " << e.winner_index << ")";
        break;
      default:
        os << "?";
        break;
    }
    os << "\n";
  }
  if (!recv_values.empty()) {
    os << "  received values:";
    for (const auto& [r, v] : recv_values) {
      const ExecEvent& e = trace.event(r).ev;
      os << " " << prog.thread(e.thread).name << "."
         << prog.interner().spelling(e.var) << "=" << v;
    }
    os << "\n";
  }
  if (!violated.empty()) {
    os << "  violated:";
    for (const std::string& label : violated) os << " " << label;
    os << "\n";
  }
  return os.str();
}

}  // namespace mcsym::encode
