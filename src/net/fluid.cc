#include "net/fluid.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace net {

namespace {
// Completion times are rounded up to the next nanosecond; a flow whose
// remaining bytes fall below this is considered finished (guards float
// accumulation error).
constexpr double kByteEpsilon = 1e-6;
}  // namespace

LinkId FluidNet::add_link(double gbps, sim::Time prop_delay) {
  if (gbps <= 0) throw std::invalid_argument("add_link: capacity must be > 0");
  links_.push_back(Link{gbps_to_bytes_per_ns(gbps), prop_delay});
  return static_cast<LinkId>(links_.size() - 1);
}

double FluidNet::link_capacity_gbps(LinkId id) const {
  return bytes_per_ns_to_gbps(links_.at(id).capacity);
}

void FluidNet::set_link_capacity(LinkId id, double gbps) {
  if (gbps < 0) {
    throw std::invalid_argument("set_link_capacity: negative capacity");
  }
  settle();
  links_.at(id).capacity = gbps_to_bytes_per_ns(gbps);
  reallocate();
}

sim::Time FluidNet::path_propagation(const std::vector<LinkId>& path) const {
  sim::Time t = 0;
  for (LinkId l : path) t += links_.at(l).prop_delay;
  return t;
}

std::uint64_t FluidNet::class_key(const std::vector<LinkId>& path,
                                  double cap) {
  using sim::flat_detail::mix_hash;
  std::uint64_t h = mix_hash(std::bit_cast<std::uint64_t>(cap));
  for (LinkId l : path) h = mix_hash(h ^ l);
  return h;
}

std::uint32_t FluidNet::join_class(std::vector<LinkId>& path, double cap) {
  const std::uint64_t key = class_key(path, cap);
  const auto cap_bits = std::bit_cast<std::uint64_t>(cap);
  auto head = class_by_key_.find(key);
  if (head != class_by_key_.end()) {
    for (std::uint32_t c = head->second; c != kNoClass; c = classes_[c].next) {
      FlowClass& fc = classes_[c];
      if (std::bit_cast<std::uint64_t>(fc.cap) == cap_bits && fc.path == path) {
        ++fc.flows;
        return c;
      }
    }
  }
  std::uint32_t c;
  if (free_classes_.empty()) {
    c = static_cast<std::uint32_t>(classes_.size());
    classes_.emplace_back();
    classes_[c].path = std::move(path);
  } else {
    c = free_classes_.back();
    free_classes_.pop_back();
    classes_[c].path.assign(path.begin(), path.end());
  }
  FlowClass& fc = classes_[c];
  fc.cap = cap;
  fc.rate = 0;
  fc.min_remaining = std::numeric_limits<double>::infinity();
  fc.key = key;
  fc.flows = 1;
  if (head != class_by_key_.end()) {
    fc.next = head->second;
    head->second = c;
  } else {
    fc.next = kNoClass;
    class_by_key_.emplace(key, c);
  }
  return c;
}

void FluidNet::leave_class(std::uint32_t c) {
  FlowClass& fc = classes_[c];
  if (--fc.flows > 0) {
    // The leaving flow may have held the class's least remaining.
    min_remaining_valid_ = false;
    return;
  }
  std::uint32_t& head = class_by_key_.at(fc.key);
  if (head == c) {
    if (fc.next == kNoClass) {
      class_by_key_.erase(fc.key);
    } else {
      head = fc.next;
    }
  } else {
    std::uint32_t prev = head;
    while (classes_[prev].next != c) prev = classes_[prev].next;
    classes_[prev].next = fc.next;
  }
  fc.next = kNoClass;
  free_classes_.push_back(c);
}

FlowId FluidNet::start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                            double cap_gbps,
                            std::function<void()> on_complete) {
  for (LinkId l : path) {
    if (l >= links_.size()) throw std::out_of_range("start_flow: bad link id");
  }
  settle();
  Flow f;
  f.cls = join_class(path, cap_gbps == kUncapped
                               ? kUncapped
                               : gbps_to_bytes_per_ns(cap_gbps));
  f.bytes_total = bytes;
  f.bytes_remaining = static_cast<double>(bytes);
  f.on_complete = std::move(on_complete);
  if (bytes > 0) {
    double& least = classes_[f.cls].min_remaining;
    least = std::min(least, f.bytes_remaining);
  }
  const FlowId id = next_flow_id_++;
  flows_.emplace(id, std::move(f));
  reallocate();
  return id;
}

void FluidNet::set_flow_cap(FlowId id, double cap_gbps) {
  auto it = flows_.find(id);
  if (it == flows_.end()) throw std::out_of_range("set_flow_cap: no such flow");
  settle();
  Flow& f = it->second;
  const std::uint32_t old = f.cls;
  // join_class may grow classes_, so work on a copy of the path.
  path_scratch_ = classes_[old].path;
  f.cls = join_class(
      path_scratch_,
      cap_gbps == kUncapped ? kUncapped : gbps_to_bytes_per_ns(cap_gbps));
  leave_class(old);
  if (f.bytes_total > 0) {
    double& least = classes_[f.cls].min_remaining;
    least = std::min(least, f.bytes_remaining);
  }
  reallocate();
}

void FluidNet::cancel_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle();
  leave_class(it->second.cls);
  flows_.erase(it);
  reallocate();
}

double FluidNet::link_load_gbps(LinkId id) const {
  if (link_load_stale_) {
    // Each flow counts once per link it crosses, and every link sums its
    // flows in FlowId order: the same additions, in the same order, as
    // summing one link at a time. Classes on one link can carry different
    // rates, so the sum cannot be taken per class.
    link_load_.assign(links_.size(), 0.0);
    for (const auto& [fid, f] : flows_) {
      const FlowClass& c = classes_[f.cls];
      for (auto l = c.path.begin(); l != c.path.end(); ++l) {
        if (std::find(c.path.begin(), l, *l) == l) link_load_[*l] += c.rate;
      }
    }
    link_load_stale_ = false;
  }
  // Links added since the last reallocation carry no flow yet.
  return id < link_load_.size() ? bytes_per_ns_to_gbps(link_load_[id]) : 0.0;
}

const std::vector<LinkId>* FluidNet::flow_path(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &classes_[it->second.cls].path;
}

double FluidNet::current_rate_gbps(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  return bytes_per_ns_to_gbps(classes_[it->second.cls].rate);
}

std::uint64_t FluidNet::bytes_sent(FlowId id) {
  settle();
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0;
  return static_cast<std::uint64_t>(it->second.bytes_done);
}

void FluidNet::settle() {
  const sim::Time now = loop_.now();
  const double dt = static_cast<double>(now - last_settle_);
  if (dt > 0) {
    for (FlowClass& c : classes_) {
      c.min_remaining = std::numeric_limits<double>::infinity();
    }
    for (auto& [id, f] : flows_) {
      FlowClass& c = classes_[f.cls];
      const double sent = c.rate * dt;
      f.bytes_done += sent;
      if (f.bytes_total > 0) {
        f.bytes_remaining = std::max(0.0, f.bytes_remaining - sent);
        c.min_remaining = std::min(c.min_remaining, f.bytes_remaining);
      }
    }
    min_remaining_valid_ = true;
  }
  last_settle_ = now;
}

void FluidNet::compute_min_remaining() {
  for (FlowClass& c : classes_) {
    c.min_remaining = std::numeric_limits<double>::infinity();
  }
  for (const auto& [id, f] : flows_) {
    if (f.bytes_total == 0) continue;
    double& least = classes_[f.cls].min_remaining;
    least = std::min(least, f.bytes_remaining);
  }
  min_remaining_valid_ = true;
}

// Progressive filling over flow classes. All flows of a class share a path
// and a cap, so every round fixes a class whole, and the result is
// bit-identical to filling flow by flow: there, each link takes one step
// `remaining = max(0, remaining - rate)` per flow the round fixes on it,
// in FlowId order.
//  * When every flow the round fixes has the same rate (always so in a
//    fair-share round, where all get the bottleneck share), the order of a
//    link's steps cannot matter, and each class applies its count of steps
//    in turn: k steps, not one k * rate subtraction, which would round
//    differently.
//  * When a capped round fixes flows at different caps, a link they share
//    is order-sensitive, so the steps walk the flows in FlowId order.
//  * A link left with no unfixed flow is never read again in this pass and
//    is skipped.
void FluidNet::reallocate() {
  link_load_stale_ = true;
  link_state_.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    link_state_[i] = LinkState{links_[i].capacity, 0};
  }
  unfixed_.clear();
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    FlowClass& fc = classes_[c];
    if (fc.flows == 0) continue;
    fc.rate = 0;
    unfixed_.push_back(c);
    for (LinkId l : fc.path) {
      link_state_[l].unfixed_flows += static_cast<int>(fc.flows);
    }
  }
  // The links that still carry unfixed flows, in link order (the order
  // the bottleneck scan takes its minimum in).
  active_links_.clear();
  for (LinkId l = 0; l < link_state_.size(); ++l) {
    if (link_state_[l].unfixed_flows > 0) active_links_.push_back(l);
  }

  while (!unfixed_.empty()) {
    // Fair share currently offered by the most constrained link.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (LinkId l : active_links_) {
      const LinkState& s = link_state_[l];
      bottleneck_share =
          std::min(bottleneck_share, s.remaining / s.unfixed_flows);
    }
    // Classes whose cap binds before the bottleneck share get fixed at
    // their cap; if none, every class on the bottleneck link(s) gets the
    // fair share. Classes are marked first and fixed after, so the
    // bottleneck test sees the link state from before this round.
    bool capped = false;
    for (std::uint32_t c : unfixed_) {
      FlowClass& fc = classes_[c];
      fc.fix_now = fc.cap <= bottleneck_share;
      capped = capped || fc.fix_now;
    }
    if (!capped) {
      if (!std::isfinite(bottleneck_share)) {
        // Flows with no links and no cap: unbounded model error.
        for (std::uint32_t c : unfixed_) {
          if (classes_[c].path.empty()) {
            throw std::logic_error("flow with empty path and no cap");
          }
        }
        break;
      }
      for (std::uint32_t c : unfixed_) {
        FlowClass& fc = classes_[c];
        for (LinkId l : fc.path) {
          const LinkState& s = link_state_[l];
          if (s.unfixed_flows > 0 &&
              s.remaining / s.unfixed_flows <=
                  bottleneck_share * (1 + 1e-12)) {
            fc.fix_now = true;
            break;
          }
        }
      }
    }
    // Fix the marked classes, then take their rates off the links that
    // still carry unfixed flows.
    bool one_rate = true;
    double first_rate = 0;
    bool first = true;
    for (std::uint32_t c : unfixed_) {
      FlowClass& fc = classes_[c];
      if (!fc.fix_now) continue;
      fc.rate = capped ? fc.cap : bottleneck_share;
      if (first) {
        first_rate = fc.rate;
        first = false;
      } else if (std::bit_cast<std::uint64_t>(fc.rate) !=
                 std::bit_cast<std::uint64_t>(first_rate)) {
        one_rate = false;
      }
      for (LinkId l : fc.path) {
        link_state_[l].unfixed_flows -= static_cast<int>(fc.flows);
      }
    }
    if (one_rate) {
      for (std::uint32_t c : unfixed_) {
        const FlowClass& fc = classes_[c];
        if (!fc.fix_now) continue;
        for (LinkId l : fc.path) {
          LinkState& s = link_state_[l];
          if (s.unfixed_flows == 0) continue;
          for (std::uint32_t k = 0; k < fc.flows; ++k) {
            s.remaining = std::max(0.0, s.remaining - fc.rate);
          }
        }
      }
    } else {
      for (const auto& [id, f] : flows_) {
        const FlowClass& fc = classes_[f.cls];
        if (!fc.fix_now) continue;
        for (LinkId l : fc.path) {
          LinkState& s = link_state_[l];
          if (s.unfixed_flows > 0) {
            s.remaining = std::max(0.0, s.remaining - fc.rate);
          }
        }
      }
    }
    // Drop the fixed classes (clearing their mark, which a later round's
    // flow walk reads) and the links left without unfixed flows; compact
    // both lists in place.
    std::size_t kept = 0;
    for (std::uint32_t c : unfixed_) {
      FlowClass& fc = classes_[c];
      if (fc.fix_now) {
        fc.fix_now = false;
      } else {
        unfixed_[kept++] = c;
      }
    }
    assert(kept < unfixed_.size());
    unfixed_.resize(kept);
    kept = 0;
    for (LinkId l : active_links_) {
      if (link_state_[l].unfixed_flows > 0) active_links_[kept++] = l;
    }
    active_links_.resize(kept);
  }
  arm_completion_timer();
}

// The earliest finish is min over finite flows of remaining / rate, or 0
// once any flow is done. Within a class the rate is shared, and a correctly
// rounded division by a positive rate is monotone in the dividend, so the
// class's least remaining divided by its rate is exactly the least of its
// flows' quotients.
void FluidNet::arm_completion_timer() {
  ++timer_generation_;
  if (!min_remaining_valid_) compute_min_remaining();
  double earliest = std::numeric_limits<double>::infinity();
  for (const FlowClass& c : classes_) {
    if (c.flows == 0 || !std::isfinite(c.min_remaining)) continue;
    if (c.min_remaining <= kByteEpsilon) {
      earliest = 0;
      break;
    }
    if (c.rate > 0) earliest = std::min(earliest, c.min_remaining / c.rate);
  }
  if (!std::isfinite(earliest)) return;
  const auto gen = timer_generation_;
  const sim::Time dt = static_cast<sim::Time>(std::ceil(earliest));
  loop_.schedule_after(dt, [this, gen] {
    if (gen != timer_generation_) return;  // superseded by a newer epoch
    fire_completions();
  });
}

void FluidNet::fire_completions() {
  settle();
  std::vector<std::pair<std::function<void()>, sim::Time>> done;
  for (FlowClass& c : classes_) {
    c.min_remaining = std::numeric_limits<double>::infinity();
  }
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    if (f.bytes_total == 0) {
      ++it;
    } else if (f.bytes_remaining <= kByteEpsilon) {
      done.emplace_back(std::move(f.on_complete),
                        path_propagation(classes_[f.cls].path));
      leave_class(f.cls);
      it = flows_.erase(it);
    } else {
      double& least = classes_[f.cls].min_remaining;
      least = std::min(least, f.bytes_remaining);
      ++it;
    }
  }
  min_remaining_valid_ = true;
  for (auto& [cb, prop] : done) {
    if (cb) loop_.schedule_after(prop, std::move(cb));
  }
  reallocate();
}

}  // namespace net
