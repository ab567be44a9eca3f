#include "net/fluid.h"

#include <algorithm>
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

FlowId FluidNet::start_flow(std::vector<LinkId> path, std::uint64_t bytes,
                            double cap_gbps,
                            std::function<void()> on_complete) {
  for (LinkId l : path) {
    if (l >= links_.size()) throw std::out_of_range("start_flow: bad link id");
  }
  settle();
  Flow f;
  f.path = std::move(path);
  f.bytes_total = bytes;
  f.bytes_remaining = static_cast<double>(bytes);
  f.cap = cap_gbps == kUncapped ? kUncapped : gbps_to_bytes_per_ns(cap_gbps);
  f.on_complete = std::move(on_complete);
  const FlowId id = next_flow_id_++;
  flows_.emplace(id, std::move(f));
  reallocate();
  return id;
}

void FluidNet::set_flow_cap(FlowId id, double cap_gbps) {
  auto it = flows_.find(id);
  if (it == flows_.end()) throw std::out_of_range("set_flow_cap: no such flow");
  settle();
  it->second.cap =
      cap_gbps == kUncapped ? kUncapped : gbps_to_bytes_per_ns(cap_gbps);
  reallocate();
}

void FluidNet::cancel_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle();
  flows_.erase(it);
  reallocate();
}

double FluidNet::link_load_gbps(LinkId id) const {
  if (link_load_stale_) {
    // Each flow counts once per link it crosses, and every link sums its
    // flows in FlowId order: the same additions, in the same order, as
    // summing one link at a time.
    link_load_.assign(links_.size(), 0.0);
    for (const auto& [fid, f] : flows_) {
      for (auto l = f.path.begin(); l != f.path.end(); ++l) {
        if (std::find(f.path.begin(), l, *l) == l) link_load_[*l] += f.rate;
      }
    }
    link_load_stale_ = false;
  }
  // Links added since the last reallocation carry no flow yet.
  return id < link_load_.size() ? bytes_per_ns_to_gbps(link_load_[id]) : 0.0;
}

const std::vector<LinkId>* FluidNet::flow_path(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second.path;
}

double FluidNet::current_rate_gbps(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  return bytes_per_ns_to_gbps(it->second.rate);
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
    for (auto& [id, f] : flows_) {
      const double sent = f.rate * dt;
      f.bytes_done += sent;
      if (f.bytes_total > 0) {
        f.bytes_remaining = std::max(0.0, f.bytes_remaining - sent);
      }
    }
  }
  last_settle_ = now;
}

void FluidNet::reallocate() {
  // Progressive filling with per-flow caps.
  link_load_stale_ = true;
  link_state_.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    link_state_[i] = LinkState{links_[i].capacity, 0};
  }
  // FlowId order: fixing order feeds the rate arithmetic below.
  unfixed_.clear();
  for (auto& [id, f] : flows_) {
    f.rate = 0;
    unfixed_.push_back(&f);
    for (LinkId l : f.path) ++link_state_[l].unfixed_flows;
  }

  while (!unfixed_.empty()) {
    // Fair share currently offered by the most constrained link.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (const auto& s : link_state_) {
      if (s.unfixed_flows > 0) {
        bottleneck_share =
            std::min(bottleneck_share, s.remaining / s.unfixed_flows);
      }
    }
    // Flows whose own cap binds before the bottleneck share get fixed at
    // their cap; if none, every flow on the bottleneck link(s) gets the
    // fair share. Flows are marked first and fixed after, so the
    // bottleneck test sees the link state from before this round.
    bool capped = false;
    for (Flow* f : unfixed_) {
      f->fix_now = f->cap <= bottleneck_share;
      capped = capped || f->fix_now;
    }
    if (!capped) {
      if (!std::isfinite(bottleneck_share)) {
        // Flows with no links and no cap: unbounded model error.
        for (const Flow* f : unfixed_) {
          if (f->path.empty()) {
            throw std::logic_error("flow with empty path and no cap");
          }
        }
        break;
      }
      for (Flow* f : unfixed_) {
        for (LinkId l : f->path) {
          const LinkState& s = link_state_[l];
          if (s.unfixed_flows > 0 &&
              s.remaining / s.unfixed_flows <=
                  bottleneck_share * (1 + 1e-12)) {
            f->fix_now = true;
            break;
          }
        }
      }
    }
    // Fix the marked flows in FlowId order; compact the rest in place.
    std::size_t kept = 0;
    for (Flow* f : unfixed_) {
      if (!f->fix_now) {
        unfixed_[kept++] = f;
        continue;
      }
      f->rate = capped ? f->cap : bottleneck_share;
      for (LinkId l : f->path) {
        LinkState& s = link_state_[l];
        s.remaining = std::max(0.0, s.remaining - f->rate);
        --s.unfixed_flows;
      }
    }
    assert(kept < unfixed_.size());
    unfixed_.resize(kept);
  }
  arm_completion_timer();
}

void FluidNet::arm_completion_timer() {
  ++timer_generation_;
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& [id, f] : flows_) {
    if (f.bytes_total == 0) continue;
    if (f.bytes_remaining <= kByteEpsilon) {
      earliest = 0;
      break;
    }
    if (f.rate > 0) {
      earliest = std::min(earliest, f.bytes_remaining / f.rate);
    }
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
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    if (f.bytes_total > 0 && f.bytes_remaining <= kByteEpsilon) {
      done.emplace_back(std::move(f.on_complete), path_propagation(f.path));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [cb, prop] : done) {
    if (cb) loop_.schedule_after(prop, std::move(cb));
  }
  reallocate();
}

}  // namespace net
