#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::begin(const char* name, std::uint64_t req) {
  Span s;
  s.name = name;
  s.req = req;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.sim_start = sim_now();
  s.wall_start = wall_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

int Tracer::begin_async(const char* name, std::uint64_t req, int lane,
                        int parent) {
  Span s;
  s.name = name;
  s.req = req;
  s.lane = lane;
  s.parent = parent;
  s.sim_start = sim_now();
  s.wall_start = wall_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id, std::uint64_t bytes) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.wall_end = wall_ns();
  s.sim_end = sim_now();
  s.bytes += bytes;
  if (s.lane == 0 && !stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, Tracer::Total> Tracer::totals() const {
  // Self time: a span's duration minus its children's on the same lane
  // (sync children of sync spans, async children of async spans).
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if ((p.lane == 0) == (s.lane == 0)) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.wall_end - s.wall_start;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = out[s.name];
    t.wall_ns += s.wall_end - s.wall_start;
    t.self_ns += s.wall_end - s.wall_start - child_ns[i];
    t.count += 1;
    t.bytes += s.bytes;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().wall_start;
  const std::size_t n = std::min(spans_.size(), max_spans);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"req\":%llu,\"sim_start_us\":%.3f,"
                 "\"sim_end_us\":%.3f,\"bytes\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.lane,
                 static_cast<double>(s.wall_start - t0) / 1e3,
                 static_cast<double>(s.wall_end - s.wall_start) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.req),
                 sim::to_us(s.sim_start), sim::to_us(s.sim_end),
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

namespace {

struct AsyncTag {
  Tracer* tracer;
  std::uint64_t req;
  int lane;
  int parent;
};

template <typename T>
sim::Task<T> traced(AsyncTag tag, const char* name, sim::Task<T> inner) {
  const int id = tag.tracer->begin_async(name, tag.req, tag.lane, tag.parent);
  T r = co_await std::move(inner);
  tag.tracer->end(id);
  co_return r;
}

sim::Task<void> traced_void(AsyncTag tag, const char* name,
                            sim::Task<void> inner) {
  const int id = tag.tracer->begin_async(name, tag.req, tag.lane, tag.parent);
  co_await std::move(inner);
  tag.tracer->end(id);
}

class TracingBatch final : public verbs::ControlBatch {
 public:
  TracingBatch(std::unique_ptr<verbs::ControlBatch> inner, AsyncTag tag)
      : inner_(std::move(inner)), tag_(tag) {}

  int reg_mr(rnic::PdId pd, mem::Addr addr, std::uint64_t len,
             std::uint32_t access) override {
    return inner_->reg_mr(pd, addr, len, access);
  }
  int create_cq(int cqe) override { return inner_->create_cq(cqe); }
  int create_qp(const rnic::QpInitAttr& attr, int send_cq_slot,
                int recv_cq_slot) override {
    return inner_->create_qp(attr, send_cq_slot, recv_cq_slot);
  }
  int modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                std::uint32_t mask) override {
    return inner_->modify_qp(qpn, attr, mask);
  }
  int modify_qp_slot(int qp_slot, const rnic::QpAttr& attr,
                     std::uint32_t mask) override {
    return inner_->modify_qp_slot(qp_slot, attr, mask);
  }
  sim::Task<rnic::Status> commit() override {
    return traced(tag_, "verbs.batch_commit", inner_->commit());
  }
  rnic::Status status(int slot) const override { return inner_->status(slot); }
  std::uint64_t value(int slot) const override { return inner_->value(slot); }
  verbs::MrHandle mr(int slot) const override { return inner_->mr(slot); }
  int size() const override { return inner_->size(); }

 private:
  std::unique_ptr<verbs::ControlBatch> inner_;
  AsyncTag tag_;
};

class TracingContext final : public verbs::Context {
 public:
  TracingContext(verbs::Context& inner, AsyncTag tag)
      : inner_(inner), tag_(tag) {}

  std::string name() const override { return inner_.name(); }
  sim::EventLoop& loop() override { return inner_.loop(); }

  mem::Addr alloc_buffer(std::uint64_t len) override {
    ScopedSpan s(tag_.tracer, "mem.alloc_buffer", tag_.req);
    return inner_.alloc_buffer(len);
  }
  void write_buffer(mem::Addr addr, std::span<const std::uint8_t> in) override {
    ScopedSpan s(tag_.tracer, "mem.write_buffer", tag_.req);
    s.add_bytes(in.size());
    inner_.write_buffer(addr, in);
  }
  void read_buffer(mem::Addr addr, std::span<std::uint8_t> out) override {
    ScopedSpan s(tag_.tracer, "mem.read_buffer", tag_.req);
    s.add_bytes(out.size());
    inner_.read_buffer(addr, out);
  }

  sim::Task<rnic::Expected<rnic::PdId>> alloc_pd() override {
    return traced(tag_, "verbs.alloc_pd", inner_.alloc_pd());
  }
  sim::Task<rnic::Expected<verbs::MrHandle>> reg_mr(
      rnic::PdId pd, mem::Addr addr, std::uint64_t len,
      std::uint32_t access) override {
    return traced(tag_, "verbs.reg_mr", inner_.reg_mr(pd, addr, len, access));
  }
  sim::Task<rnic::Expected<rnic::Cqn>> create_cq(int cqe) override {
    return traced(tag_, "verbs.create_cq", inner_.create_cq(cqe));
  }
  sim::Task<rnic::Expected<rnic::Qpn>> create_qp(
      const rnic::QpInitAttr& attr) override {
    return traced(tag_, "verbs.create_qp", inner_.create_qp(attr));
  }
  sim::Task<rnic::Status> modify_qp(rnic::Qpn qpn, const rnic::QpAttr& attr,
                                    std::uint32_t mask) override {
    return traced(tag_, "verbs.modify_qp", inner_.modify_qp(qpn, attr, mask));
  }
  sim::Task<rnic::Expected<net::Gid>> query_gid() override {
    return traced(tag_, "verbs.query_gid", inner_.query_gid());
  }
  sim::Task<rnic::Expected<rnic::QpAttr>> query_qp(rnic::Qpn qpn) override {
    return traced(tag_, "verbs.query_qp", inner_.query_qp(qpn));
  }
  sim::Task<rnic::Status> destroy_qp(rnic::Qpn qpn) override {
    return traced(tag_, "verbs.destroy_qp", inner_.destroy_qp(qpn));
  }
  sim::Task<rnic::Status> destroy_cq(rnic::Cqn cq) override {
    return traced(tag_, "verbs.destroy_cq", inner_.destroy_cq(cq));
  }
  sim::Task<rnic::Status> dereg_mr(const verbs::MrHandle& mr) override {
    return traced(tag_, "verbs.dereg_mr", inner_.dereg_mr(mr));
  }
  sim::Task<rnic::Status> dealloc_pd(rnic::PdId pd) override {
    return traced(tag_, "verbs.dealloc_pd", inner_.dealloc_pd(pd));
  }

  rnic::Status post_send(rnic::Qpn qpn, const rnic::SendWr& wr) override {
    ScopedSpan s(tag_.tracer, "rnic.post_send", tag_.req);
    return inner_.post_send(qpn, wr);
  }
  rnic::Status post_recv(rnic::Qpn qpn, const rnic::RecvWr& wr) override {
    ScopedSpan s(tag_.tracer, "rnic.post_recv", tag_.req);
    return inner_.post_recv(qpn, wr);
  }
  int poll_cq(rnic::Cqn cq, int max_entries, rnic::Completion* out) override {
    ScopedSpan s(tag_.tracer, "rnic.poll_cq", tag_.req);
    return inner_.poll_cq(cq, max_entries, out);
  }
  sim::Future<bool> cq_nonempty(rnic::Cqn cq) override {
    return inner_.cq_nonempty(cq);
  }
  sim::Future<bool> next_rx_event(rnic::Qpn qpn) override {
    return inner_.next_rx_event(qpn);
  }
  sim::Time data_verb_call_time(verbs::DataVerb v) const override {
    return inner_.data_verb_call_time(v);
  }

  std::unique_ptr<verbs::ControlBatch> make_batch() override {
    return std::make_unique<TracingBatch>(inner_.make_batch(), tag_);
  }

  sim::Task<verbs::WarmEndpoint> acquire_warm(
      const net::Gid& peer_gid) override {
    return traced(tag_, "verbs.acquire_warm", inner_.acquire_warm(peer_gid));
  }
  sim::Task<void> release_warm(const verbs::WarmEndpoint& ep,
                               const net::Gid& peer_gid,
                               rnic::Qpn peer_qpn) override {
    return traced_void(tag_, "verbs.release_warm",
                       inner_.release_warm(ep, peer_gid, peer_qpn));
  }
  sim::Task<void> discard_warm(const verbs::WarmEndpoint& ep) override {
    return traced_void(tag_, "verbs.discard_warm", inner_.discard_warm(ep));
  }
  void invalidate_warm(const net::Gid& peer_gid) override {
    inner_.invalidate_warm(peer_gid);
  }

  overlay::OobEndpoint& oob() override { return inner_.oob(); }
  sim::Time scale_compute(sim::Time host_time) const override {
    return inner_.scale_compute(host_time);
  }
  double virtualization_cpu_cores() const override {
    return inner_.virtualization_cpu_cores();
  }

 private:
  verbs::Context& inner_;
  AsyncTag tag_;
};

}  // namespace

std::unique_ptr<verbs::Context> make_tracing_context(verbs::Context& inner,
                                                     Tracer& tracer,
                                                     std::uint64_t req,
                                                     int lane, int parent) {
  return std::make_unique<TracingContext>(inner,
                                          AsyncTag{&tracer, req, lane, parent});
}

}  // namespace perfbench
