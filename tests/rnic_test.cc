// RNIC device tests: QP state machine (Fig. 5), Table-2 ERROR-state
// behaviour, data integrity for send/write/read, protection-domain and
// function isolation, RC ordering, VF rate limiting, the VXLAN tunnel-table
// cache, and failure injection (RNR, remote access errors, unroutable
// virtual addresses).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mem/physical_memory.h"
#include "net/fluid.h"
#include "rnic/device.h"
#include "sim/event_loop.h"

using namespace sim::literals;

namespace {

using rnic::Completion;
using rnic::QpState;
using rnic::Qpn;
using rnic::RecvWr;
using rnic::SendWr;
using rnic::Status;
using rnic::WcStatus;
using rnic::WrOpcode;

net::Ipv4Addr ip(const std::string& s) { return *net::Ipv4Addr::parse(s); }

class MapRouter : public rnic::FabricRouter {
 public:
  void add(rnic::RnicDevice* dev) { by_ip_[dev->config().ip] = dev; }
  rnic::RnicDevice* device_by_ip(net::Ipv4Addr a) override {
    auto it = by_ip_.find(a);
    return it == by_ip_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<net::Ipv4Addr, rnic::RnicDevice*> by_ip_;
};

struct Endpoint {
  rnic::PdId pd = 0;
  rnic::Cqn scq = 0;
  rnic::Cqn rcq = 0;
  Qpn qp = 0;
  rnic::Key key = 0;
  mem::Addr va = 0;
  mem::Addr hpa = 0;
  std::uint64_t buf_len = 0;
};

class RnicTest : public ::testing::Test {
 protected:
  RnicTest() {
    rnic::DeviceConfig ca;
    ca.name = "rnic-a";
    ca.ip = ip("10.0.0.1");
    ca.mac = net::MacAddr::from_u64(0xa);
    rnic::DeviceConfig cb = ca;
    cb.name = "rnic-b";
    cb.ip = ip("10.0.0.2");
    cb.mac = net::MacAddr::from_u64(0xb);
    a_ = std::make_unique<rnic::RnicDevice>(loop_, net_, phys_, ca);
    b_ = std::make_unique<rnic::RnicDevice>(loop_, net_, phys_, cb);
    router_.add(a_.get());
    router_.add(b_.get());
    a_->attach(&router_);
    b_->attach(&router_);
  }

  Endpoint make_ep(rnic::RnicDevice& dev, rnic::FnId fn = rnic::kPf,
                   std::uint64_t buf_len = 16384,
                   std::uint32_t access = rnic::kLocalWrite |
                                          rnic::kRemoteWrite |
                                          rnic::kRemoteRead,
                   rnic::QpType type = rnic::QpType::kRc,
                   std::uint32_t max_wr = 128) {
    Endpoint e;
    e.pd = dev.alloc_pd(fn).value;
    e.scq = dev.create_cq(fn, 1024).value;
    e.rcq = dev.create_cq(fn, 1024).value;
    rnic::QpInitAttr init;
    init.type = type;
    init.pd = e.pd;
    init.send_cq = e.scq;
    init.recv_cq = e.rcq;
    init.caps.max_send_wr = max_wr;
    init.caps.max_recv_wr = 1024;
    e.qp = dev.create_qp(fn, init).value;
    const auto pages = mem::page_ceil(buf_len) / mem::kPageSize;
    e.hpa = phys_.alloc_pages(pages);
    e.va = 0x7f0000000000ull + e.hpa;
    e.buf_len = buf_len;
    auto mr = dev.create_mr(fn, e.pd, e.va, buf_len, access,
                            {{e.hpa, buf_len}});
    EXPECT_TRUE(mr.ok());
    e.key = mr.value.lkey;
    return e;
  }

  // Brings both QPs to RTS, each pointing at the peer's *physical* GID.
  void connect(rnic::RnicDevice& da, Endpoint& ea, rnic::RnicDevice& db,
               Endpoint& eb) {
    rnic::QpAttr attr;
    attr.state = QpState::kInit;
    ASSERT_EQ(da.modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
    ASSERT_EQ(db.modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
    attr.state = QpState::kRtr;
    attr.dest_gid = net::Gid::from_ipv4(db.config().ip);
    attr.dest_qpn = eb.qp;
    ASSERT_EQ(da.modify_qp(ea.qp, attr,
                           rnic::kAttrState | rnic::kAttrDestGid |
                               rnic::kAttrDestQpn),
              Status::kOk);
    attr.dest_gid = net::Gid::from_ipv4(da.config().ip);
    attr.dest_qpn = ea.qp;
    ASSERT_EQ(db.modify_qp(eb.qp, attr,
                           rnic::kAttrState | rnic::kAttrDestGid |
                               rnic::kAttrDestQpn),
              Status::kOk);
    attr.state = QpState::kRts;
    ASSERT_EQ(da.modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
    ASSERT_EQ(db.modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
  }

  void fill(const Endpoint& e, std::uint64_t off, std::string_view data) {
    phys_.write(e.hpa + off, {reinterpret_cast<const std::uint8_t*>(
                                  data.data()),
                              data.size()});
  }
  std::string peek(const Endpoint& e, std::uint64_t off, std::size_t n) {
    std::vector<std::uint8_t> buf(n);
    phys_.read(e.hpa + off, buf);
    return std::string(buf.begin(), buf.end());
  }

  std::vector<Completion> drain(rnic::RnicDevice& dev, rnic::Cqn cq) {
    std::vector<Completion> out;
    Completion c;
    while (dev.poll_cq(cq, 1, &c) == 1) out.push_back(c);
    return out;
  }

  sim::EventLoop loop_;
  net::FluidNet net_{loop_};
  mem::HostPhysMap phys_{4096 * mem::kPageSize};
  MapRouter router_;
  std::unique_ptr<rnic::RnicDevice> a_, b_;
};

// ------------------------------------------------------------ state machine

TEST_F(RnicTest, FsmLadderResetToRts) {
  auto e = make_ep(*a_);
  EXPECT_EQ(a_->qp_state(e.qp), QpState::kReset);
  rnic::QpAttr attr;
  attr.state = QpState::kRtr;
  EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState),
            Status::kInvalidState);  // RESET -> RTR skips INIT
  attr.state = QpState::kInit;
  EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRts;
  EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState),
            Status::kInvalidState);  // INIT -> RTS skips RTR
  attr.state = QpState::kRtr;
  EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRts;
  EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk);
}

TEST_F(RnicTest, AnyStateReachesErrorAndOnlyResetLeavesIt) {
  for (QpState s : {QpState::kReset, QpState::kInit, QpState::kRtr,
                    QpState::kRts}) {
    auto e = make_ep(*a_);
    rnic::QpAttr attr;
    // Walk to the target state.
    for (QpState step : {QpState::kInit, QpState::kRtr, QpState::kRts}) {
      if (static_cast<int>(step) > static_cast<int>(s)) break;
      attr.state = step;
      ASSERT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk);
    }
    attr.state = QpState::kError;
    EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk)
        << "from state " << rnic::to_string(s);
    attr.state = QpState::kRts;
    EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState),
              Status::kInvalidState);
    attr.state = QpState::kReset;
    EXPECT_EQ(a_->modify_qp(e.qp, attr, rnic::kAttrState), Status::kOk);
  }
}

TEST_F(RnicTest, SqdPausesTransmitUntilResumed) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  rnic::QpAttr attr;
  attr.state = QpState::kSqd;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  fill(ea, 0, "drain-test");
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{2, WrOpcode::kSend, {ea.va, 10, ea.key}}),
      Status::kOk);
  loop_.run();
  EXPECT_TRUE(drain(*b_, eb.rcq).empty());  // nothing sent while drained
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*b_, eb.rcq).size(), 1u);
}

// ----------------------------------------------------------- data transfers

TEST_F(RnicTest, SendRecvMovesRealBytes) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  fill(ea, 0, "hello rdma world");
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{7, {eb.va, 64, eb.key}}), Status::kOk);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{9, WrOpcode::kSend, {ea.va, 16, ea.key}}),
      Status::kOk);
  loop_.run();
  auto send_cqes = drain(*a_, ea.scq);
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].wr_id, 9u);
  EXPECT_EQ(send_cqes[0].status, WcStatus::kSuccess);
  auto recv_cqes = drain(*b_, eb.rcq);
  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].wr_id, 7u);
  EXPECT_EQ(recv_cqes[0].byte_len, 16u);
  EXPECT_EQ(peek(eb, 0, 16), "hello rdma world");
}

TEST_F(RnicTest, RdmaWriteLandsAtRemoteOffsetWithoutRecvWqe) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  fill(ea, 0, "one-sided");
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 9, ea.key}};
  wr.remote_addr = eb.va + 100;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  EXPECT_EQ(peek(eb, 100, 9), "one-sided");
  ASSERT_EQ(drain(*a_, ea.scq).size(), 1u);
  EXPECT_TRUE(drain(*b_, eb.rcq).empty());  // no CQE at the target
}

TEST_F(RnicTest, RetransmitResendsTheBytesAsPosted) {
  // The responder sits in INIT, so the first attempt is dropped unacked.
  // The requester's buffer is then overwritten before the responder comes
  // up: the retransmission must carry the bytes read at post time.
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(b_->config().ip);
  attr.dest_qpn = eb.qp;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr,
                          rnic::kAttrState | rnic::kAttrDestGid |
                              rnic::kAttrDestQpn),
            Status::kOk);
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);

  fill(ea, 0, "as posted");
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 9, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run_until(1_ms);  // delivered and dropped; retry timer pending
  ASSERT_EQ(b_->counters().dropped_bad_state, 1u);
  ASSERT_EQ(a_->counters().retransmits, 0u);
  fill(ea, 0, "rewritten");

  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(a_->config().ip);
  attr.dest_qpn = ea.qp;
  ASSERT_EQ(b_->modify_qp(eb.qp, attr,
                          rnic::kAttrState | rnic::kAttrDestGid |
                              rnic::kAttrDestQpn),
            Status::kOk);
  loop_.run();
  EXPECT_EQ(a_->counters().retransmits, 1u);
  EXPECT_EQ(peek(eb, 0, 9), "as posted");
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kSuccess);
}

TEST_F(RnicTest, RdmaReadFetchesRemoteBytes) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  fill(eb, 200, "read-me-remotely");
  SendWr wr{3, WrOpcode::kRdmaRead, {ea.va + 50, 16, ea.key}};
  wr.remote_addr = eb.va + 200;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kSuccess);
  EXPECT_EQ(cqes[0].opcode, rnic::WcOpcode::kRdmaRead);
  EXPECT_EQ(peek(ea, 50, 16), "read-me-remotely");
}

TEST_F(RnicTest, UnsignaledSendRaisesNoCqe) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  SendWr wr{2, WrOpcode::kSend, {ea.va, 8, ea.key}};
  wr.signaled = false;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  EXPECT_TRUE(drain(*a_, ea.scq).empty());
  EXPECT_EQ(drain(*b_, eb.rcq).size(), 1u);
}

TEST_F(RnicTest, CompletionsArriveInPostingOrderAcrossSizes) {
  auto ea = make_ep(*a_, rnic::kPf, 64 * 1024);
  auto eb = make_ep(*b_, rnic::kPf, 64 * 1024);
  connect(*a_, ea, *b_, eb);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(
        b_->post_recv(eb.qp, RecvWr{static_cast<std::uint64_t>(i), {eb.va + 8192u * i, 8192, eb.key}}),
        Status::kOk);
  }
  // Alternate large and tiny messages; RC must complete them in order.
  const std::uint32_t sizes[] = {8000, 2, 4000, 2, 8000, 2};
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(
        a_->post_send(ea.qp, SendWr{static_cast<std::uint64_t>(100 + i), WrOpcode::kSend, {ea.va, sizes[i], ea.key}}),
        Status::kOk);
  }
  loop_.run();
  auto send_cqes = drain(*a_, ea.scq);
  ASSERT_EQ(send_cqes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(send_cqes[i].wr_id, 100u + i);
  }
  auto recv_cqes = drain(*b_, eb.rcq);
  ASSERT_EQ(recv_cqes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(recv_cqes[i].wr_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(recv_cqes[i].byte_len, sizes[i]);
  }
}

TEST_F(RnicTest, MultiPageMrWithDiscontiguousMtt) {
  // MR covering two non-adjacent physical pages: DMA must follow the MTT.
  auto fn = rnic::kPf;
  auto pd = a_->alloc_pd(fn).value;
  auto scq = a_->create_cq(fn, 16).value;
  auto rcq = a_->create_cq(fn, 16).value;
  const mem::Addr p1 = phys_.alloc_pages(1);
  (void)phys_.alloc_pages(1);  // hole
  const mem::Addr p2 = phys_.alloc_pages(1);
  ASSERT_NE(p1 + mem::kPageSize, p2);
  const mem::Addr va = 0x7f5000000000ull;
  auto mr = a_->create_mr(fn, pd, va, 2 * mem::kPageSize,
                          rnic::kLocalWrite | rnic::kRemoteWrite,
                          {{p1, mem::kPageSize}, {p2, mem::kPageSize}});
  ASSERT_TRUE(mr.ok());
  rnic::QpInitAttr init;
  init.pd = pd;
  init.send_cq = scq;
  init.recv_cq = rcq;
  auto qp = a_->create_qp(fn, init).value;

  auto eb = make_ep(*b_);
  Endpoint ea;
  ea.pd = pd; ea.scq = scq; ea.rcq = rcq; ea.qp = qp;
  ea.key = mr.value.lkey; ea.va = va; ea.hpa = p1;
  connect(*a_, ea, *b_, eb);

  // Write a string straddling the page boundary.
  const std::string msg = "crosses-the-page-boundary";
  const std::uint64_t off = mem::kPageSize - 10;
  phys_.write(p1 + off, {reinterpret_cast<const std::uint8_t*>(msg.data()),
                         10});
  phys_.write(p2, {reinterpret_cast<const std::uint8_t*>(msg.data()) + 10,
                   msg.size() - 10});
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  ASSERT_EQ(
      a_->post_send(qp, SendWr{2, WrOpcode::kSend, {va + off, static_cast<std::uint32_t>(msg.size()), mr.value.lkey}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(peek(eb, 0, msg.size()), msg);
}

// ------------------------------------------------------- errors & isolation

TEST_F(RnicTest, RnrWhenNoRecvWqePosted) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend, {ea.va, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kRnrRetryExc);
  EXPECT_EQ(a_->qp_state(ea.qp), QpState::kSqe);
  EXPECT_EQ(b_->counters().rnr_drops, 1u);
}

TEST_F(RnicTest, BadRkeyTriggersRemoteAccessNak) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 8, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = 0xdead;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kRemAccessErr);
  EXPECT_EQ(b_->qp_state(eb.qp), QpState::kError);  // responder fails too
  EXPECT_EQ(b_->counters().remote_access_naks, 1u);
}

TEST_F(RnicTest, WriteBeyondMrBoundsRejected) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 64, ea.key}};
  wr.remote_addr = eb.va + eb.buf_len - 8;  // 64 bytes won't fit
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kRemAccessErr);
}

TEST_F(RnicTest, WriteWithoutRemoteWriteAccessRejected) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_, rnic::kPf, 16384, rnic::kLocalWrite);  // no RW
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 8, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  ASSERT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kRemAccessErr);
}

TEST_F(RnicTest, LocalSgeOutsideMrFailsLocally) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend, {ea.va + ea.buf_len, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kLocProtErr);
  EXPECT_EQ(a_->qp_state(ea.qp), QpState::kSqe);
}

TEST_F(RnicTest, MrFromAnotherPdRejected) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  // Second PD on the same function; MR belongs to it, QP does not.
  auto pd2 = a_->alloc_pd(rnic::kPf).value;
  const mem::Addr hpa = phys_.alloc_pages(1);
  auto mr2 = a_->create_mr(rnic::kPf, pd2, 0x7f9000000000ull, 4096,
                           rnic::kLocalWrite, {{hpa, 4096}});
  ASSERT_TRUE(mr2.ok());
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend, {0x7f9000000000ull, 8, mr2.value.lkey}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kLocProtErr);
}

TEST_F(RnicTest, VfCannotUseAnotherFunctionsMr) {
  // QP on VF1, MR registered on PF: the NIC must reject it (one VM cannot
  // touch resources of another — §3.3.2 user memory security).
  auto ea_pf = make_ep(*a_);                 // PF MR
  auto ea_vf = make_ep(*a_, 1);              // VF1 QP
  auto eb = make_ep(*b_);
  connect(*a_, ea_vf, *b_, eb);
  ASSERT_EQ(
      a_->post_send(ea_vf.qp, SendWr{1, WrOpcode::kSend, {ea_pf.va, 8, ea_pf.key}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea_vf.scq)[0].status, WcStatus::kLocProtErr);
}

TEST_F(RnicTest, UnroutableVirtualGidTimesOut) {
  // What happens *without* RConnrename: the QPC holds a tenant-virtual GID
  // that no underlay device owns; retries exhaust.
  auto ea = make_ep(*a_);
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(ip("192.168.1.2"));  // virtual!
  attr.dest_qpn = 42;
  ASSERT_EQ(
      a_->modify_qp(ea.qp, attr, rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn),
      Status::kOk);
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend, {ea.va, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kTransportRetryExc);
  EXPECT_EQ(a_->counters().dropped_no_route, 1u);
}

// --------------------------------------------------- Table 2: ERROR state

TEST_F(RnicTest, ModifyToErrorFlushesQueuedWqes) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  rnic::QpAttr attr;
  attr.state = QpState::kSqd;  // park the engine so WQEs stay queued
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        a_->post_send(ea.qp, SendWr{static_cast<std::uint64_t>(i), WrOpcode::kSend, {ea.va, 8, ea.key}}),
        Status::kOk);
  }
  ASSERT_EQ(a_->post_recv(ea.qp, RecvWr{77, {ea.va, 64, ea.key}}), Status::kOk);
  attr.state = QpState::kError;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  loop_.run();
  auto send_cqes = drain(*a_, ea.scq);
  ASSERT_EQ(send_cqes.size(), 3u);
  for (auto& c : send_cqes) EXPECT_EQ(c.status, WcStatus::kWrFlushErr);
  auto recv_cqes = drain(*a_, ea.rcq);
  ASSERT_EQ(recv_cqes.size(), 1u);
  EXPECT_EQ(recv_cqes[0].status, WcStatus::kWrFlushErr);
  EXPECT_EQ(recv_cqes[0].wr_id, 77u);
}

TEST_F(RnicTest, PostingInErrorStateAllowedButFlushes) {
  // Table 2, application rows: post_send / post_recv are allowed in ERROR
  // and complete with flush errors; poll still works.
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  rnic::QpAttr attr;
  attr.state = QpState::kError;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  EXPECT_EQ(a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend,
                                        {ea.va, 8, ea.key}}),
            Status::kOk);
  EXPECT_EQ(a_->post_recv(ea.qp, RecvWr{2, {ea.va, 8, ea.key}}), Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kWrFlushErr);
  EXPECT_EQ(drain(*a_, ea.rcq)[0].status, WcStatus::kWrFlushErr);
}

TEST_F(RnicTest, ErrorQpDropsIncomingPackets) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  rnic::QpAttr attr;
  attr.state = QpState::kError;
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
  // The post flushes immediately (Table 2) but is itself accepted.
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}),
            Status::kOk);
  ASSERT_EQ(a_->post_send(ea.qp, SendWr{2, WrOpcode::kSend,
                                        {ea.va, 8, ea.key}}),
            Status::kOk);
  loop_.run();
  EXPECT_GE(b_->counters().dropped_bad_state, 1u);
  // Sender sees retry-exceeded since the responder never acks.
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kTransportRetryExc);
}

TEST_F(RnicTest, ErrorKillsInFlightTransfer) {
  auto ea = make_ep(*a_, rnic::kPf, 1 << 20);
  auto eb = make_ep(*b_, rnic::kPf, 1 << 20);
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 1 << 20, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  // 1 MiB at 40 Gbps needs ~210 us; kill the QP at 50 us.
  loop_.run_until(50_us);
  EXPECT_GT(net_.active_flows(), 0u);
  rnic::QpAttr attr;
  attr.state = QpState::kError;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  loop_.run();
  EXPECT_EQ(net_.active_flows(), 0u);  // flow cancelled, no data flows
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kWrFlushErr);
}

// ------------------------------------------------------------ housekeeping

TEST_F(RnicTest, CqOverflowLatchesFlag) {
  auto fn = rnic::kPf;
  auto pd = a_->alloc_pd(fn).value;
  auto tiny = a_->create_cq(fn, 1).value;
  auto rcq = a_->create_cq(fn, 16).value;
  rnic::QpInitAttr init;
  init.pd = pd;
  init.send_cq = tiny;
  init.recv_cq = rcq;
  auto qp = a_->create_qp(fn, init).value;
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  ASSERT_EQ(a_->modify_qp(qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kError;  // INIT -> ERROR ok; flush 2 sends into cq(1)
  // Park two sends first: posting in INIT is rejected, so go through RTR.
  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(b_->config().ip);
  attr.dest_qpn = 1;
  ASSERT_EQ(
      a_->modify_qp(qp, attr, rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn),
      Status::kOk);
  const mem::Addr hpa = phys_.alloc_pages(1);
  auto mr = a_->create_mr(fn, pd, 0x7fa000000000ull, 4096, rnic::kLocalWrite,
                          {{hpa, 4096}});
  // In RTR the send engine is paused, so these stay queued.
  ASSERT_EQ(
      a_->post_send(qp, SendWr{1, WrOpcode::kSend, {0x7fa000000000ull, 8, mr.value.lkey}}),
      Status::kOk);
  ASSERT_EQ(
      a_->post_send(qp, SendWr{2, WrOpcode::kSend, {0x7fa000000000ull, 8, mr.value.lkey}}),
      Status::kOk);
  attr.state = QpState::kError;
  ASSERT_EQ(a_->modify_qp(qp, attr, rnic::kAttrState), Status::kOk);
  loop_.run();
  EXPECT_TRUE(a_->cq_overflowed(tiny));
  Completion c;
  EXPECT_EQ(a_->poll_cq(tiny, 1, &c), 1);  // first CQE survived
}

TEST_F(RnicTest, DoorbellMmioKicksQp) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  fill(ea, 0, "via doorbell");
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{2, WrOpcode::kSend, {ea.va, 12, ea.key}}),
      Status::kOk);
  // Redundant doorbell through the BAR must be harmless and kick the QP.
  phys_.write_u64(a_->doorbell_bar() + ea.qp * 8, 1);
  loop_.run();
  EXPECT_EQ(peek(eb, 0, 12), "via doorbell");
}

TEST_F(RnicTest, SendQueueCapacityEnforced) {
  auto ea = make_ep(*a_, rnic::kPf, 16384,
                    rnic::kLocalWrite | rnic::kRemoteWrite | rnic::kRemoteRead,
                    rnic::QpType::kRc, /*max_wr=*/4);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  rnic::QpAttr attr;
  attr.state = QpState::kSqd;  // hold the engine so the queue fills
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a_->post_send(ea.qp, SendWr{static_cast<std::uint64_t>(i),
                                          WrOpcode::kSend,
                                          {ea.va, 8, ea.key}}),
              Status::kOk);
  }
  EXPECT_EQ(a_->post_send(ea.qp, SendWr{9, WrOpcode::kSend,
                                        {ea.va, 8, ea.key}}),
            Status::kQueueFull);
  loop_.run();
}

TEST_F(RnicTest, DestroyQpWithInflightTrafficIsSafe) {
  auto ea = make_ep(*a_, rnic::kPf, 1 << 20);
  auto eb = make_ep(*b_, rnic::kPf, 1 << 20);
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 1 << 20, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run_until(50_us);
  EXPECT_EQ(a_->destroy_qp(ea.qp), Status::kOk);
  loop_.run();  // must not crash or leak flows
  EXPECT_EQ(net_.active_flows(), 0u);
}

// ------------------------------------------------------------- QoS limiter

TEST_F(RnicTest, VfRateLimiterCapsThroughput) {
  auto ea = make_ep(*a_, /*fn=*/1, 1 << 20);
  auto eb = make_ep(*b_, rnic::kPf, 1 << 20);
  connect(*a_, ea, *b_, eb);
  a_->set_vf_rate_limit(1, 10.0);
  EXPECT_NEAR(a_->vf_rate_limit_gbps(1), 10.0, 1e-9);
  SendWr wr{1, WrOpcode::kRdmaWrite, {ea.va, 1 << 20, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  // 1 MiB (+ header overhead) at 10 Gbps = ~876 us; at 40 Gbps it would be
  // ~219 us. Assert we're in the limited regime.
  loop_.run_until(800_us);
  EXPECT_TRUE(drain(*a_, ea.scq).empty());
  loop_.run_until(1000_us);
  auto cqes = drain(*a_, ea.scq);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, WcStatus::kSuccess);
  loop_.run();
}

TEST_F(RnicTest, PfHasNoRateLimiter) {
  EXPECT_THROW(a_->set_vf_rate_limit(rnic::kPf, 10.0), std::invalid_argument);
}

// --------------------------------------------------------- UD (§3.3.4)

TEST_F(RnicTest, UdSendDeliversWithMatchingQkey) {
  auto ea = make_ep(*a_, rnic::kPf, 16384,
                    rnic::kLocalWrite | rnic::kRemoteWrite | rnic::kRemoteRead,
                    rnic::QpType::kUd);
  auto eb = make_ep(*b_, rnic::kPf, 16384,
                    rnic::kLocalWrite | rnic::kRemoteWrite | rnic::kRemoteRead,
                    rnic::QpType::kUd);
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  attr.qkey = 0x1111;
  ASSERT_EQ(
      a_->modify_qp(ea.qp, attr, rnic::kAttrState | rnic::kAttrQkey),
      Status::kOk);
  ASSERT_EQ(
      b_->modify_qp(eb.qp, attr, rnic::kAttrState | rnic::kAttrQkey),
      Status::kOk);
  attr.state = QpState::kRtr;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);

  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  fill(ea, 0, "datagram");
  SendWr wr{2, WrOpcode::kSend, {ea.va, 8, ea.key}};
  wr.ud = {net::Gid::from_ipv4(b_->config().ip), eb.qp, 0x1111};
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  EXPECT_EQ(peek(eb, 0, 8), "datagram");
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kSuccess);

  // Wrong Q-Key: silently dropped, but the (unreliable) sender still
  // completes successfully.
  ASSERT_EQ(
      b_->post_recv(eb.qp, RecvWr{3, {eb.va + 100, 64, eb.key}}),
      Status::kOk);
  wr.wr_id = 4;
  wr.ud.qkey = 0x2222;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kSuccess);
  EXPECT_TRUE(drain(*b_, eb.rcq).size() == 1u);  // only the first landed
}

TEST_F(RnicTest, WriteWithImmediateDeliversDataAndImm) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  fill(ea, 0, "imm payload");
  ASSERT_EQ(
      b_->post_recv(eb.qp, RecvWr{42, {eb.va + 8192, 64, eb.key}}),
      Status::kOk);
  SendWr wr{7, WrOpcode::kRdmaWriteImm, {ea.va, 11, ea.key}};
  wr.remote_addr = eb.va + 256;
  wr.rkey = eb.key;
  wr.imm = 0xCAFEBABE;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  // Data landed at the rkey-addressed location...
  EXPECT_EQ(peek(eb, 256, 11), "imm payload");
  // ...and the immediate arrived via a consumed recv WQE.
  auto rx = drain(*b_, eb.rcq);
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].wr_id, 42u);
  EXPECT_EQ(rx[0].opcode, rnic::WcOpcode::kRecvRdmaWithImm);
  EXPECT_EQ(rx[0].imm, 0xCAFEBABEu);
  EXPECT_EQ(rx[0].byte_len, 11u);
  auto tx = drain(*a_, ea.scq);
  ASSERT_EQ(tx.size(), 1u);
  EXPECT_EQ(tx[0].status, WcStatus::kSuccess);
  EXPECT_EQ(tx[0].opcode, rnic::WcOpcode::kRdmaWrite);
}

TEST_F(RnicTest, WriteWithImmediateNeedsRecvWqe) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  SendWr wr{1, WrOpcode::kRdmaWriteImm, {ea.va, 8, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = eb.key;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  // No recv WQE posted: RNR, like a send.
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kRnrRetryExc);
  EXPECT_EQ(b_->counters().rnr_drops, 1u);
}

TEST_F(RnicTest, WriteWithImmediateChecksRkeyLikePlainWrite) {
  auto ea = make_ep(*a_);
  auto eb = make_ep(*b_);
  connect(*a_, ea, *b_, eb);
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  SendWr wr{2, WrOpcode::kRdmaWriteImm, {ea.va, 8, ea.key}};
  wr.remote_addr = eb.va;
  wr.rkey = 0xbad;
  ASSERT_EQ(a_->post_send(ea.qp, wr), Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kRemAccessErr);
}

// ----------------------------------------------- VXLAN offload (SR-IOV)

TEST_F(RnicTest, VxlanOffloadDeliversBetweenTenantVfs) {
  // VF1 on each device carries tenant addresses; tunnel tables map the
  // peer's virtual GID to the physical one.
  a_->set_fn_address(1, ip("192.168.1.1"), net::MacAddr::from_u64(0x1a), 100,
                     /*vxlan_offload=*/true);
  b_->set_fn_address(1, ip("192.168.1.2"), net::MacAddr::from_u64(0x1b), 100,
                     true);
  a_->program_tunnel(net::Gid::from_ipv4(ip("192.168.1.2")),
                     {net::Gid::from_ipv4(b_->config().ip), 100});
  b_->program_tunnel(net::Gid::from_ipv4(ip("192.168.1.1")),
                     {net::Gid::from_ipv4(a_->config().ip), 100});

  auto ea = make_ep(*a_, 1);
  auto eb = make_ep(*b_, 1);
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(ip("192.168.1.2"));  // virtual peer
  attr.dest_qpn = eb.qp;
  ASSERT_EQ(
      a_->modify_qp(ea.qp, attr, rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn),
      Status::kOk);
  attr.dest_gid = net::Gid::from_ipv4(ip("192.168.1.1"));
  attr.dest_qpn = ea.qp;
  ASSERT_EQ(
      b_->modify_qp(eb.qp, attr, rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn),
      Status::kOk);
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(b_->modify_qp(eb.qp, attr, rnic::kAttrState), Status::kOk);

  fill(ea, 0, "tunneled");
  ASSERT_EQ(b_->post_recv(eb.qp, RecvWr{1, {eb.va, 64, eb.key}}), Status::kOk);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{2, WrOpcode::kSend, {ea.va, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(peek(eb, 0, 8), "tunneled");
  EXPECT_EQ(a_->tunnel_cache_misses(), 1u);  // cold cache
  // Second message hits the cache.
  ASSERT_EQ(
      b_->post_recv(eb.qp, RecvWr{3, {eb.va + 64, 64, eb.key}}),
      Status::kOk);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{4, WrOpcode::kSend, {ea.va, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(a_->tunnel_cache_misses(), 1u);
  EXPECT_EQ(a_->tunnel_cache_hits(), 1u);
}

TEST_F(RnicTest, MissingTunnelEntryFailsTheSend) {
  a_->set_fn_address(1, ip("192.168.1.1"), net::MacAddr::from_u64(0x1a), 100,
                     true);
  auto ea = make_ep(*a_, 1);
  rnic::QpAttr attr;
  attr.state = QpState::kInit;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  attr.state = QpState::kRtr;
  attr.dest_gid = net::Gid::from_ipv4(ip("192.168.1.9"));  // unknown peer
  attr.dest_qpn = 5;
  ASSERT_EQ(
      a_->modify_qp(ea.qp, attr, rnic::kAttrState | rnic::kAttrDestGid | rnic::kAttrDestQpn),
      Status::kOk);
  attr.state = QpState::kRts;
  ASSERT_EQ(a_->modify_qp(ea.qp, attr, rnic::kAttrState), Status::kOk);
  ASSERT_EQ(
      a_->post_send(ea.qp, SendWr{1, WrOpcode::kSend, {ea.va, 8, ea.key}}),
      Status::kOk);
  loop_.run();
  EXPECT_EQ(drain(*a_, ea.scq)[0].status, WcStatus::kTransportRetryExc);
}

}  // namespace
