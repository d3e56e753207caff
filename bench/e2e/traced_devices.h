// bench/e2e/traced_devices.h - decorators that put the benchmark's spans and
// counters on the device boundaries of the traced pass.
//
// TracedNetDev wraps the server NIC: the stack (or KvServer) is handed the
// decorator instead of the VirtioNet, so every RX/TX burst is a uknetdev span
// and is counted. TracedBlockDev does the same for the RamDisk under BlockFs.
// Both only forward: they never charge the world's clock.
#ifndef BENCH_E2E_TRACED_DEVICES_H_
#define BENCH_E2E_TRACED_DEVICES_H_

#include <cstdint>

#include "bench/e2e/tracer.h"
#include "ukblockdev/blockdev.h"
#include "uknetdev/netdev.h"

namespace e2e {

class TracedNetDev final : public uknetdev::NetDev {
 public:
  struct Counts {
    std::uint64_t rx_calls = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t tx_calls = 0;
    std::uint64_t tx_frames = 0;
  };

  TracedNetDev(uknetdev::NetDev* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  uknetdev::DevInfo Info() const override { return inner_->Info(); }
  uknetdev::MacAddr mac() const override { return inner_->mac(); }
  ukarch::Status Configure(const uknetdev::DevConf& conf) override {
    return inner_->Configure(conf);
  }
  ukarch::Status TxQueueSetup(std::uint16_t queue,
                              const uknetdev::TxQueueConf& conf) override {
    return inner_->TxQueueSetup(queue, conf);
  }
  ukarch::Status RxQueueSetup(std::uint16_t queue,
                              const uknetdev::RxQueueConf& conf) override {
    return inner_->RxQueueSetup(queue, conf);
  }
  ukarch::Status Start() override { return inner_->Start(); }

  int TxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt,
              std::uint16_t* cnt) override {
    ScopedSpan span(tracer_, Layer::kUknetdev);
    const int rc = inner_->TxBurst(queue, pkt, cnt);
    ++counts_.tx_calls;
    counts_.tx_frames += *cnt;
    return rc;
  }
  int RxBurst(std::uint16_t queue, uknetdev::NetBuf** pkt,
              std::uint16_t* cnt) override {
    ScopedSpan span(tracer_, Layer::kUknetdev);
    const int rc = inner_->RxBurst(queue, pkt, cnt);
    ++counts_.rx_calls;
    counts_.rx_frames += *cnt;
    return rc;
  }

  ukarch::Status RxIntrEnable(std::uint16_t queue) override {
    return inner_->RxIntrEnable(queue);
  }
  ukarch::Status RxIntrDisable(std::uint16_t queue) override {
    return inner_->RxIntrDisable(queue);
  }
  Stats stats() const override { return inner_->stats(); }
  Stats QueueStats(std::uint16_t queue) const override {
    return inner_->QueueStats(queue);
  }

  const Counts& counts() const { return counts_; }

 private:
  uknetdev::NetDev* inner_;
  Tracer* tracer_;
  Counts counts_;
};

class TracedBlockDev final : public ukblockdev::BlockDev {
 public:
  struct Counts {
    std::uint64_t submits = 0;
    std::uint64_t bytes = 0;  // read + write payload
  };

  TracedBlockDev(ukblockdev::BlockDev* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {
    // Completions surface through this device's handler, not the inner one.
    inner_->SetCompletionHandler(
        [this](ukblockdev::Request* req) { Complete(req, req->result); });
  }
  ~TracedBlockDev() override { inner_->SetCompletionHandler(nullptr); }
  TracedBlockDev(const TracedBlockDev&) = delete;
  TracedBlockDev& operator=(const TracedBlockDev&) = delete;

  const char* name() const override { return inner_->name(); }
  ukblockdev::Geometry geometry() const override { return inner_->geometry(); }

  bool Submit(ukblockdev::Request* req) override {
    ScopedSpan span(tracer_, Layer::kBlockdev);
    ++counts_.submits;
    if (req->op != ukblockdev::Request::Op::kFlush) {
      counts_.bytes +=
          static_cast<std::uint64_t>(req->count) * inner_->geometry().sector_bytes;
    }
    return inner_->Submit(req);
  }
  std::size_t ProcessCompletions(std::size_t max) override {
    ScopedSpan span(tracer_, Layer::kBlockdev);
    return inner_->ProcessCompletions(max);
  }

  const Counts& counts() const { return counts_; }

 private:
  ukblockdev::BlockDev* inner_;
  Tracer* tracer_;
  Counts counts_;
};

}  // namespace e2e

#endif  // BENCH_E2E_TRACED_DEVICES_H_
