#include "apps/redis.h"

#include <charconv>
#include <cstring>

namespace apps {

// ---- ValueStore -------------------------------------------------------------------

bool ValueStore::Set(std::string_view key, std::string_view value) {
  char* data = static_cast<char*>(alloc_->Malloc(value.size() == 0 ? 1 : value.size()));
  if (data == nullptr) {
    return false;
  }
  std::memcpy(data, value.data(), value.size());
  auto it = map_.find(key);
  if (it != map_.end()) {
    alloc_->Free(it->second.data);
    it->second = Slot{data, value.size()};
  } else {
    // The only key materialization: first insert of a new key.
    map_.emplace(std::string(key), Slot{data, value.size()});
  }
  return true;
}

std::optional<std::string_view> ValueStore::Get(std::string_view key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return std::string_view(it->second.data, it->second.len);
}

bool ValueStore::Del(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  alloc_->Free(it->second.data);
  map_.erase(it);
  return true;
}

std::int64_t ValueStore::Incr(std::string_view key, bool* ok) {
  *ok = true;
  std::int64_t v = 0;
  auto cur = Get(key);
  if (cur.has_value()) {
    std::from_chars(cur->data(), cur->data() + cur->size(), v);
  }
  ++v;
  char digits[24];
  auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  (void)ec;
  if (!Set(key, std::string_view(digits, static_cast<std::size_t>(ptr - digits)))) {
    *ok = false;
  }
  return v;
}

void ValueStore::Clear() {
  for (auto& [key, slot] : map_) {
    alloc_->Free(slot.data);
  }
  map_.clear();
}

void ValueStore::CaptureKeys(std::vector<std::string>* keys) const {
  keys->reserve(keys->size() + map_.size());
  for (const auto& [key, slot] : map_) {
    keys->push_back(key);
  }
}

// ---- RedisServer ------------------------------------------------------------------

RedisServer::RedisServer(posix::PosixApi* api, ukalloc::Allocator* alloc,
                         std::uint16_t port)
    : api_(api), port_(port), loop_(api), server_(api, &loop_, MakeHandler()),
      store_(alloc) {}

StreamServer::Handler RedisServer::MakeHandler() {
  StreamServer::Handler h;
  h.on_open = [](StreamServer::Conn& c) {
    c.user = std::make_shared<RespCommandParser>();
  };
  // Zero-allocation request path: the parser yields string_view argv over
  // its buffer, replies are encoded straight into the out string.
  h.on_data = [this](StreamServer::Conn& c, std::string_view data) {
    auto* parser = static_cast<RespCommandParser*>(c.user.get());
    parser->Feed(data);
    while (const auto* argv = parser->NextView()) {
      ExecuteInto(*argv, c.out);
      // Balancer health probes (StreamServer::kProbePreamble connections)
      // answer like any client but are tallied separately so scenario
      // assertions on commands_processed() see only real traffic.
      ++(c.probe ? probe_commands_ : commands_);
    }
  };
  return h;
}

bool RedisServer::Start() { return server_.Listen(port_); }

void RedisServer::AttachPersist(Persist* persist) {
  persist_ = persist;
  // ukredis is single-sharded: the whole store is persist shard 0.
  persist_->SetSource(Persist::Source{
      .capture = [this](std::uint16_t, std::vector<std::string>* keys) {
        store_.CaptureKeys(keys);
      },
      .lookup = [this](std::uint16_t, std::string_view key) {
        return store_.Get(key);
      },
  });
  // The batching point: per-command appends stay in memory, the turn hook
  // does the one segment write (+ fsync per policy) and advances any
  // background save by its per-turn chunk budget.
  loop_.AddTurnEndHook([persist] { persist->OnTurnEnd(); });
}

Persist::RecoverStats RedisServer::RecoverFromPersist() {
  if (persist_ == nullptr) {
    return {};
  }
  return persist_->Recover(Persist::Applier{
      .set = [this](std::uint16_t, std::string_view key, std::string_view value) {
        store_.Set(key, value);
      },
      .del = [this](std::uint16_t, std::string_view key) { store_.Del(key); },
      .clear = [this](std::uint16_t) { store_.Clear(); },
  });
}

void RedisServer::ExecuteInto(std::span<const std::string_view> argv,
                              std::string& out) {
  const std::string_view cmd = argv[0];
  auto eq = [](std::string_view a, const char* b) {
    if (a.size() != std::strlen(b)) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if ((a[i] | 0x20) != (b[i] | 0x20)) {
        return false;
      }
    }
    return true;
  };
  if (eq(cmd, "ping")) {
    RespPongInto(out);
    return;
  }
  if (eq(cmd, "set") && argv.size() >= 3) {
    if (persist_ != nullptr) {
      persist_->PreMutate(0, argv[1]);
    }
    if (store_.Set(argv[1], argv[2])) {
      if (persist_ != nullptr) {
        persist_->AppendSet(0, argv[1], argv[2]);
      }
      RespOkInto(out);
    } else {
      RespErrorInto(out, "out of memory");
    }
    return;
  }
  if (eq(cmd, "get") && argv.size() >= 2) {
    auto v = store_.Get(argv[1]);
    if (v.has_value()) {
      RespBulkInto(out, *v);
    } else {
      RespNilInto(out);
    }
    return;
  }
  if (eq(cmd, "del") && argv.size() >= 2) {
    std::int64_t n = 0;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      if (persist_ != nullptr) {
        persist_->PreMutate(0, argv[i]);
      }
      if (store_.Del(argv[i])) {
        ++n;
        if (persist_ != nullptr) {
          persist_->AppendDel(0, argv[i]);
        }
      }
    }
    RespIntegerInto(out, n);
    return;
  }
  if (eq(cmd, "exists") && argv.size() >= 2) {
    RespIntegerInto(out, store_.Get(argv[1]).has_value() ? 1 : 0);
    return;
  }
  if (eq(cmd, "incr") && argv.size() >= 2) {
    if (persist_ != nullptr) {
      persist_->PreMutate(0, argv[1]);
    }
    bool ok = true;
    std::int64_t v = store_.Incr(argv[1], &ok);
    if (ok) {
      if (persist_ != nullptr) {
        // Canonicalized AOF: INCR is logged as its post-image SET, so replay
        // needs no command semantics beyond SET/DEL/FLUSHALL.
        char digits[24];
        auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), v);
        (void)ec;
        persist_->AppendSet(
            0, argv[1], std::string_view(digits, static_cast<std::size_t>(ptr - digits)));
      }
      RespIntegerInto(out, v);
    } else {
      RespErrorInto(out, "out of memory");
    }
    return;
  }
  if (eq(cmd, "append") && argv.size() >= 3) {
    if (persist_ != nullptr) {
      persist_->PreMutate(0, argv[1]);
    }
    std::string merged;
    auto cur = store_.Get(argv[1]);
    if (cur.has_value()) {
      merged = std::string(*cur);
    }
    merged += argv[2];
    store_.Set(argv[1], merged);
    if (persist_ != nullptr) {
      persist_->AppendSet(0, argv[1], merged);  // post-image, like INCR
    }
    RespIntegerInto(out, static_cast<std::int64_t>(merged.size()));
    return;
  }
  if (eq(cmd, "strlen") && argv.size() >= 2) {
    auto v = store_.Get(argv[1]);
    RespIntegerInto(out, v.has_value() ? static_cast<std::int64_t>(v->size()) : 0);
    return;
  }
  if (eq(cmd, "flushall")) {
    if (persist_ != nullptr) {
      // A store-wide clear invalidates a background save's captured key list
      // wholesale; aborting is cheaper (and simpler) than pre-imaging every
      // key. The clear itself is AOF-logged so replay reproduces it.
      persist_->AbortSave();
      persist_->AppendClear(0);
    }
    store_.Clear();
    RespOkInto(out);
    return;
  }
  if (eq(cmd, "dbsize")) {
    RespIntegerInto(out, static_cast<std::int64_t>(store_.size()));
    return;
  }
  if (eq(cmd, "save")) {
    if (persist_ != nullptr && persist_->SaveNow()) {
      RespOkInto(out);
    } else {
      RespErrorInto(out, persist_ == nullptr ? "persistence not configured"
                                             : "save failed");
    }
    return;
  }
  if (eq(cmd, "bgsave")) {
    if (persist_ == nullptr) {
      RespErrorInto(out, "persistence not configured");
    } else if (persist_->save_active()) {
      RespErrorInto(out, "background save already in progress");
    } else if (persist_->StartBackgroundSave()) {
      RespSimpleStringInto(out, "Background saving started");
    } else {
      RespErrorInto(out, "bgsave failed");
    }
    return;
  }
  if (eq(cmd, "waitaof")) {
    // WAIT-style fsync barrier: everything appended so far is written through
    // and flushed to the device before the reply, regardless of policy.
    if (persist_ != nullptr && persist_->FsyncNow()) {
      RespIntegerInto(out, 1);
    } else {
      RespIntegerInto(out, 0);
    }
    return;
  }
  RespErrorInto(out, "unknown command");
}

std::size_t RedisServer::PumpOnce() { return PumpWait(0); }

std::size_t RedisServer::PumpWait(std::uint64_t timeout_cycles) {
  const std::uint64_t before = commands_;
  loop_.PumpOnce(timeout_cycles);
  return static_cast<std::size_t>(commands_ - before);
}

// ---- RedisBenchClient -------------------------------------------------------------

RedisBenchClient::RedisBenchClient(uknet::NetStack* stack, uknet::Ip4Addr server,
                                   std::uint16_t port, Config config)
    : stack_(stack), server_(server), port_(port), config_(config) {
  value_.assign(static_cast<std::size_t>(config_.value_bytes), 'x');
}

bool RedisBenchClient::ConnectAll(const std::function<void()>& pump) {
  for (int i = 0; i < config_.connections; ++i) {
    auto sock = stack_->TcpConnect(server_, port_);
    if (sock == nullptr) {
      return false;
    }
    conns_.push_back(ClientConn{std::move(sock), {}, 0});
  }
  for (int rounds = 0; rounds < 50000; ++rounds) {
    bool all = true;
    for (ClientConn& c : conns_) {
      all = all && c.sock->connected();
    }
    if (all) {
      return true;
    }
    pump();
  }
  return false;
}

std::size_t RedisBenchClient::PumpOnce() {
  std::size_t done = 0;
  for (ClientConn& c : conns_) {
    if (c.sock->failed()) {
      continue;
    }
    // Keep the pipeline full: coalesce the whole batch into one send, the
    // way redis-benchmark writes its pipeline in a single write(). The batch
    // and key buffers are reused across pumps; commands are encoded straight
    // into the batch buffer.
    if (c.in_flight < config_.pipeline) {
      batch_.clear();
      int batched = 0;
      while (c.in_flight + batched < config_.pipeline) {
        key_.assign("key:");
        char digits[24];
        auto [ptr, ec] = std::to_chars(
            digits, digits + sizeof(digits),
            seq_++ % static_cast<std::uint64_t>(config_.keyspace));
        (void)ec;
        key_.append(digits, static_cast<std::size_t>(ptr - digits));
        if (config_.use_set) {
          RespCommandInto(batch_, {"SET", key_, value_});
        } else {
          RespCommandInto(batch_, {"GET", key_});
        }
        ++batched;
      }
      std::int64_t n = c.sock->Send(std::span(
          reinterpret_cast<const std::uint8_t*>(batch_.data()), batch_.size()));
      if (n == static_cast<std::int64_t>(batch_.size())) {
        c.in_flight += batched;
      }
    }
    // Reap replies.
    std::uint8_t buf[8192];
    for (;;) {
      std::int64_t n = c.sock->Recv(buf);
      if (n <= 0) {
        break;
      }
      c.rx.append(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    }
    std::size_t got = ConsumeReplies(&c.rx);
    c.in_flight -= static_cast<int>(got);
    replies_ += got;
    done += got;
  }
  return done;
}

}  // namespace apps
