// apps/http.h - ukhttp: nginx-stand-in static HTTP/1.1 server (Figs 13-15,
// 22) and a wrk work-alike client.
//
// Two content backends, matching the paper's specialization ladder:
//  * VFS mode (scenario 3): open()+read() through vfscore per request;
//  * SHFS mode (§6.3): direct hash lookup, no VFS, no per-request allocation.
#ifndef APPS_HTTP_H_
#define APPS_HTTP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/event_loop.h"
#include "apps/stream_server.h"
#include "posix/api.h"
#include "shfs/shfs.h"
#include "uknet/stack.h"
#include "vfscore/vfs.h"

namespace apps {

struct HttpRequest {
  std::string method;
  std::string path;
  bool keep_alive = true;
  bool complete = false;
};

// Parses one request head out of |buf| (consumes it); nullopt if incomplete.
std::optional<HttpRequest> ParseHttpRequest(std::string* buf);

class HttpServer {
 public:
  enum class ContentMode { kVfs, kShfs };

  HttpServer(posix::PosixApi* api, std::uint16_t port, vfscore::Vfs* vfs);
  // SHFS-specialized variant (no VFS in the path).
  HttpServer(posix::PosixApi* api, std::uint16_t port, const shfs::Shfs* volume);

  bool Start();
  // One non-blocking event-loop turn. Returns responses sent.
  std::size_t PumpOnce();
  // One blocking turn: the whole server (listener + every connection) sleeps
  // in a single EpollWait until something is ready.
  std::size_t PumpWait(std::uint64_t timeout_cycles = EventLoop::kNoTimeout);

  std::uint64_t requests_served() const { return requests_; }
  std::size_t connections() const { return server_.connections(); }

 private:
  // The connection machinery is the shared StreamServer scaffold; this class
  // is only the HTTP protocol (request framing in Conn::in, BuildResponse).
  std::string BuildResponse(const HttpRequest& req);
  StreamServer::Handler MakeHandler();

  posix::PosixApi* api_;
  std::uint16_t port_;
  ContentMode mode_;
  vfscore::Vfs* vfs_ = nullptr;
  const shfs::Shfs* volume_ = nullptr;
  EventLoop loop_;
  StreamServer server_;
  std::uint64_t requests_ = 0;
};

// wrk work-alike: persistent connections hammering one static path.
class WrkClient {
 public:
  struct Config {
    int connections = 30;
    std::string path = "/index.html";
    int pipeline = 8;
  };

  WrkClient(uknet::NetStack* stack, uknet::Ip4Addr server, std::uint16_t port,
            Config config);

  bool ConnectAll(const std::function<void()>& pump);
  std::size_t PumpOnce();
  std::uint64_t responses() const { return responses_; }

 private:
  struct ClientConn {
    std::shared_ptr<uknet::TcpSocket> sock;
    std::string rx;
    int in_flight = 0;
  };

  uknet::NetStack* stack_;
  uknet::Ip4Addr server_;
  std::uint16_t port_;
  Config config_;
  std::vector<ClientConn> conns_;
  std::uint64_t responses_ = 0;
};

}  // namespace apps

#endif  // APPS_HTTP_H_
