#include "server/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace uts::server {

namespace {

WireError ToWireError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return WireError::kBadRequest;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kNotSupported:
      return WireError::kUnavailable;
    default:
      return WireError::kInternal;
  }
}

bool IsRequestType(MessageType type) {
  switch (type) {
    case MessageType::kPing:
    case MessageType::kListDatasets:
    case MessageType::kBindDataset:
    case MessageType::kKnn:
    case MessageType::kRange:
    case MessageType::kPrq:
    case MessageType::kMeasureSweep:
    case MessageType::kKnnSweep:
      return true;
    default:
      return false;
  }
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  ServerOptions& resolved = server->options_;
  // Resolve the worker width once so a shared pool and every shard context
  // agree on it (EngineContext resolves 0 the same way).
  if (resolved.service.threads == 0) {
    resolved.service.threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (resolved.pool_policy == PoolPolicy::kShared &&
      resolved.service.threads > 1) {
    server->shared_pool_ =
        std::make_unique<exec::ThreadPool>(resolved.service.threads);
    resolved.service.shared_pool = server->shared_pool_.get();
  }
  UTS_RETURN_NOT_OK(server->Listen());
  server->ShardFor(std::string());  // The control shard exists from startup.
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket(AF_UNIX) failed");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("bind failed for " + options_.unix_socket_path);
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError("socket(AF_INET) failed");
    }
    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("bind failed for 127.0.0.1:" +
                             std::to_string(options_.tcp_port));
    }
    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen failed");
  }
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Collect the shards under the lock: ShardFor refuses to create new ones
  // once stopping_ is set (checked under the same lock), so this snapshot
  // is complete and every dispatcher gets joined exactly once.
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    shards.reserve(shards_.size());
    for (auto& entry : shards_) shards.push_back(entry.second.get());
  }
  for (Shard* shard : shards) {
    {
      std::lock_guard<std::mutex> lock(shard->queue_mutex);
    }
    shard->queue_cv.notify_all();
  }
  for (Shard* shard : shards) {
    if (shard->dispatcher.joinable()) shard->dispatcher.join();
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    readers.swap(connection_threads_);
  }
  for (std::thread& thread : readers) {
    if (thread.joinable()) thread.join();
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Service* Server::shard_service(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  auto it = shards_.find(dataset);
  return it == shards_.end() ? nullptr : it->second->service.get();
}

Server::ShardStats Server::shard_stats(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  auto it = shards_.find(dataset);
  if (it == shards_.end()) return ShardStats{};
  std::lock_guard<std::mutex> stats_lock(it->second->stats_mutex);
  return it->second->stats;
}

std::size_t Server::shard_count() const {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  return shards_.size();
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // Listener is gone; nothing left to accept.
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    live_fds_.insert(fd);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.connections;
    }
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

std::shared_ptr<Session> Server::AttachSession(int fd,
                                               const HelloMessage& hello,
                                               Session::AttachResult* result) {
  std::shared_ptr<Session> session;
  bool resumed = false;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(hello.client_token);
    if (it != sessions_.end() && !it->second->poisoned()) {
      session = it->second;
      resumed = true;
    } else {
      session = std::make_shared<Session>(hello.client_token,
                                          options_.max_backlog_frames,
                                          options_.send_timeout_ms);
      sessions_[hello.client_token] = session;
    }
  }
  // A fresh session ignores the client's stale sequence state.
  *result = session->Attach(fd, resumed ? hello.last_seq_seen : 0, resumed);
  if (result->poisoned) {
    // Lost the race with a concurrent overflow: hand out a clean session.
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    session = std::make_shared<Session>(hello.client_token,
                                        options_.max_backlog_frames,
                                        options_.send_timeout_ms);
    sessions_[hello.client_token] = session;
    *result = session->Attach(fd, 0, false);
  }
  return session;
}

Server::Shard& Server::ShardFor(const std::string& key) {
  std::lock_guard<std::mutex> lock(shards_mutex_);
  auto it = shards_.find(key);
  if (it != shards_.end()) {
    return *it->second;
  }
  if (stopping_.load()) {
    // Too late to start a dispatcher Stop() would miss; the control shard
    // exists from startup and its (already finished) queue absorbs the
    // request harmlessly.
    return *shards_.at(std::string());
  }
  auto shard = std::make_unique<Shard>();
  shard->key = key;
  shard->service = std::make_unique<Service>(options_.service);
  Shard* raw = shard.get();
  shards_[key] = std::move(shard);
  raw->dispatcher = std::thread([this, raw] { DispatchLoop(*raw); });
  return *raw;
}

Server::Shard& Server::RouteShard(MessageType type, const std::string& key) {
  if (key.empty()) {
    return ShardFor(std::string());
  }
  if (type == MessageType::kBindDataset) {
    // Binds create their dataset's shard on demand.
    return ShardFor(key);
  }
  {
    std::lock_guard<std::mutex> lock(shards_mutex_);
    auto it = shards_.find(key);
    if (it != shards_.end()) {
      return *it->second;
    }
  }
  // Unknown dataset: the control shard's empty Service produces the
  // authoritative NotFound without minting a shard per typo.
  return ShardFor(std::string());
}

void Server::HandleConnection(int fd) {
  std::shared_ptr<Session> session;
  while (!stopping_.load()) {
    Result<Frame> frame_or = ReadFrame(fd);
    if (!frame_or.ok()) break;  // EOF, corrupt frame, or shutdown.
    Frame frame = std::move(frame_or).ValueOrDie();
    const auto type = static_cast<MessageType>(frame.header.type);

    if (session == nullptr) {
      // First frame must be the handshake.
      if (type != MessageType::kHello) break;
      Result<HelloMessage> hello = HelloMessage::Decode(frame.payload);
      if (!hello.ok()) break;
      Session::AttachResult attach;
      session = AttachSession(fd, hello.ValueOrDie(), &attach);
      continue;
    }

    if (type == MessageType::kAck) {
      Result<AckMessage> ack = AckMessage::Decode(frame.payload);
      if (ack.ok()) {
        session->HandleAck(ack.ValueOrDie().acked_seq);
      }
      continue;
    }

    if (!IsRequestType(type)) {
      continue;  // Unknown but well-framed traffic: ignore, stay compatible.
    }

    Shard& shard = RouteShard(type, ShardKeyOf(type, frame.payload));
    WorkItem item;
    item.session = session;
    item.type = type;
    item.request_seq = frame.header.sequence;
    item.payload = std::move(frame.payload);
    if (!TryEnqueue(shard, std::move(item))) {
      // Admission control: reject now, unsequenced (the request never
      // entered the response stream, so it must not consume a sequence).
      // Count before sending, so a client that observes the rejection can
      // never read a counter that has not seen it yet.
      {
        std::lock_guard<std::mutex> lock(shard.stats_mutex);
        ++shard.stats.rejected;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected;
      }
      ErrorResponse error;
      error.request_seq = frame.header.sequence;
      error.code = WireError::kSaturated;
      error.retry_after_ms = options_.retry_after_ms;
      error.message = "admission queue full";
      session->SendControl(static_cast<std::uint8_t>(MessageType::kError),
                           error.Encode());
    }
  }
  if (session != nullptr) {
    session->Detach(fd);
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    live_fds_.erase(fd);
  }
  ::close(fd);
}

bool Server::TryEnqueue(Shard& shard, WorkItem item) {
  std::lock_guard<std::mutex> lock(shard.queue_mutex);
  if (shard.queue.size() >= options_.queue_depth) {
    return false;
  }
  if (options_.global_queue_depth > 0) {
    // Cross-shard budget: claim a slot atomically; the shard dispatcher
    // releases it when the item leaves the queue.
    if (queued_total_.fetch_add(1) >= options_.global_queue_depth) {
      queued_total_.fetch_sub(1);
      return false;
    }
  }
  // Count before the push makes the item visible: a response can reach the
  // client the instant the dispatcher sees the queue, and the admission
  // counters must never lag a client-visible outcome.
  {
    std::lock_guard<std::mutex> stats_lock(shard.stats_mutex);
    ++shard.stats.admitted;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.admitted;
  }
  shard.queue.push_back(std::move(item));
  shard.queue_cv.notify_one();
  return true;
}

void Server::DispatchLoop(Shard& shard) {
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      shard.queue_cv.wait(lock, [this, &shard] {
        return stopping_.load() || !shard.queue.empty();
      });
      if (stopping_.load()) return;
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    if (options_.global_queue_depth > 0) {
      queued_total_.fetch_sub(1);
    }
    {
      std::lock_guard<std::mutex> lock(shard.stats_mutex);
      ++shard.stats.dispatched;
    }
    Execute(shard, item);
    std::lock_guard<std::mutex> lock(shard.stats_mutex);
    ++shard.stats.completed;
  }
}

void Server::DeliverError(Session& session, std::uint64_t request_seq,
                          const Status& status) {
  ErrorResponse error;
  error.request_seq = request_seq;
  error.code = ToWireError(status);
  error.message = status.message();
  session.Deliver(static_cast<std::uint8_t>(MessageType::kError),
                  error.Encode(), request_seq);
}

void Server::Execute(Shard& shard, WorkItem& item) {
  Session& session = *item.session;
  Service& service = *shard.service;
  const std::uint64_t seq = item.request_seq;
  switch (item.type) {
    case MessageType::kPing: {
      Result<PingRequest> request_or = PingRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      const PingRequest& request = request_or.ValueOrDie();
      if (request.delay_ms > 0) {
        // Test hook: stall this shard's dispatcher to make saturation and
        // cross-shard independence reproducible.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(request.delay_ms));
      }
      PongResponse response;
      response.request_seq = seq;
      response.echo = request.echo;
      session.Deliver(static_cast<std::uint8_t>(MessageType::kPong),
                      response.Encode(), seq);
      return;
    }
    case MessageType::kListDatasets: {
      // Aggregated across shards, not asked of this shard's context: each
      // shard only knows its own residents.
      DatasetListResponse response;
      response.request_seq = seq;
      {
        std::lock_guard<std::mutex> lock(bound_names_mutex_);
        response.names.assign(bound_names_.begin(), bound_names_.end());
      }
      session.Deliver(static_cast<std::uint8_t>(MessageType::kDatasetList),
                      response.Encode(), seq);
      return;
    }
    case MessageType::kBindDataset: {
      Result<BindDatasetRequest> request_or =
          BindDatasetRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      Result<BindOkResponse> response = service.Bind(request_or.ValueOrDie(), seq);
      if (!response.ok()) {
        DeliverError(session, seq, response.status());
        return;
      }
      {
        std::lock_guard<std::mutex> lock(bound_names_mutex_);
        bound_names_.insert(response.ValueOrDie().name);
      }
      session.Deliver(static_cast<std::uint8_t>(MessageType::kBindOk),
                      response.ValueOrDie().Encode(), seq);
      return;
    }
    case MessageType::kKnn: {
      Result<QueryRequest> request_or = QueryRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      Result<KnnResponse> response = service.Knn(request_or.ValueOrDie(), seq);
      if (!response.ok()) {
        DeliverError(session, seq, response.status());
        return;
      }
      session.Deliver(static_cast<std::uint8_t>(MessageType::kKnnResult),
                      response.ValueOrDie().Encode(), seq);
      return;
    }
    case MessageType::kRange:
    case MessageType::kPrq: {
      Result<QueryRequest> request_or = QueryRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      Result<IndexListResponse> response =
          item.type == MessageType::kRange
              ? service.Range(request_or.ValueOrDie(), seq)
              : service.Prq(request_or.ValueOrDie(), seq);
      if (!response.ok()) {
        DeliverError(session, seq, response.status());
        return;
      }
      const auto type = item.type == MessageType::kRange
                            ? MessageType::kRangeResult
                            : MessageType::kPrqResult;
      session.Deliver(static_cast<std::uint8_t>(type),
                      response.ValueOrDie().Encode(), seq);
      return;
    }
    case MessageType::kMeasureSweep: {
      Result<QueryRequest> request_or = QueryRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      Result<SweepResponse> response =
          service.MeasureSweep(request_or.ValueOrDie(), seq);
      if (!response.ok()) {
        DeliverError(session, seq, response.status());
        return;
      }
      session.Deliver(static_cast<std::uint8_t>(MessageType::kSweepResult),
                      response.ValueOrDie().Encode(), seq);
      return;
    }
    case MessageType::kKnnSweep: {
      Result<QueryRequest> request_or = QueryRequest::Decode(item.payload);
      if (!request_or.ok()) {
        DeliverError(session, seq, request_or.status());
        return;
      }
      const QueryRequest& request = request_or.ValueOrDie();
      // Stream one sequenced KnnResult per query so the sweep is resumable
      // mid-flight: finished items sit in the session backlog, and a
      // reconnecting client replays only what it has not acked.
      // The block end is computed in 64 bits: `query + num_queries` may
      // pass 2^32, and a wrapped end would silently stream nothing. Every
      // block fails at its first out-of-range query instead (no dataset
      // holds 2^32 series, so `q` never leaves the 32-bit range).
      QueryRequest single = request;
      std::uint32_t completed = 0;
      const std::uint64_t end =
          std::uint64_t{request.query} + request.num_queries;
      for (std::uint64_t q = request.query; q < end; ++q) {
        if (stopping_.load()) return;
        single.query = static_cast<std::uint32_t>(q);
        Result<KnnResponse> response = service.Knn(single, seq);
        if (!response.ok()) {
          DeliverError(session, seq, response.status());
          return;
        }
        service.NoteSweepItem();
        session.Deliver(static_cast<std::uint8_t>(MessageType::kKnnResult),
                        response.ValueOrDie().Encode(), seq);
        ++completed;
      }
      KnnSweepDoneResponse done;
      done.request_seq = seq;
      done.num_items = completed;
      session.Deliver(static_cast<std::uint8_t>(MessageType::kKnnSweepDone),
                      done.Encode(), seq);
      return;
    }
    default:
      DeliverError(session, seq,
                   Status::InvalidArgument("unhandled request type"));
      return;
  }
}

}  // namespace uts::server
