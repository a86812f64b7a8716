#include "obs/http_exporter.h"

#include <sys/epoll.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "net/tcp.h"

namespace lmerge {
namespace obs {

namespace {

// One request's header block may not exceed this; anything larger is a
// client bug or an attack, and either way not a scraper.
constexpr size_t kMaxRequestBytes = 16 * 1024;

const char* StatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
  }
  return "Internal Server Error";
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    out.push_back(alpha || (digit && i > 0) ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.entries.size() * 64);
  for (const MetricValue& entry : snapshot.entries) {
    const std::string name = OpenMetricsName(entry.name);
    out += "# TYPE " + name + " " + InstrumentKindName(entry.kind) + "\n";
    switch (entry.kind) {
      case InstrumentKind::kCounter:
        out += name + "_total " + std::to_string(entry.value) + "\n";
        break;
      case InstrumentKind::kGauge:
        out += name + " " + std::to_string(entry.value) + "\n";
        break;
      case InstrumentKind::kHistogram: {
        const HistogramSnapshot& h = entry.histogram;
        // The sparse (lower bound, count) buckets become the cumulative
        // `le` (inclusive upper bound) form Prometheus expects.  A bucket
        // whose lower bound is L spans [L, next-bound); over integers its
        // inclusive upper bound is next-bound - 1.
        int64_t cumulative = 0;
        for (const auto& [bound, count] : h.buckets) {
          cumulative += count;
          const int index = HistogramBucketIndex(bound);
          if (index + 1 >= kHistogramBuckets) continue;  // +Inf covers it
          const int64_t le = HistogramBucketLowerBound(index + 1) - 1;
          out += name + "_bucket{le=\"" + std::to_string(le) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) +
               "\n";
        out += name + "_sum " + std::to_string(h.sum) + "\n";
        out += name + "_count " + std::to_string(h.count) + "\n";
        break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

Status HttpExporter::Start(const HttpExporterOptions& options,
                          std::unique_ptr<HttpExporter>* exporter) {
  LM_CHECK(exporter != nullptr);
  std::unique_ptr<HttpExporter> built(new HttpExporter());
  built->options_ = options;
  Status status = net::TcpListen(options.port, &built->listener_,
                                 options.bind_address);
  if (!status.ok()) return status;
  built->port_ = built->listener_->port();
  HttpExporter* self = built.get();
  status = built->loop_.Add(built->listener_->pollable_fd(), EPOLLIN,
                            [self](uint32_t) { self->OnAccept(); });
  if (!status.ok()) return status;
  built->thread_ = std::thread([self] { self->loop_.Run(); });
  *exporter = std::move(built);
  return Status::Ok();
}

HttpExporter::~HttpExporter() { Stop(); }

void HttpExporter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  loop_.Stop();
  if (thread_.joinable()) thread_.join();
  // The loop thread is gone; teardown owns all connection state now.
  for (auto& [fd, client] : clients_) {
    loop_.Remove(fd);
    client.connection->Close();
  }
  clients_.clear();
  if (listener_ != nullptr) {
    loop_.Remove(listener_->pollable_fd());
    listener_->Close();
  }
}

void HttpExporter::OnAccept() {
  while (true) {
    std::unique_ptr<net::Connection> connection;
    if (!listener_->TryAccept(&connection).ok() || connection == nullptr) {
      return;
    }
    const int fd = connection->readable_fd();
    Client& client = clients_[fd];
    client.connection = std::move(connection);
    const Status added = loop_.Add(
        fd, EPOLLIN, [this, fd](uint32_t events) { OnClient(fd, events); });
    if (!added.ok()) {
      client.connection->Close();
      clients_.erase(fd);
    }
  }
}

void HttpExporter::OnClient(int fd, uint32_t) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  Client& client = it->second;
  std::string bytes;
  const Status status = client.connection->TryReceive(&bytes);
  client.request += bytes;
  const bool have_request =
      client.request.find("\r\n\r\n") != std::string::npos ||
      client.request.find("\n\n") != std::string::npos;
  if (have_request) {
    Respond(&client);
  } else if (status.ok() && !client.connection->closed() &&
             client.request.size() <= kMaxRequestBytes) {
    return;  // headers still incomplete; wait for more bytes
  }
  loop_.Remove(fd);
  client.connection->Close();
  clients_.erase(it);
}

void HttpExporter::Respond(Client* client) {
  // Request line: METHOD SP TARGET SP VERSION.  Headers are ignored.
  const size_t line_end = client->request.find_first_of("\r\n");
  const std::string line = client->request.substr(
      0, line_end == std::string::npos ? client->request.size() : line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  int code = 400;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "bad request\n";
  if (sp2 != std::string::npos) {
    const std::string method = line.substr(0, sp1);
    const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    body = HandleRequest(method, target, &code, &content_type);
  }
  std::string response = "HTTP/1.1 " + std::to_string(code) + " " +
                         StatusText(code) +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  // Responses are a few KiB of text to a scraper that just asked for them;
  // a blocking send here is bounded by the socket buffer in practice and
  // only ever stalls the exporter loop, never the data plane.
  // A peer that vanished mid-response is its own problem.
  (void)client->connection->Send(response);
}

std::string HttpExporter::HandleRequest(const std::string& method,
                                        const std::string& target,
                                        int* status_code,
                                        std::string* content_type) {
  if (method != "GET") {
    *status_code = 405;
    return "method not allowed\n";
  }
  // Strip any query string: /metrics?x=y routes like /metrics.
  const std::string path = target.substr(0, target.find('?'));
  if (path == "/healthz") {
    *status_code = 200;
    return "ok\n";
  }
  if (path == "/readyz") {
    const bool ready = options_.ready_check == nullptr ||
                       options_.ready_check(options_.ready_deadline);
    *status_code = ready ? 200 : 503;
    return ready ? "ready\n" : "unready\n";
  }
  if (path == "/metrics" || path == "/metrics.json") {
    const MetricsSnapshot snapshot = options_.snapshot_source != nullptr
                                         ? options_.snapshot_source()
                                         : MetricsRegistry::Global().Snapshot();
    *status_code = 200;
    if (path == "/metrics.json") {
      *content_type = "application/json";
      return snapshot.ToJson();
    }
    *content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    return RenderOpenMetrics(snapshot);
  }
  *status_code = 404;
  return "not found\n";
}

}  // namespace obs
}  // namespace lmerge
