#include "dynfo/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>

#include "core/check.h"
#include "relational/tuple.h"

namespace dynfo::dyn::wire {

namespace {

using relational::Element;
using relational::Request;
using relational::Tuple;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Writes all of `data`, restarting on EINTR and short writes. MSG_NOSIGNAL
/// turns a dead peer into EPIPE instead of a process-killing SIGPIPE; when
/// the fd is not a socket (ENOTSOCK — tests pipe frames through pipes),
/// falls back to write().
core::Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return core::Status::Error(Errno("write"));
    }
    done += static_cast<size_t>(n);
  }
  return core::Status();
}

/// Reads exactly `size` bytes. `*clean_eof` reports EOF before the first
/// byte (the caller decides whether that is orderly).
core::Status ReadAll(int fd, char* data, size_t size, bool* clean_eof) {
  *clean_eof = false;
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return core::Status::Error(Errno("read"));
    }
    if (n == 0) {
      if (done == 0) {
        *clean_eof = true;
        return core::Status::Cancelled("eof");
      }
      return core::Status::Error("connection closed mid-frame");
    }
    done += static_cast<size_t>(n);
  }
  return core::Status();
}

}  // namespace

int ExitCodeFor(core::StatusCode code) {
  switch (code) {
    case core::StatusCode::kOk:
      return 0;
    case core::StatusCode::kError:
      return 1;
    case core::StatusCode::kCancelled:
      return 3;
    case core::StatusCode::kDeadlineExceeded:
      return 4;
    case core::StatusCode::kResourceExhausted:
      return 5;
    case core::StatusCode::kCorruption:
      return 6;
  }
  return 1;
}

core::StatusCode StatusCodeForExit(int exit_code) {
  switch (exit_code) {
    case 0:
      return core::StatusCode::kOk;
    case 3:
      return core::StatusCode::kCancelled;
    case 4:
      return core::StatusCode::kDeadlineExceeded;
    case 5:
      return core::StatusCode::kResourceExhausted;
    case 6:
      return core::StatusCode::kCorruption;
    default:
      return core::StatusCode::kError;
  }
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    // std::isspace in the classic locale: the blanks `>>` splits words on.
    if (i == line.size() || std::isspace(static_cast<unsigned char>(line[i]))) {
      if (i > start) out.emplace_back(line, start, i - start);
      start = i + 1;
    }
  }
  return out;
}

bool ParseElements(const std::vector<std::string>& words, size_t start,
                   std::vector<Element>* out, std::string* error) {
  for (size_t i = start; i < words.size(); ++i) {
    uint64_t value = 0;
    bool ok = !words[i].empty();
    for (char c : words[i]) {
      if (c < '0' || c > '9') {
        ok = false;
        break;
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
      if (value > 0xffffffffULL) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "'" + words[i] + "' is not a universe element";
      }
      return false;
    }
    out->push_back(static_cast<Element>(value));
  }
  return true;
}

bool IsMutationCommand(const std::string& word) {
  return word == "ins" || word == "del" || word == "set";
}

bool ParseMutation(const std::vector<std::string>& words, Request* out,
                   std::string* error) {
  if (error != nullptr) error->clear();
  DYNFO_CHECK(!words.empty());
  const std::string& command = words[0];
  if (command == "ins" || command == "del") {
    if (words.size() < 2) {
      if (error != nullptr) *error = command + " needs a relation name";
      return false;
    }
    std::vector<Element> elements;
    if (!ParseElements(words, 2, &elements, error)) return false;
    if (elements.size() > static_cast<size_t>(Tuple::kMaxArity)) {
      if (error != nullptr) {
        *error = command + " takes at most " +
                 std::to_string(Tuple::kMaxArity) + " elements, got " +
                 std::to_string(elements.size());
      }
      return false;
    }
    Tuple t;
    for (Element e : elements) t = t.Append(e);
    *out = command == "ins" ? Request::Insert(words[1], t)
                            : Request::Delete(words[1], t);
    return true;
  }
  if (command == "set") {
    std::vector<Element> elements;
    if (words.size() != 3 || !ParseElements(words, 2, &elements, nullptr)) {
      if (error != nullptr) *error = "usage: set <constant> <value>";
      return false;
    }
    *out = Request::SetConstant(words[1], elements[0]);
    return true;
  }
  return false;  // not a mutation; error stays empty
}

bool CheckReadArguments(const fo::FormulaPtr& formula,
                        const std::vector<Element>& params,
                        size_t universe_size, std::string* error) {
  if (formula == nullptr) {
    *error = "the program has no boolean query";
    return false;
  }
  const int max_index = formula->MaxParameterIndex();
  if (max_index >= 0 && params.size() <= static_cast<size_t>(max_index)) {
    *error = "the query uses $" + std::to_string(max_index) + " but " +
             std::to_string(params.size()) + " element(s) were given";
    return false;
  }
  for (Element e : params) {
    if (e >= universe_size) {
      *error = "element " + std::to_string(e) + " is outside the universe 0.." +
               std::to_string(universe_size - 1);
      return false;
    }
  }
  return true;
}

core::Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return core::Status::Error("frame too large: " +
                               std::to_string(payload.size()) + " bytes");
  }
  char header[4];
  const uint32_t size = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<char>((size >> 24) & 0xff);
  header[1] = static_cast<char>((size >> 16) & 0xff);
  header[2] = static_cast<char>((size >> 8) & 0xff);
  header[3] = static_cast<char>(size & 0xff);
  // One buffer, one send: a frame must never interleave with another
  // writer's frame on the same fd (callers serialize per connection anyway,
  // but a single write also keeps small requests in one segment).
  std::string buffer;
  buffer.reserve(4 + payload.size());
  buffer.append(header, 4);
  buffer.append(payload);
  return WriteAll(fd, buffer.data(), buffer.size());
}

core::Status ReadFrame(int fd, std::string* payload, size_t max_bytes) {
  char header[4];
  bool clean_eof = false;
  core::Status got = ReadAll(fd, header, 4, &clean_eof);
  if (!got.ok()) return got;
  const uint32_t size = (static_cast<uint32_t>(static_cast<unsigned char>(header[0])) << 24) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(header[1])) << 16) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(header[2])) << 8) |
                        static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (size > max_bytes) {
    return core::Status::Error("frame length " + std::to_string(size) +
                               " exceeds limit " + std::to_string(max_bytes));
  }
  payload->assign(size, '\0');
  if (size == 0) return core::Status();
  return ReadAll(fd, payload->data(), size, &clean_eof);
}

bool IsEof(const core::Status& status) {
  return status.code() == core::StatusCode::kCancelled &&
         status.message() == "eof";
}

std::string EncodeResponse(int code, std::string_view body) {
  std::string out = std::to_string(code);
  out.push_back(' ');
  out.append(body);
  return out;
}

bool DecodeResponse(const std::string& frame, int* code, std::string* body) {
  size_t i = 0;
  while (i < frame.size() && frame[i] >= '0' && frame[i] <= '9') ++i;
  if (i == 0 || i > 3) return false;
  *code = std::stoi(frame.substr(0, i));
  if (i < frame.size() && frame[i] == ' ') ++i;
  *body = frame.substr(i);
  return true;
}

bool ParseAddress(const std::string& spec, Address* out, std::string* error) {
  if (spec.rfind("unix:", 0) == 0) {
    out->kind = Address::Kind::kUnix;
    out->path = spec.substr(5);
    if (out->path.empty()) {
      if (error != nullptr) *error = "unix: needs a socket path";
      return false;
    }
    if (out->path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    return true;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out->kind = Address::Kind::kTcp;
    std::string rest = spec.substr(4);
    std::string port_text = rest;
    size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      out->host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
    } else {
      out->host = "127.0.0.1";
    }
    try {
      out->port = std::stoi(port_text);
    } catch (...) {
      out->port = -1;
    }
    if (out->port < 0 || out->port > 65535) {
      if (error != nullptr) *error = "bad tcp port '" + port_text + "'";
      return false;
    }
    return true;
  }
  if (error != nullptr) {
    *error = "bad address '" + spec + "' (want unix:/path or tcp:[host:]port)";
  }
  return false;
}

core::Result<int> Listen(const Address& address) {
  if (address.kind == Address::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return core::Status::Error(Errno("socket"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(address.path.c_str());  // stale socket from a killed server
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      core::Status status = core::Status::Error(Errno("bind"));
      ::close(fd);
      return status;
    }
    if (::listen(fd, 64) < 0) {
      core::Status status = core::Status::Error(Errno("listen"));
      ::close(fd);
      return status;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return core::Status::Error(Errno("socket"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(address.port));
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return core::Status::Error("bad tcp host '" + address.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    core::Status status = core::Status::Error(Errno("bind"));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    core::Status status = core::Status::Error(Errno("listen"));
    ::close(fd);
    return status;
  }
  return fd;
}

core::Result<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return core::Status::Error(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

core::Result<int> Dial(const Address& address) {
  if (address.kind == Address::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return core::Status::Error(Errno("socket"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      core::Status status = core::Status::Error(Errno("connect"));
      ::close(fd);
      return status;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return core::Status::Error(Errno("socket"));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(address.port));
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return core::Status::Error("bad tcp host '" + address.host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    core::Status status = core::Status::Error(Errno("connect"));
    ::close(fd);
    return status;
  }
  return fd;
}

int BackoffMs(const RetryPolicy& policy, int retry, core::Rng* rng) {
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (int i = 0; i < retry; ++i) {
    backoff *= policy.multiplier;
    if (backoff >= static_cast<double>(policy.max_backoff_ms)) break;
  }
  if (backoff > static_cast<double>(policy.max_backoff_ms)) {
    backoff = static_cast<double>(policy.max_backoff_ms);
  }
  const double jitter = 0.5 + 0.5 * rng->UnitDouble();
  int ms = static_cast<int>(backoff * jitter);
  return ms < 1 ? 1 : ms;
}

int RunScript(std::istream& in, std::ostream& out, bool interactive,
              size_t batch_size,
              const std::function<Response(const std::string&)>& call) {
  // Sends one frame and prints the answer; returns the code that ends a
  // script run (0 goes on).
  const auto send = [&](const std::string& frame) {
    const Response response = call(frame);
    if (response.code == 0) {
      out << response.body << '\n';
      return 0;
    }
    out << "error[" << response.code << "]: "
        << (response.body.empty() ? "request failed" : response.body) << '\n';
    return interactive ? 0 : response.code;
  };
  std::string group;  // the pending --batch-size run, as a batch frame
  size_t group_size = 0;
  const auto flush = [&] {
    if (group_size == 0) return 0;
    group += "end";
    group_size = 0;
    std::string frame;
    frame.swap(group);
    return send(frame);
  };
  const auto prompt = [&] {
    if (interactive) out << "dynfo> " << std::flush;
  };
  const auto read_line = [&in](std::string* line) {
    if (!std::getline(in, *line)) return false;
    line->erase(std::min(line->find('#'), line->size()));
    return true;
  };

  std::string line;
  int code = 0;
  prompt();
  while (read_line(&line)) {
    const std::vector<std::string> words = SplitWords(line);
    if (words.empty()) {
      prompt();
      continue;
    }
    Request parsed;
    std::string error;
    if (batch_size > 0 && ParseMutation(words, &parsed, &error)) {
      group += (group_size == 0 ? "batch\n" : "") + line + '\n';
      if (++group_size == batch_size && (code = flush()) != 0) return code;
      continue;
    }
    if ((code = flush()) != 0) return code;
    std::string frame = line;
    if (words[0] == "batch") {
      std::string inner;
      while (read_line(&inner)) {
        frame += '\n' + inner;
        const std::vector<std::string> body = SplitWords(inner);
        if (!body.empty() && body[0] == "end") break;
      }
    }
    if ((code = send(frame)) != 0) return code;
    if (words[0] == "quit" || words[0] == "exit") return 0;
    prompt();
  }
  return flush();
}

Client::Client(Address address, RetryPolicy policy)
    : address_(std::move(address)),
      policy_(policy),
      rng_(policy.jitter_seed) {}

Client::~Client() { HardClose(); }

core::Status Client::Connect() {
  if (fd_ >= 0) return core::Status();
  core::Result<int> dialed = Dial(address_);
  if (!dialed.ok()) return dialed.status();
  fd_ = dialed.value();
  // Every successful dial after the first is a reconnect, whether it
  // followed a transport failure or a deliberate HardClose (churn).
  if (ever_connected_) ++counters_.reconnects;
  ever_connected_ = true;
  return core::Status();
}

void Client::HardClose() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

core::Status Client::Call(const std::string& request, Response* response) {
  ++counters_.calls;
  core::Status last = core::Status::Error("no attempts made");
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(policy_, attempt - 1, &rng_)));
    }
    core::Status connected = Connect();
    if (!connected.ok()) {
      last = connected;
      ++counters_.transport_retries;
      continue;
    }
    core::Status sent = WriteFrame(fd_, request);
    if (sent.ok()) {
      std::string frame;
      sent = ReadFrame(fd_, &frame);
      if (sent.ok()) {
        int code = 0;
        std::string body;
        if (!DecodeResponse(frame, &code, &body)) {
          last = core::Status::Error("malformed response frame");
          HardClose();
          ++counters_.transport_retries;
          continue;
        }
        response->code = code;
        response->body = std::move(body);
        if (code == ExitCodeFor(core::StatusCode::kResourceExhausted)) {
          // Admission rejection: the one response the policy resubmits.
          last = core::Status::ResourceExhausted(response->body);
          ++counters_.resource_retries;
          continue;
        }
        if (code == 0) return core::Status();
        return core::Status::WithCode(StatusCodeForExit(code),
                                      response->body.empty() ? "request failed"
                                                             : response->body);
      }
    }
    // Transport failure (send or receive): the connection is unusable and
    // the request's fate unknown — reconnect and resubmit. The soak's
    // linearizability check tolerates this because reads are idempotent and
    // write effects are checked against the service's applied history, not
    // the client's submission count.
    last = sent;
    HardClose();
    ++counters_.transport_retries;
  }
  return last;
}

}  // namespace dynfo::dyn::wire
