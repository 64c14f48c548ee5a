/// \file wire.h
/// The service wire protocol: the dynfo_cli script grammar as a request
/// language, length-prefixed frames as the transport, and the CLI's
/// exit-code taxonomy as the error model (DESIGN.md §15).
///
/// A frame is a 4-byte big-endian payload length followed by that many
/// bytes. Requests are script-grammar commands (`ins E 0 1`, `query`,
/// `eval ...`); a `batch ... end` block travels as ONE multi-line frame so
/// the group-commit boundary survives the transport. Responses are
/// `"<code> <body>"` where `<code>` is the CLI exit-code mapping of the
/// status taxonomy — so a script that branches on dynfo_cli exit codes can
/// branch on wire responses unchanged:
///
///   0 ok    1 error    2 usage    3 cancelled    4 deadline
///   5 resource exhausted (admission rejection -> retry with backoff)
///   6 corruption
///
/// One grammar, one interpreter, one runner: ServiceServer::Dispatch
/// (service.h) interprets every command, using the grammar helpers here
/// (SplitWords/ParseMutation/ParseElements); RunScript reads a script and
/// prints the answers for both front ends — dynfo_client sends its frames
/// over a socket, dynfo_cli hands them to Dispatch in process.

#ifndef DYNFO_DYNFO_WIRE_H_
#define DYNFO_DYNFO_WIRE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "fo/formula.h"
#include "relational/request.h"

namespace dynfo::dyn::wire {

/// Frames larger than this are rejected as corrupt rather than allocated:
/// a response carrying a full relation dump stays far below it.
inline constexpr size_t kMaxFrameBytes = size_t{1} << 24;

/// Maps the status taxonomy to the documented exit/wire codes. 2 is
/// reserved for usage errors (never produced by a Status).
int ExitCodeFor(core::StatusCode code);

/// Inverse of ExitCodeFor; 2 (usage) maps to kError.
core::StatusCode StatusCodeForExit(int exit_code);

/// Whitespace-splits one command line.
std::vector<std::string> SplitWords(const std::string& line);

/// Parses words[start..] as universe elements. On failure sets `error` and
/// returns false.
bool ParseElements(const std::vector<std::string>& words, size_t start,
                   std::vector<relational::Element>* out, std::string* error);

/// True for the three mutation commands (`ins`, `del`, `set`).
bool IsMutationCommand(const std::string& word);

/// Parses one mutation command into a Request. Returns false with `error`
/// set when the words are a malformed mutation, and false with `error`
/// EMPTY when words[0] is not a mutation command at all (the caller's
/// dispatch decides what that means).
bool ParseMutation(const std::vector<std::string>& words,
                   relational::Request* out, std::string* error);

/// Checks a read (`query`, `eval`, `show <query>`) before it is evaluated:
/// `formula` must exist (a program may define no boolean query), every
/// request parameter $i it uses needs i < params.size(), and every element
/// must lie in the universe. Returns false with `error` set otherwise; the
/// front ends answer that as a usage error.
bool CheckReadArguments(const fo::FormulaPtr& formula,
                        const std::vector<relational::Element>& params,
                        size_t universe_size, std::string* error);

// -- Framing ---------------------------------------------------------------

/// Writes one length-prefixed frame; retries short writes and EINTR. Uses
/// send(MSG_NOSIGNAL) on sockets so a peer that died mid-write surfaces as
/// an error Status, not SIGPIPE.
core::Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame into `payload`. A clean EOF at a frame boundary returns
/// kCancelled with message "eof" (the orderly-close signal); EOF inside a
/// frame, oversized lengths, and transport errors return kError.
core::Status ReadFrame(int fd, std::string* payload,
                       size_t max_bytes = kMaxFrameBytes);

/// True when `status` is ReadFrame's orderly-close signal.
bool IsEof(const core::Status& status);

// -- Responses -------------------------------------------------------------

std::string EncodeResponse(int code, std::string_view body);

/// Splits "<code> <body>"; false on a frame that doesn't start with an
/// integer code.
bool DecodeResponse(const std::string& frame, int* code, std::string* body);

// -- Addresses and sockets -------------------------------------------------

/// "unix:/path/to.sock" | "tcp:PORT" | "tcp:HOST:PORT" (host defaults to
/// 127.0.0.1 — the service is a local front end, not an internet daemon).
struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;             ///< kUnix
  std::string host = "127.0.0.1";
  int port = 0;                 ///< kTcp; 0 = kernel-assigned
};

bool ParseAddress(const std::string& spec, Address* out, std::string* error);

/// Binds and listens; returns the listening fd. For tcp:0 the caller reads
/// the assigned port back with BoundPort.
core::Result<int> Listen(const Address& address);

/// The port a listening TCP fd actually bound (for tcp:0).
core::Result<int> BoundPort(int fd);

/// Connects; returns the connected fd.
core::Result<int> Dial(const Address& address);

// -- Client ----------------------------------------------------------------

/// Exponential backoff with full-ish jitter for admission-rejected and
/// transport-failed calls: sleep = min(max, initial * multiplier^attempt)
/// scaled by a uniform draw in [0.5, 1.0) so a herd of rejected clients
/// decorrelates instead of re-stampeding the admission queue.
struct RetryPolicy {
  int max_attempts = 6;       ///< total tries per Call (first one included)
  int initial_backoff_ms = 2;
  double multiplier = 2.0;
  int max_backoff_ms = 250;
  uint64_t jitter_seed = 1;
};

/// Backoff for the k-th retry (k = 0 for the first), jittered by `rng`.
int BackoffMs(const RetryPolicy& policy, int retry, core::Rng* rng);

struct Response {
  int code = 0;
  std::string body;
};

/// Runs a script through `call`, which sends one frame and returns its
/// response. Each line loses its `#` comment; a `batch ... end` block
/// travels as one frame. With `batch_size` > 0, each run of consecutive
/// mutations travels as batch frames of up to that many; the run flushes
/// before any other command, at `quit`/`exit` and at end of input, and a
/// mutation that does not parse flushes it and is then sent alone. Prints
/// each response body, or `error[<code>]: <message>`. Interactive runs
/// prompt with `dynfo> ` and go on after errors; otherwise the first
/// non-zero code ends the run and is returned. `quit`/`exit` end the run
/// after their response.
int RunScript(std::istream& in, std::ostream& out, bool interactive,
              size_t batch_size,
              const std::function<Response(const std::string&)>& call);

/// A retrying connection to a ServiceServer. Call() sends one request frame
/// and waits for the response; on a transport failure it reconnects, and on
/// a resource-exhausted response (wire code 5 — the admission queue was
/// full) it backs off and resubmits, per the policy. Not thread-safe; one
/// client per session thread.
class Client {
 public:
  struct Counters {
    uint64_t calls = 0;             ///< Call() invocations
    uint64_t resource_retries = 0;  ///< resubmits after a code-5 rejection
    uint64_t transport_retries = 0; ///< resubmits after a broken connection
    uint64_t reconnects = 0;        ///< successful re-dials
  };

  explicit Client(Address address, RetryPolicy policy = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects now (Call connects lazily otherwise).
  core::Status Connect();

  /// One request/response exchange with retries. A non-OK return means
  /// every attempt failed; `response` then holds the last decoded response
  /// if any attempt got one.
  core::Status Call(const std::string& request, Response* response);

  /// Drops the socket without an orderly goodbye — the kill-and-reconnect
  /// churn hook for the soak. The next Call re-dials.
  void HardClose();

  bool connected() const { return fd_ >= 0; }
  const Counters& counters() const { return counters_; }

 private:
  Address address_;
  RetryPolicy policy_;
  core::Rng rng_;
  int fd_ = -1;
  bool ever_connected_ = false;
  Counters counters_;
};

}  // namespace dynfo::dyn::wire

#endif  // DYNFO_DYNFO_WIRE_H_
