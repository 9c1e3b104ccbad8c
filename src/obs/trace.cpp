#include "obs/trace.h"

#include <cstdio>
#include <ostream>

namespace wave::obs {

const char* to_string(Span::Kind kind) {
  switch (kind) {
    case Span::Kind::kCompute: return "compute";
    case Span::Kind::kSend: return "send";
    case Span::Kind::kRecv: return "recv";
    case Span::Kind::kWait: return "wait";
    case Span::Kind::kExchange: return "exchange";
  }
  return "compute";
}

void write_chrome_trace(std::ostream& out, const SpanCapture& capture) {
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : capture.buffer().spans()) {
    if (!first) out << ",";
    first = false;
    // ts/dur are already microseconds — the trace-event unit — so the
    // simulated clock maps onto the viewer's axis unscaled.
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.17g,"
                  "\"dur\":%.17g,\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"peer\":%d,\"bytes\":%.17g}}",
                  to_string(s.kind), s.begin_us, s.end_us - s.begin_us,
                  s.rank, s.peer, s.bytes);
    out << buf;
  }
  if (capture.truncated()) {
    if (!first) out << ",";
    out << "{\"name\":\"trace truncated: span cap reached\","
           "\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\"}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace wave::obs
