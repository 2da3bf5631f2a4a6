// Must not compile: a closure larger than InlineEvent's inline buffer.
// The inline_event_rejects_oversized CTest runs the compiler on this file
// and passes only if the diagnostic carries the budget assert's message.
#include <array>

#include "sim/event.hpp"

using colibri::sim::InlineEvent;

int main() {
  std::array<char, InlineEvent::kInlineSize + 8> bytes{};
  InlineEvent ev([bytes] { (void)bytes; });
  ev.run();
}
