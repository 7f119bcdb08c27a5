// Tests for the causal event ledger: ring bounding, session stitching, trip
// handlers, JSON exports, and the base-log hook routing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/obs/event_ledger.h"

namespace potemkin {
namespace {

TEST(EventLedgerTest, AppendAssignsMonotoneSequence) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kFirstContact, 1, 100, 0xAABB, 0xCCDD);
  ledger.Append(LedgerEvent::kCloneRequested, 1, 200);
  const auto events = ledger.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].time_ns, 100);
  EXPECT_EQ(events[0].a, 0xAABBu);
  EXPECT_EQ(events[0].b, 0xCCDDu);
  EXPECT_EQ(events[0].session, 1u);
  EXPECT_EQ(events[0].type, LedgerEvent::kFirstContact);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(ledger.appended(), 2u);
  EXPECT_EQ(ledger.dropped(), 0u);
}

TEST(EventLedgerTest, RingOverflowEvictsOldestKeepsOrder) {
  EventLedger ledger(4);
  for (int64_t i = 0; i < 10; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 1, i * 10, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(ledger.size(), 4u);
  EXPECT_EQ(ledger.appended(), 10u);
  EXPECT_EQ(ledger.dropped(), 6u);
  const auto events = ledger.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained is seq 6; order is oldest -> newest.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    EXPECT_EQ(events[i].a, 6 + i);
  }
}

TEST(EventLedgerTest, EventsForSessionStitchesOneTimeline) {
  EventLedger ledger(32);
  ledger.Append(LedgerEvent::kFirstContact, 7, 100);
  ledger.Append(LedgerEvent::kFirstContact, 8, 110);
  ledger.Append(LedgerEvent::kCloneDone, 7, 200);
  ledger.Append(LedgerEvent::kGuestRequest, 8, 210);
  ledger.Append(LedgerEvent::kContainmentReflect, 7, 300);
  const auto seven = ledger.EventsForSession(7);
  ASSERT_EQ(seven.size(), 3u);
  EXPECT_EQ(seven[0].type, LedgerEvent::kFirstContact);
  EXPECT_EQ(seven[1].type, LedgerEvent::kCloneDone);
  EXPECT_EQ(seven[2].type, LedgerEvent::kContainmentReflect);
  EXPECT_TRUE(ledger.EventsForSession(99).empty());
}

TEST(EventLedgerTest, TripFiresOnlyForMaskedTypes) {
  EventLedger ledger(16);
  std::vector<EventLedger::Record> tripped;
  ledger.SetTrip(EventLedger::TripBit(LedgerEvent::kContainmentBreach) |
                     EventLedger::TripBit(LedgerEvent::kFatal),
                 [&](const EventLedger::Record& r) { tripped.push_back(r); });
  ledger.Append(LedgerEvent::kPacketDelivered, 1, 10);
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 20, 42, 445);
  ledger.Append(LedgerEvent::kContainmentAllow, 1, 30);
  ASSERT_EQ(tripped.size(), 1u);
  EXPECT_EQ(tripped[0].type, LedgerEvent::kContainmentBreach);
  EXPECT_EQ(tripped[0].a, 42u);
  ledger.ClearTrip();
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 40);
  EXPECT_EQ(tripped.size(), 1u);  // disarmed
}

TEST(EventLedgerTest, JsonLinesSchemaValidAfterOverflow) {
  EventLedger ledger(4);
  for (int64_t i = 0; i < 9; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 3, i, 1, 2);
  }
  const std::string jsonl = ledger.ToJsonLines();
  // Meta line first, with honest append/drop accounting.
  EXPECT_EQ(jsonl.find("{\"ledger\":\"potemkin\",\"schema_version\":1,"
                       "\"appended\":9,\"dropped\":5}\n"),
            0u);
  // One record line per retained record, each carrying the required keys.
  size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 1u + 4u);
  EXPECT_NE(jsonl.find("\"type\":\"packet_delivered\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"session\":3"), std::string::npos);
  EXPECT_NE(jsonl.find("\"seq\":8"), std::string::npos);  // newest survived
  EXPECT_EQ(jsonl.find("\"seq\":4,"), std::string::npos);  // oldest evicted
}

TEST(EventLedgerTest, ChromeJsonHasPerSessionTracks) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kVmRetired, kNoSession, 50, 1, 0);
  ledger.Append(LedgerEvent::kFirstContact, 5, 100);
  const std::string json = ledger.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"farm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"session 5\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Microsecond timestamps: 100 ns -> 0.100 us.
  EXPECT_NE(json.find("\"ts\":0.100"), std::string::npos);
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(EventLedgerTest, ChromeJsonDerivesCloneSpansFromPairs) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kFirstContact, 4, 1000);
  ledger.Append(LedgerEvent::kCloneRequested, 4, 1000);
  ledger.Append(LedgerEvent::kCloneStarted, 4, 3500);
  ledger.Append(LedgerEvent::kCloneDone, 4, 21500);
  const std::string json = ledger.ToChromeJson();
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 2u);
  // Microsecond units: 1000 ns -> 1.000 us, a 2500 ns queue wait -> 2.500 us.
  EXPECT_NE(json.find("{\"name\":\"clone_queue\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":1.000,\"dur\":2.500,\"pid\":0,\"tid\":4,"
                      "\"args\":{\"begin_seq\":1,\"end_seq\":2}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"clone\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":3.500,\"dur\":18.000,\"pid\":0,\"tid\":4,"
                      "\"args\":{\"begin_seq\":2,\"end_seq\":3}}"),
            std::string::npos)
      << json;
  // Every record still exports as an instant.
  EXPECT_EQ(CountOf(json, "\"ph\":\"i\""), 4u);
}

TEST(EventLedgerTest, ChromeJsonSkipsPairWithEvictedBegin) {
  EventLedger ledger(3);
  ledger.Append(LedgerEvent::kCloneRequested, 2, 100);
  ledger.Append(LedgerEvent::kCloneStarted, 2, 200);  // evicted below
  ledger.Append(LedgerEvent::kPacketQueued, 2, 250);
  ledger.Append(LedgerEvent::kPacketQueued, 2, 260);
  ledger.Append(LedgerEvent::kCloneDone, 2, 300);
  ASSERT_EQ(ledger.dropped(), 2u);
  const std::string json = ledger.ToChromeJson();
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"clone_done\""), std::string::npos);
}

TEST(EventLedgerTest, ChromeJsonSkipsInFlightClone) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kCloneRequested, 6, 100);
  ledger.Append(LedgerEvent::kCloneStarted, 6, 200);
  const std::string json = ledger.ToChromeJson();
  // The queue wait is complete; the clone itself has no end yet.
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 1u) << json;
  EXPECT_NE(json.find("\"name\":\"clone_queue\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"clone\","), std::string::npos);
}

TEST(EventLedgerTest, ChromeJsonFailedCloneSpanEndsAtFailure) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kCloneRequested, 9, 0);
  ledger.Append(LedgerEvent::kCloneStarted, 9, 0);
  ledger.Append(LedgerEvent::kCloneFailed, 9, 7000);
  const std::string json = ledger.ToChromeJson();
  EXPECT_NE(json.find("{\"name\":\"clone\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":0.000,\"dur\":7.000,\"pid\":0,\"tid\":9,"
                      "\"args\":{\"begin_seq\":1,\"end_seq\":2}}"),
            std::string::npos)
      << json;
}

TEST(EventLedgerTest, ChromeJsonPairsInterleavedSessionsIndependently) {
  EventLedger ledger(16);
  ledger.Append(LedgerEvent::kCloneRequested, 1, 100);
  ledger.Append(LedgerEvent::kCloneRequested, 2, 150);
  ledger.Append(LedgerEvent::kCloneStarted, 2, 200);
  ledger.Append(LedgerEvent::kCloneStarted, 1, 300);
  ledger.Append(LedgerEvent::kCloneDone, 1, 1300);
  ledger.Append(LedgerEvent::kCloneDone, 2, 2200);
  const std::string json = ledger.ToChromeJson();
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 4u) << json;
  EXPECT_NE(json.find("\"name\":\"clone_queue\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":0.100,\"dur\":0.200,\"pid\":0,\"tid\":1,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"clone_queue\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":0.150,\"dur\":0.050,\"pid\":0,\"tid\":2,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"clone\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":0.300,\"dur\":1.000,\"pid\":0,\"tid\":1,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"clone\",\"cat\":\"clone\",\"ph\":\"X\","
                      "\"ts\":0.200,\"dur\":2.000,\"pid\":0,\"tid\":2,"),
            std::string::npos)
      << json;
  // One named track per session.
  EXPECT_EQ(CountOf(json, "\"name\":\"thread_name\""), 2u);
}

TEST(EventLedgerTest, ResetReallocatesAndClears) {
  EventLedger ledger(4);
  for (int i = 0; i < 6; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 1, i);
  }
  ledger.Reset(8);
  EXPECT_EQ(ledger.capacity(), 8u);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.appended(), 0u);
  EXPECT_EQ(ledger.dropped(), 0u);
  ledger.Append(LedgerEvent::kFirstContact, 2, 10);
  EXPECT_EQ(ledger.Events().size(), 1u);
}

TEST(EventLedgerTest, LogHookRoutesWarningsIntoLedger) {
  EventLedger ledger(16);
  int64_t clock_ns = 777;
  EventLedger::InstallLogHook(&ledger, [&] { return clock_ns; });
  PK_WARN << "watch out";
  PK_INFO << "not captured";  // info stays out of the ledger
  clock_ns = 888;
  PK_ERROR << "bad";
  EventLedger::InstallLogHook(nullptr, nullptr);
  PK_WARN << "after uninstall";  // must not land

  const auto events = ledger.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, LedgerEvent::kLogWarning);
  EXPECT_EQ(events[0].time_ns, 777);
  EXPECT_EQ(events[1].type, LedgerEvent::kLogError);
  EXPECT_EQ(events[1].time_ns, 888);
  // The site decodes into the JSONL as file:line.
  const std::string jsonl = ledger.ToJsonLines();
  EXPECT_NE(jsonl.find("\"site\":\"event_ledger_test.cc:"), std::string::npos);
}

TEST(EventLedgerTest, LogHookPreservesStderrOrdering) {
  // The hook must run in the log macro itself (after the fprintf), so ledger
  // order matches stderr order: warn, then error.
  EventLedger ledger(16);
  EventLedger::InstallLogHook(&ledger, [] { return int64_t{0}; });
  PK_WARN << "first";
  PK_ERROR << "second";
  EventLedger::InstallLogHook(nullptr, nullptr);
  const auto events = ledger.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[0].type, LedgerEvent::kLogWarning);
  EXPECT_EQ(events[1].type, LedgerEvent::kLogError);
}

}  // namespace
}  // namespace potemkin
