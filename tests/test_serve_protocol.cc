// Unit tests of the slim-serve-v1 line protocol: the parser, the
// transport-free LinkageService executor, and every error path the spec
// names (malformed command, oversized line, commands after SHUTDOWN).
#include "serve/protocol.h"

#include <string>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "serve/service.h"

namespace slim {
namespace {

SlimConfig ServeTestConfig() {
  SlimConfig c;
  c.candidates = CandidateKind::kBruteForce;
  c.threads = 2;
  return c;
}

// Two tiny overlapping trajectories: entity 1 on side A and entity 9 on
// side B visit the same cells at the same times, so one LINK epoch
// produces exactly the (1, 9) link. The decoy entities 2 and 8 sit
// degrees apart (far outside one level-12 cell) so every pair involving
// them scores zero — and a second side is needed at all because with one
// entity per side every IDF is log(1/1) = 0. (Distinct entities also
// keep the decoys' coordinates; entity 8 gets co-located with entity 2
// only in the delta-epoch test below.)
const char* kIngestA =
    "INGEST A 1 37.7749 -122.4194 600 1 37.7755 -122.4180 1500 "
    "1 37.7760 -122.4170 2400 1 37.7765 -122.4160 3300 "
    "2 36.0000 -120.0000 20600 2 36.0100 -120.0100 21500";
const char* kIngestB =
    "INGEST B 9 37.7749 -122.4194 620 9 37.7755 -122.4180 1520 "
    "9 37.7760 -122.4170 2420 9 37.7765 -122.4160 3320 "
    "8 39.0000 -124.5000 600 8 39.0100 -124.5100 1500";

TEST(ServeProtocol, ParsesIngest) {
  auto cmd = ParseServeCommand("INGEST A 7 37.5 -122.4 1234");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->kind, ServeCommandKind::kIngest);
  EXPECT_EQ(cmd->side, LinkageSide::kE);
  ASSERT_EQ(cmd->records.size(), 1u);
  EXPECT_EQ(cmd->records[0].entity, 7);
  EXPECT_EQ(cmd->records[0].location.lat_deg, 37.5);
  EXPECT_EQ(cmd->records[0].location.lng_deg, -122.4);
  EXPECT_EQ(cmd->records[0].timestamp, 1234);
}

TEST(ServeProtocol, ParsesTopKWithDefaultK) {
  auto cmd = ParseServeCommand("TOPK 42");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->kind, ServeCommandKind::kTopK);
  EXPECT_EQ(cmd->entity, 42);
  EXPECT_EQ(cmd->k, 5u);
  auto cmd2 = ParseServeCommand("TOPK 42 3");
  ASSERT_TRUE(cmd2.ok());
  EXPECT_EQ(cmd2->k, 3u);
}

TEST(ServeProtocol, RejectsMalformedCommands) {
  // Every rejection carries the wire error code as the first word.
  const struct {
    const char* line;
    const char* code;
  } kCases[] = {
      {"", "bad-command"},
      {"   ", "bad-command"},
      {"FROBNICATE", "bad-command"},
      {"ingest A 1 37.5 -122.4 60", "bad-command"},  // case-sensitive
      {"INGEST C 1 37.5 -122.4 60", "bad-argument"},
      {"INGEST A", "bad-argument"},
      {"INGEST A 1 37.5 -122.4", "bad-argument"},      // truncated group
      {"INGEST A 1 x -122.4 60", "bad-argument"},      // non-numeric
      {"INGEST A 1 91.0 -122.4 60", "bad-argument"},   // lat out of range
      {"INGEST A 1 37.5 -222.4 60", "bad-argument"},   // lng out of range
      {"LINK now", "bad-argument"},
      {"TOPK", "bad-argument"},
      {"TOPK notanumber", "bad-argument"},
      {"TOPK 1 0", "bad-argument"},
      {"SAVE", "bad-argument"},
      {"SHUTDOWN please", "bad-argument"},
  };
  for (const auto& c : kCases) {
    auto cmd = ParseServeCommand(c.line);
    ASSERT_FALSE(cmd.ok()) << c.line;
    EXPECT_EQ(cmd.status().message().substr(0, std::string(c.code).size()),
              c.code)
        << c.line << " -> " << cmd.status().message();
  }
}

TEST(ServeProtocol, RejectsNonFiniteCoordinates) {
  // from_chars reads these spellings as NaN, which passes every range
  // comparison; each must be refused before it reaches the cell ids.
  for (const char* nan : {"nan", "-nan", "NaN"}) {
    for (const bool in_lat : {true, false}) {
      const std::string line =
          in_lat ? "INGEST A 1 " + std::string(nan) + " 0 100"
                 : "INGEST A 1 0 " + std::string(nan) + " 100";
      auto cmd = ParseServeCommand(line);
      ASSERT_FALSE(cmd.ok()) << line;
      EXPECT_EQ(cmd.status().message().rfind("bad-argument", 0), 0u)
          << line << " -> " << cmd.status().message();
    }
  }
}

TEST(ServeProtocol, RejectsOversizedLine) {
  const std::string line = "TOPK " + std::string(kMaxProtocolLineBytes, '1');
  auto cmd = ParseServeCommand(line);
  ASSERT_FALSE(cmd.ok());
  EXPECT_EQ(cmd.status().message().substr(0, 8), "too-long");
}

TEST(ServeService, HandshakeNamesProtocolAndBuild) {
  LinkageService service(ServeTestConfig());
  const std::string hello = service.HelloLine();
  EXPECT_EQ(hello.rfind("HELLO slim-serve-v1 build=", 0), 0u) << hello;
  EXPECT_NE(hello.find("candidates=brute"), std::string::npos) << hello;
}

TEST(ServeService, IngestLinkTopkFlow) {
  LinkageService service(ServeTestConfig());
  ServeReply r = service.Execute(kIngestA);
  EXPECT_EQ(r.line.rfind("OK ingested=6 ", 0), 0u) << r.line;
  r = service.Execute(kIngestB);
  EXPECT_EQ(r.line.rfind("OK ingested=6 ", 0), 0u) << r.line;

  r = service.Execute("LINK");
  EXPECT_EQ(r.line.rfind("OK epoch=1 ", 0), 0u) << r.line;
  EXPECT_NE(r.line.find(" links=1 "), std::string::npos) << r.line;
  // The event feed seals the epoch even with no subscribers connected.
  ASSERT_FALSE(r.events.empty());
  EXPECT_NE(r.events.back().find("sealed links=1"), std::string::npos);

  r = service.Execute("TOPK 1");
  EXPECT_EQ(r.line.rfind("OK matches=1 9:", 0), 0u) << r.line;
  r = service.Execute("TOPK 999");
  EXPECT_EQ(r.line, "OK matches=0");

  r = service.Execute("STATS");
  EXPECT_EQ(r.line.rfind("OK epoch=1 entities_a=2 entities_b=2 ", 0), 0u)
      << r.line;
  EXPECT_NE(r.line.find(" links=1"), std::string::npos) << r.line;
}

TEST(ServeService, SecondEpochEmitsDeltaEvents) {
  LinkageService service(ServeTestConfig());
  service.Execute(kIngestA);
  service.Execute(kIngestB);
  ServeReply first = service.Execute("LINK");
  ASSERT_EQ(first.line.rfind("OK epoch=1 ", 0), 0u);

  // Entity 2's doppelganger arrives on side B: a second link appears.
  // Hours after entity 8's decoy records — close enough in time to share
  // entity 2's windows, far enough that no max-speed alibi fires against
  // the decoy position 500 km away.
  service.Execute(
      "INGEST B 8 36.0000 -120.0000 20620 8 36.0100 -120.0100 21520");
  ServeReply second = service.Execute("LINK");
  EXPECT_EQ(second.line.rfind("OK epoch=2 ", 0), 0u) << second.line;
  bool saw_addition = false;
  for (const std::string& event : second.events) {
    if (event.rfind("EVENT epoch=2 link + 2 8 ", 0) == 0) saw_addition = true;
  }
  EXPECT_TRUE(saw_addition);
}

TEST(ServeService, MalformedAndOversizedExecuteAsErrors) {
  LinkageService service(ServeTestConfig());
  ServeReply r = service.Execute("FROBNICATE");
  EXPECT_EQ(r.line.rfind("ERR bad-command ", 0), 0u) << r.line;
  r = service.Execute("INGEST A 1 91.0 -122.4 60");
  EXPECT_EQ(r.line.rfind("ERR bad-argument ", 0), 0u) << r.line;
  r = service.Execute(std::string(kMaxProtocolLineBytes + 1, 'A'));
  EXPECT_EQ(r.line.rfind("ERR too-long ", 0), 0u) << r.line;
  // Errors never wedge the session.
  r = service.Execute("STATS");
  EXPECT_EQ(r.line.rfind("OK epoch=0 ", 0), 0u) << r.line;
}

TEST(ServeService, NanIngestIsAnErrorAndTheSessionLivesOn) {
  LinkageService service(ServeTestConfig());
  ServeReply r = service.Execute("INGEST A 1 nan 0 100");
  EXPECT_EQ(r.line.rfind("ERR bad-argument ", 0), 0u) << r.line;
  r = service.Execute("INGEST B 9 0 nan 100");
  EXPECT_EQ(r.line.rfind("ERR bad-argument ", 0), 0u) << r.line;
  r = service.Execute(kIngestA);
  EXPECT_EQ(r.line.rfind("OK ingested=6 ", 0), 0u) << r.line;
  r = service.Execute(kIngestB);
  EXPECT_EQ(r.line.rfind("OK ingested=6 ", 0), 0u) << r.line;
  r = service.Execute("LINK");
  EXPECT_EQ(r.line.rfind("OK epoch=1 ", 0), 0u) << r.line;
  EXPECT_NE(r.line.find(" links=1 "), std::string::npos) << r.line;
}

TEST(ServeService, SaveFailsWithIoErrorOnBadPath) {
  LinkageService service(ServeTestConfig());
  const ServeReply r =
      service.Execute("SAVE /nonexistent-dir-xyz/links.csv");
  EXPECT_EQ(r.line.rfind("ERR io ", 0), 0u) << r.line;
}

TEST(ServeService, ShutdownRefusesFurtherCommands) {
  LinkageService service(ServeTestConfig());
  service.Execute(kIngestA);
  ServeReply r = service.Execute("SHUTDOWN");
  EXPECT_EQ(r.line, "OK bye");
  EXPECT_TRUE(r.shutdown);
  EXPECT_TRUE(service.shut_down());

  // Every post-shutdown command — including INGEST — is refused.
  r = service.Execute(kIngestB);
  EXPECT_EQ(r.line.rfind("ERR shutdown ", 0), 0u) << r.line;
  r = service.Execute("LINK");
  EXPECT_EQ(r.line.rfind("ERR shutdown ", 0), 0u) << r.line;
  // Malformed input still reports its own error first.
  r = service.Execute("FROBNICATE");
  EXPECT_EQ(r.line.rfind("ERR bad-command ", 0), 0u) << r.line;
}

TEST(ServeService, ScoresUseLinksCsvFormatting) {
  LinkageService service(ServeTestConfig());
  service.Execute(kIngestA);
  service.Execute(kIngestB);
  service.Execute("LINK");
  const ServeReply r = service.Execute("TOPK 1 1");
  // "OK matches=1 9:<score>" with the 6-decimal fixed formatting of the
  // links CSV — the serve-smoke byte-compare depends on this.
  ASSERT_EQ(r.line.rfind("OK matches=1 9:", 0), 0u) << r.line;
  const std::string score =
      r.line.substr(std::string("OK matches=1 9:").size());
  const auto parsed = ParseDouble(score);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(score, FormatServeScore(*parsed));
  EXPECT_NE(score.find('.'), std::string::npos);
  EXPECT_EQ(score.size() - score.find('.') - 1, 6u);
}

}  // namespace
}  // namespace slim
