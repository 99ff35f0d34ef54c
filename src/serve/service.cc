#include "serve/service.h"

#include <string>
#include <utility>

#include "common/build_info.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "eval/links_io.h"

namespace slim {
namespace {

void AppendLinkEvents(int epoch, char sign,
                      const std::vector<LinkedEntityPair>& links,
                      std::vector<std::string>* events) {
  for (const LinkedEntityPair& link : links) {
    events->push_back("EVENT epoch=" + std::to_string(epoch) + " link " +
                      sign + " " + std::to_string(link.u) + " " +
                      std::to_string(link.v) + " " +
                      FormatServeScore(link.score));
  }
}

}  // namespace

LinkageService::LinkageService(SlimConfig config)
    : linker_(std::move(config)) {}

std::string LinkageService::HelloLine() const {
  return std::string("HELLO ") + std::string(kServeProtocolVersion) +
         " build=" + BuildGitDescribe() +
         " candidates=" + std::string(CandidateKindName(
                              linker_.config().candidates));
}

ServeReply LinkageService::Execute(std::string_view line) {
  ServeReply reply;
  if (line.size() > kMaxProtocolLineBytes) {
    reply.line = FormatServeError("too-long line exceeds " +
                                  std::to_string(kMaxProtocolLineBytes) +
                                  " bytes");
    return reply;
  }
  auto parsed = ParseServeCommand(line);
  if (!parsed.ok()) {
    reply.line = FormatServeError(parsed.status().message());
    return reply;
  }
  if (shut_down_) {
    reply.line = FormatServeError("shutdown daemon is shutting down");
    return reply;
  }
  ServeCommand& cmd = parsed.value();
  switch (cmd.kind) {
    case ServeCommandKind::kIngest: {
      linker_.Ingest(cmd.side, cmd.records);
      reply.line =
          "OK ingested=" + std::to_string(cmd.records.size()) +
          " pending_a=" +
          std::to_string(linker_.pending_records(LinkageSide::kE)) +
          " pending_b=" +
          std::to_string(linker_.pending_records(LinkageSide::kI));
      return reply;
    }
    case ServeCommandKind::kLink: {
      auto epoch = linker_.LinkEpoch();
      if (!epoch.ok()) {
        reply.line = FormatServeError("io " +
                                      std::string(epoch.status().message()));
        return reply;
      }
      const EpochResult& r = epoch.value();
      reply.line =
          "OK epoch=" + std::to_string(r.epoch) +
          " links=" + std::to_string(r.linkage.links.size()) +
          " added=" + std::to_string(r.added_links.size()) +
          " removed=" + std::to_string(r.removed_links.size()) +
          " scored=" + std::to_string(r.incremental.pairs_scored) +
          " reused=" + std::to_string(r.incremental.pairs_reused) +
          " threshold=" +
          (r.linkage.threshold_valid
               ? FormatServeScore(r.linkage.threshold.threshold)
               : "none");
      AppendLinkEvents(r.epoch, '-', r.removed_links, &reply.events);
      AppendLinkEvents(r.epoch, '+', r.added_links, &reply.events);
      reply.events.push_back(
          "EVENT epoch=" + std::to_string(r.epoch) +
          " sealed links=" + std::to_string(r.linkage.links.size()));
      return reply;
    }
    case ServeCommandKind::kTopK: {
      const std::vector<LinkedEntityPair> top =
          linker_.TopK(cmd.entity, cmd.k);
      reply.line = "OK matches=" + std::to_string(top.size());
      for (const LinkedEntityPair& match : top) {
        reply.line += ' ';
        reply.line += std::to_string(match.v);
        reply.line += ':';
        reply.line += FormatServeScore(match.score);
      }
      return reply;
    }
    case ServeCommandKind::kSubscribe: {
      reply.subscribe = true;
      reply.line = "OK subscribed epoch=" + std::to_string(linker_.epoch());
      return reply;
    }
    case ServeCommandKind::kStats: {
      const LinkageContext& ctx = linker_.context();
      reply.line =
          "OK epoch=" + std::to_string(linker_.epoch()) +
          " entities_a=" + std::to_string(ctx.store_e.size()) +
          " entities_b=" + std::to_string(ctx.store_i.size()) +
          " records_a=" +
          std::to_string(linker_.total_records(LinkageSide::kE)) +
          " records_b=" +
          std::to_string(linker_.total_records(LinkageSide::kI)) +
          " pending_a=" +
          std::to_string(linker_.pending_records(LinkageSide::kE)) +
          " pending_b=" +
          std::to_string(linker_.pending_records(LinkageSide::kI)) +
          " bins=" + std::to_string(ctx.vocab.size()) +
          " links=" + std::to_string(linker_.links().size());
      return reply;
    }
    case ServeCommandKind::kSave: {
      const Status written = WriteLinksCsv(linker_.links(), cmd.path);
      if (!written.ok()) {
        reply.line =
            FormatServeError("io " + std::string(written.message()));
        return reply;
      }
      reply.line = "OK saved=" + cmd.path +
                   " links=" + std::to_string(linker_.links().size());
      return reply;
    }
    case ServeCommandKind::kShutdown: {
      shut_down_ = true;
      reply.shutdown = true;
      reply.line = "OK bye";
      return reply;
    }
  }
  reply.line = FormatServeError("bad-command unreachable");
  return reply;
}

}  // namespace slim
