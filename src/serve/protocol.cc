#include "serve/protocol.h"

#include <cmath>
#include <string>

#include "common/strings.h"
#include "data/dataset_io.h"

namespace slim {
namespace {

Status BadCommand(std::string_view what) {
  return Status::InvalidArgument("bad-command " + std::string(what));
}

Status BadArgument(std::string_view what) {
  return Status::InvalidArgument("bad-argument " + std::string(what));
}

}  // namespace

Result<ServeCommand> ParseServeCommand(std::string_view line) {
  if (line.size() > kMaxProtocolLineBytes) {
    return Status::InvalidArgument("too-long line exceeds " +
                                   std::to_string(kMaxProtocolLineBytes) +
                                   " bytes");
  }
  const std::vector<std::string_view> tokens =
      SplitString(StripAsciiWhitespace(line), ' ');
  if (tokens.empty() || tokens.front().empty()) {
    return BadCommand("empty line");
  }
  const std::string_view verb = tokens.front();
  ServeCommand cmd;

  if (verb == "INGEST") {
    cmd.kind = ServeCommandKind::kIngest;
    if (tokens.size() < 6 || (tokens.size() - 2) % 4 != 0) {
      return BadArgument(
          "INGEST expects <A|B> then (entity lat lng timestamp) groups");
    }
    if (tokens[1] == "A") {
      cmd.side = LinkageSide::kE;
    } else if (tokens[1] == "B") {
      cmd.side = LinkageSide::kI;
    } else {
      return BadArgument("INGEST side must be A or B");
    }
    cmd.records.reserve((tokens.size() - 2) / 4);
    for (size_t i = 2; i + 3 < tokens.size(); i += 4) {
      const auto entity = ParseInt64(tokens[i]);
      const auto lat = ParseDouble(tokens[i + 1]);
      const auto lng = ParseDouble(tokens[i + 2]);
      const auto timestamp = ParseInt64(tokens[i + 3]);
      if (!entity.ok() || !lat.ok() || !lng.ok() || !timestamp.ok()) {
        return BadArgument("INGEST record fields must be numeric");
      }
      // The file readers' check (csv.cc, sbin.cc): NaN passes every
      // comparison, so a range test alone would let it reach the cell ids.
      if (!RawCoordinateInRange(*lat, *lng)) {
        return BadArgument(std::isfinite(*lat) && std::isfinite(*lng)
                               ? "INGEST coordinates out of range"
                               : "INGEST coordinates must be finite");
      }
      const LatLng location = LatLng{*lat, *lng}.Normalized();
      cmd.records.push_back({*entity, location, *timestamp});
    }
    return cmd;
  }
  if (verb == "LINK") {
    if (tokens.size() != 1) return BadArgument("LINK takes no arguments");
    cmd.kind = ServeCommandKind::kLink;
    return cmd;
  }
  if (verb == "TOPK") {
    if (tokens.size() != 2 && tokens.size() != 3) {
      return BadArgument("TOPK expects <entity> [k]");
    }
    cmd.kind = ServeCommandKind::kTopK;
    const auto entity = ParseInt64(tokens[1]);
    if (!entity.ok()) return BadArgument("TOPK entity must be an integer");
    cmd.entity = *entity;
    if (tokens.size() == 3) {
      const auto k = ParseInt64(tokens[2]);
      if (!k.ok() || *k < 1) return BadArgument("TOPK k must be >= 1");
      cmd.k = static_cast<size_t>(*k);
    }
    return cmd;
  }
  if (verb == "SUBSCRIBE") {
    if (tokens.size() != 1) return BadArgument("SUBSCRIBE takes no arguments");
    cmd.kind = ServeCommandKind::kSubscribe;
    return cmd;
  }
  if (verb == "STATS") {
    if (tokens.size() != 1) return BadArgument("STATS takes no arguments");
    cmd.kind = ServeCommandKind::kStats;
    return cmd;
  }
  if (verb == "SAVE") {
    if (tokens.size() != 2) return BadArgument("SAVE expects <path>");
    cmd.kind = ServeCommandKind::kSave;
    cmd.path = std::string(tokens[1]);
    return cmd;
  }
  if (verb == "SHUTDOWN") {
    if (tokens.size() != 1) return BadArgument("SHUTDOWN takes no arguments");
    cmd.kind = ServeCommandKind::kShutdown;
    return cmd;
  }
  return BadCommand("unknown command \"" + std::string(verb) + "\"");
}

std::string FormatServeError(std::string_view detail) {
  return "ERR " + std::string(detail);
}

std::string FormatServeScore(double score) { return FormatFixed(score, 6); }

}  // namespace slim
