#include "net/message.h"

namespace fresque {
namespace net {

const char* MessageTypeToString(MessageType t) {
  switch (t) {
    case MessageType::kRawLine:
      return "RawLine";
    case MessageType::kTaggedRecord:
      return "TaggedRecord";
    case MessageType::kCloudRecord:
      return "CloudRecord";
    case MessageType::kRemovedRecord:
      return "RemovedRecord";
    case MessageType::kPublish:
      return "Publish";
    case MessageType::kDone:
      return "Done";
    case MessageType::kTemplateInit:
      return "TemplateInit";
    case MessageType::kTemplateForward:
      return "TemplateForward";
    case MessageType::kAlSnapshot:
      return "AlSnapshot";
    case MessageType::kPublicationStart:
      return "PublicationStart";
    case MessageType::kIndexPublication:
      return "IndexPublication";
    case MessageType::kMatchingTable:
      return "MatchingTable";
    case MessageType::kCloudTaggedRecord:
      return "CloudTaggedRecord";
    case MessageType::kShutdown:
      return "Shutdown";
  }
  return "?";
}

Bytes Message::Serialize() const {
  Bytes out;
  SerializeAppend(&out);
  return out;
}

void Message::SerializeAppend(Bytes* out) const {
  out->reserve(out->size() + SerializedSize());
  auto put_u64 = [out](uint64_t v) {
    for (size_t i = 0; i < sizeof(v); ++i) {
      out->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  out->push_back(static_cast<uint8_t>(type));
  put_u64(pn);
  put_u64(leaf);
  out->push_back(dummy ? 1 : 0);
  put_u64(static_cast<uint64_t>(born_ns));
  const uint32_t plen = static_cast<uint32_t>(payload.size());
  for (size_t i = 0; i < sizeof(plen); ++i) {
    out->push_back(static_cast<uint8_t>(plen >> (8 * i)));
  }
  out->insert(out->end(), payload.begin(), payload.end());
}

Result<Message> Message::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  auto type = r.GetU8();
  auto pn = r.GetU64();
  auto leaf = r.GetU64();
  auto dummy = r.GetU8();
  auto born = r.GetU64();
  auto payload = r.GetBytes();
  if (!type.ok() || !pn.ok() || !leaf.ok() || !dummy.ok() || !born.ok() ||
      !payload.ok()) {
    return Status::Corruption("truncated message frame");
  }
  if (*type > static_cast<uint8_t>(MessageType::kShutdown)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(*type));
  }
  Message m;
  m.type = static_cast<MessageType>(*type);
  m.pn = *pn;
  m.leaf = *leaf;
  m.dummy = *dummy != 0;
  m.born_ns = static_cast<int64_t>(*born);
  m.payload = std::move(*payload);
  return m;
}

MailboxPtr MakeMailbox(size_t capacity) {
  return std::make_shared<Mailbox>(capacity);
}

}  // namespace net
}  // namespace fresque
