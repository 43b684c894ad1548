#include "rpc/wire.h"

#include <cstring>
#include <utility>

#include "common/archive.h"
#include "core/api.h"

namespace dynamo::rpc::wire {

namespace {

// --- body encode helpers ---------------------------------------------------

void PutStatus(Archive& ar, const api::Status& s)
{
    ar.U8(static_cast<std::uint8_t>(s.code));
    ar.Bool(s.retriable);
    ar.Str(s.detail);
}

void PutOptWatts(Archive& ar, const std::optional<Watts>& w)
{
    ar.Bool(w.has_value());
    ar.F64(w.has_value() ? *w : 0.0);
}

// --- body decode helpers ---------------------------------------------------
//
// ArchiveReader throws std::runtime_error with the offset on
// truncation; Get* additionally range-check enums, and DecodeBody
// wraps everything in WireError so callers see one exception type.

api::Status GetStatus(ArchiveReader& r)
{
    api::Status s;
    const std::uint8_t code = r.U8();
    if (code > static_cast<std::uint8_t>(api::StatusCode::kUnimplemented)) {
        throw WireError("status code " + std::to_string(code) +
                            " out of range",
                        r.pos() - 1);
    }
    s.code = static_cast<api::StatusCode>(code);
    s.retriable = r.Bool();
    s.detail = r.Str();
    return s;
}

std::optional<Watts> GetOptWatts(ArchiveReader& r)
{
    const bool has = r.Bool();
    const Watts w = r.F64();  // always present, keeps the layout fixed-width
    if (!has) return std::nullopt;
    return w;
}

workload::ServiceType GetService(ArchiveReader& r)
{
    const std::uint8_t v = r.U8();
    if (v >= workload::kAllServices.size()) {
        throw WireError("service type " + std::to_string(v) + " out of range",
                        r.pos() - 1);
    }
    return static_cast<workload::ServiceType>(v);
}

// --- per-type body codecs --------------------------------------------------

void EncodePowerReadResult(Archive& ar, const api::PowerReadResult& m)
{
    PutStatus(ar, m.status);
    ar.Str(m.source);
    ar.F64(m.power);
    ar.Bool(m.estimated);
    ar.U8(static_cast<std::uint8_t>(m.service));
    ar.Bool(m.capped);
    ar.F64(m.power_limit);
    ar.F64(m.cpu_power);
    ar.F64(m.memory_power);
    ar.F64(m.other_power);
    ar.F64(m.conversion_loss);
    ar.F64(m.quota);
    ar.F64(m.floor);
    PutOptWatts(ar, m.contract);
}

api::PowerReadResult DecodePowerReadResult(ArchiveReader& r)
{
    api::PowerReadResult m;
    m.status = GetStatus(r);
    m.source = r.Str();
    m.power = r.F64();
    m.estimated = r.Bool();
    m.service = GetService(r);
    m.capped = r.Bool();
    m.power_limit = r.F64();
    m.cpu_power = r.F64();
    m.memory_power = r.F64();
    m.other_power = r.F64();
    m.conversion_loss = r.F64();
    m.quota = r.F64();
    m.floor = r.F64();
    m.contract = GetOptWatts(r);
    return m;
}

void EncodeStatusResult(Archive& ar, const api::StatusResult& m)
{
    PutStatus(ar, m.status);
    ar.Str(m.endpoint);
    ar.Str(m.health);
    ar.U64(m.cycles);
    ar.U64(m.caps_adopted);
    ar.U64(m.contracts_adopted);
    ar.F64(m.power);
    ar.Bool(m.capping);
}

api::StatusResult DecodeStatusResult(ArchiveReader& r)
{
    api::StatusResult m;
    m.status = GetStatus(r);
    m.endpoint = r.Str();
    m.health = r.Str();
    m.cycles = r.U64();
    m.caps_adopted = r.U64();
    m.contracts_adopted = r.U64();
    m.power = r.F64();
    m.capping = r.Bool();
    return m;
}

}  // namespace

const char*
MessageTypeName(MessageType type)
{
    switch (type) {
      case MessageType::kNone: return "None";
      case MessageType::kPowerReadRequest: return "PowerReadRequest";
      case MessageType::kPowerReadResult: return "PowerReadResult";
      case MessageType::kCapRequest: return "CapRequest";
      case MessageType::kCapResult: return "CapResult";
      case MessageType::kContractUpdate: return "ContractUpdate";
      case MessageType::kTuneEstimate: return "TuneEstimate";
      case MessageType::kHealthProbe: return "HealthProbe";
      case MessageType::kHealthResult: return "HealthResult";
      case MessageType::kStatusRequest: return "StatusRequest";
      case MessageType::kStatusResult: return "StatusResult";
    }
    return "?";
}

MessageType
TypeOf(const std::any& message)
{
    if (message.type() == typeid(api::PowerReadRequest)) {
        return MessageType::kPowerReadRequest;
    }
    if (message.type() == typeid(api::PowerReadResult)) {
        return MessageType::kPowerReadResult;
    }
    if (message.type() == typeid(api::CapRequest)) {
        return MessageType::kCapRequest;
    }
    if (message.type() == typeid(api::CapResult)) {
        return MessageType::kCapResult;
    }
    if (message.type() == typeid(api::ContractUpdate)) {
        return MessageType::kContractUpdate;
    }
    if (message.type() == typeid(api::TuneEstimate)) {
        return MessageType::kTuneEstimate;
    }
    if (message.type() == typeid(api::HealthProbe)) {
        return MessageType::kHealthProbe;
    }
    if (message.type() == typeid(api::HealthResult)) {
        return MessageType::kHealthResult;
    }
    if (message.type() == typeid(api::StatusRequest)) {
        return MessageType::kStatusRequest;
    }
    if (message.type() == typeid(api::StatusResult)) {
        return MessageType::kStatusResult;
    }
    throw WireError(std::string("unserializable payload type ") +
                        message.type().name(),
                    0);
}

std::string
EncodeBody(const std::any& message)
{
    Archive ar;
    switch (TypeOf(message)) {
      case MessageType::kNone:
        break;
      case MessageType::kPowerReadRequest:
        break;  // empty body
      case MessageType::kPowerReadResult:
        EncodePowerReadResult(ar,
                              std::any_cast<const api::PowerReadResult&>(message));
        break;
      case MessageType::kCapRequest:
        PutOptWatts(ar, std::any_cast<const api::CapRequest&>(message).limit);
        break;
      case MessageType::kCapResult:
        PutStatus(ar, std::any_cast<const api::CapResult&>(message).status);
        break;
      case MessageType::kContractUpdate: {
        const auto& m = std::any_cast<const api::ContractUpdate&>(message);
        PutOptWatts(ar, m.limit);
        ar.U64(m.span_id);
        ar.U64(m.spec_epoch);
        break;
      }
      case MessageType::kTuneEstimate:
        ar.F64(std::any_cast<const api::TuneEstimate&>(message).reference_ratio);
        break;
      case MessageType::kHealthProbe:
        break;  // empty body
      case MessageType::kHealthResult:
        PutStatus(ar, std::any_cast<const api::HealthResult&>(message).status);
        break;
      case MessageType::kStatusRequest:
        break;  // empty body
      case MessageType::kStatusResult:
        EncodeStatusResult(ar, std::any_cast<const api::StatusResult&>(message));
        break;
    }
    return ar.TakeBytes();
}

std::any
DecodeBody(MessageType type, std::string_view body)
{
    ArchiveReader r(body);
    std::any message;
    try {
        switch (type) {
          case MessageType::kNone:
            break;
          case MessageType::kPowerReadRequest:
            message = api::PowerReadRequest{};
            break;
          case MessageType::kPowerReadResult:
            message = DecodePowerReadResult(r);
            break;
          case MessageType::kCapRequest:
            message = api::CapRequest{GetOptWatts(r)};
            break;
          case MessageType::kCapResult:
            message = api::CapResult{GetStatus(r)};
            break;
          case MessageType::kContractUpdate: {
            api::ContractUpdate m;
            m.limit = GetOptWatts(r);
            m.span_id = r.U64();
            m.spec_epoch = r.U64();
            message = std::move(m);
            break;
          }
          case MessageType::kTuneEstimate:
            message = api::TuneEstimate{r.F64()};
            break;
          case MessageType::kHealthProbe:
            message = api::HealthProbe{};
            break;
          case MessageType::kHealthResult:
            message = api::HealthResult{GetStatus(r)};
            break;
          case MessageType::kStatusRequest:
            message = api::StatusRequest{};
            break;
          case MessageType::kStatusResult:
            message = DecodeStatusResult(r);
            break;
        }
    } catch (const WireError&) {
        throw;
    } catch (const std::runtime_error& e) {
        // ArchiveReader truncation → uniform WireError with context.
        throw WireError(std::string(MessageTypeName(type)) +
                            " body truncated: " + e.what(),
                        r.pos());
    }
    if (!r.AtEnd()) {
        throw WireError(std::string(MessageTypeName(type)) + " body has " +
                            std::to_string(body.size() - r.pos()) +
                            " trailing bytes",
                        r.pos());
    }
    return message;
}

namespace {

/** Write `v`'s low `width` bytes at `p`, little-endian; returns the end. */
char* PutLe(char* p, std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i) {
        *p++ = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
    return p;
}

char* PutBytes(char* p, std::string_view bytes)
{
    p = PutLe(p, bytes.size(), 8);
    if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
    return p + bytes.size();
}

}  // namespace

void
AppendFrame(std::string& out, const FrameHeader& header,
            std::string_view target, std::string_view payload)
{
    const std::size_t start = out.size();
    const std::size_t total =
        kFrameFixedHeaderBytes + 8 + target.size() + 8 + payload.size() + 8;
    out.resize(start + total);
    char* const frame = out.data() + start;
    char* p = frame;
    p = PutLe(p, kWireMagic, 4);
    p = PutLe(p, total, 4);
    p = PutLe(p, kWireVersion, 4);
    p = PutLe(p, static_cast<std::uint8_t>(header.type), 1);
    p = PutLe(p, static_cast<std::uint8_t>(header.kind), 1);
    p = PutLe(p, header.epoch, 8);
    p = PutLe(p, header.call_id, 8);
    p = PutBytes(p, target);
    p = PutBytes(p, payload);

    // Digest covers everything before it, length field included.
    PutLe(p, Fnv1a64(std::string_view(frame, total - 8)), 8);
}

std::string
EncodeFrame(const Frame& frame)
{
    std::string bytes;
    AppendFrame(bytes,
                FrameHeader{frame.kind, frame.type, frame.epoch, frame.call_id},
                frame.target, frame.payload);
    return bytes;
}

Frame
DecodeFrame(std::string_view bytes)
{
    if (bytes.size() < kFrameFixedHeaderBytes + 8) {
        throw WireError("frame truncated: " + std::to_string(bytes.size()) +
                            " bytes, need at least " +
                            std::to_string(kFrameFixedHeaderBytes + 8),
                        bytes.size());
    }

    // Verify the digest before trusting ANY field: a bit flip anywhere
    // (including in the length or type bytes) must be reported as
    // corruption, not as whatever that field now happens to mean.
    ArchiveReader tail(bytes.substr(bytes.size() - 8));
    const std::uint64_t stored_digest = tail.U64();
    const std::uint64_t computed_digest =
        Fnv1a64(bytes.substr(0, bytes.size() - 8));
    if (stored_digest != computed_digest) {
        throw WireError("frame digest mismatch (corrupted frame)",
                        bytes.size() - 8);
    }

    ArchiveReader r(bytes);
    Frame frame;
    const std::uint32_t magic = r.U32();
    if (magic != kWireMagic) {
        throw WireError("bad magic", 0);
    }
    const std::uint32_t frame_len = r.U32();
    if (frame_len != bytes.size()) {
        throw WireError("frame length field " + std::to_string(frame_len) +
                            " does not match actual size " +
                            std::to_string(bytes.size()),
                        4);
    }
    const std::uint32_t version = r.U32();
    if (version != kWireVersion) {
        throw WireError("unsupported wire version " + std::to_string(version),
                        8);
    }
    const std::uint8_t type = r.U8();
    if (type > static_cast<std::uint8_t>(MessageType::kStatusResult)) {
        throw WireError("message type " + std::to_string(type) +
                            " out of range",
                        12);
    }
    frame.type = static_cast<MessageType>(type);
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(FrameKind::kError)) {
        throw WireError("frame kind " + std::to_string(kind) + " out of range",
                        13);
    }
    frame.kind = static_cast<FrameKind>(kind);
    frame.epoch = r.U64();
    frame.call_id = r.U64();
    try {
        frame.target = r.Str();
        frame.payload = r.Str();
    } catch (const std::runtime_error& e) {
        throw WireError(std::string("frame sections truncated: ") + e.what(),
                        r.pos());
    }
    if (r.pos() != bytes.size() - 8) {
        throw WireError("frame has " +
                            std::to_string(bytes.size() - 8 - r.pos()) +
                            " trailing bytes before digest",
                        r.pos());
    }
    return frame;
}

void
FrameReader::Feed(std::string_view bytes)
{
    if (poisoned_) {
        throw WireError("stream poisoned by an earlier framing error",
                        consumed_);
    }
    buffer_.append(bytes.data(), bytes.size());
    CheckHeader();
}

std::uint32_t
FrameReader::BufferedFrameLength() const
{
    ArchiveReader r(std::string_view(buffer_).substr(head_, 8));
    r.U32();  // magic, validated by CheckHeader
    return r.U32();
}

void
FrameReader::CheckHeader()
{
    if (buffer_.size() - head_ < 8) return;
    ArchiveReader r(std::string_view(buffer_).substr(head_, 8));
    const std::uint32_t magic = r.U32();
    if (magic != kWireMagic) {
        poisoned_ = true;
        throw WireError("bad magic on stream", consumed_);
    }
    const std::uint32_t frame_len = r.U32();
    if (frame_len < kFrameFixedHeaderBytes + 8 + 16 ||
        frame_len > kMaxFrameBytes) {
        poisoned_ = true;
        throw WireError("frame length " + std::to_string(frame_len) +
                            " outside [" +
                            std::to_string(kFrameFixedHeaderBytes + 8 + 16) +
                            ", " + std::to_string(kMaxFrameBytes) + "]",
                        consumed_ + 4);
    }
}

bool
FrameReader::HasFrame() const
{
    if (poisoned_ || buffer_.size() - head_ < 8) return false;
    return buffer_.size() - head_ >= BufferedFrameLength();
}

Frame
FrameReader::Next()
{
    if (!HasFrame()) {
        throw WireError("Next() without a complete frame", consumed_);
    }
    const std::uint32_t frame_len = BufferedFrameLength();
    Frame frame;
    try {
        frame = DecodeFrame(std::string_view(buffer_).substr(head_, frame_len));
    } catch (const WireError&) {
        poisoned_ = true;
        throw;
    }
    head_ += frame_len;
    consumed_ += frame_len;

    // Consume by offset; move the unread tail to the front only once
    // the consumed prefix is at least half the buffer, so each byte is
    // moved at most once on average and a batch of frames costs O(n).
    if (head_ == buffer_.size()) {
        buffer_.clear();
        head_ = 0;
    } else if (2 * head_ >= buffer_.size()) {
        buffer_.erase(0, head_);
        head_ = 0;
    }
    CheckHeader();
    return frame;
}

}  // namespace dynamo::rpc::wire
