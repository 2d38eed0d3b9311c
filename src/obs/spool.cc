#include "obs/spool.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/contracts.h"

namespace vifi::obs {

namespace {

// --- fixed-width field helpers (host endianness; see spool.h) -------------

template <typename T>
void put(std::string& buf, T v) {
  char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  buf.append(b, sizeof(T));
}

/// Bounds-checked cursor over a byte buffer; throws instead of reading
/// past the end so truncated files fail crisply, not undefined.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  template <typename T>
  T get() {
    T v;
    need(sizeof(T));
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string(std::size_t n) {
    need(n);
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  /// Reads a u32 element count and checks that \p count entries of at
  /// least \p entry_bytes each still fit, so a corrupt count fails here
  /// instead of sizing an allocation.
  std::uint32_t get_count(std::size_t entry_bytes) {
    const auto count = get<std::uint32_t>();
    if (count > (size_ - pos_) / entry_bytes)
      throw std::runtime_error("truncated spool footer in " + path_);
    return count;
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > size_)
      throw std::runtime_error("truncated spool footer in " + path_);
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kTrailerBytes = 8 + 8;
constexpr std::size_t kChunkHeaderBytes = 4 + 4;

std::ifstream open_spool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open spool " + path);
  return in;
}

}  // namespace

void encode_event(const TraceEvent& e, char* out) {
  const std::int64_t at_us = e.at.to_micros();
  const std::int32_t node = e.node.value();
  const std::int32_t peer = e.peer.value();
  const std::uint8_t kind = static_cast<std::uint8_t>(e.kind);
  const std::uint8_t pad[3] = {0, 0, 0};
  char* p = out;
  std::memcpy(p, &at_us, 8), p += 8;
  std::memcpy(p, &e.seq, 8), p += 8;
  std::memcpy(p, &e.id, 8), p += 8;
  std::memcpy(p, &node, 4), p += 4;
  std::memcpy(p, &peer, 4), p += 4;
  std::memcpy(p, &e.c, 4), p += 4;
  std::memcpy(p, &kind, 1), p += 1;
  std::memcpy(p, pad, 3), p += 3;
  // Doubles travel as raw IEEE-754 bits: decode is bit-exact, so exports
  // of a re-loaded spool match the in-memory recorder's byte-for-byte.
  std::memcpy(p, &e.a, 8), p += 8;
  std::memcpy(p, &e.b, 8), p += 8;
  VIFI_ENSURES(static_cast<std::size_t>(p - out) == kSpoolRecordBytes);
}

TraceEvent decode_event(const char* in) {
  TraceEvent e;
  std::int64_t at_us = 0;
  std::int32_t node = 0, peer = 0;
  std::uint8_t kind = 0;
  const char* p = in;
  std::memcpy(&at_us, p, 8), p += 8;
  std::memcpy(&e.seq, p, 8), p += 8;
  std::memcpy(&e.id, p, 8), p += 8;
  std::memcpy(&node, p, 4), p += 4;
  std::memcpy(&peer, p, 4), p += 4;
  std::memcpy(&e.c, p, 4), p += 4;
  std::memcpy(&kind, p, 1), p += 4;  // skip the 3 pad bytes too
  std::memcpy(&e.a, p, 8), p += 8;
  std::memcpy(&e.b, p, 8), p += 8;
  e.at = Time::micros(at_us);
  e.node = sim::NodeId{node};
  e.peer = sim::NodeId{peer};
  e.kind = static_cast<EventKind>(kind);
  return e;
}

// --- SpoolWriter ----------------------------------------------------------

SpoolWriter::SpoolWriter(std::string path, std::size_t block_events)
    : path_(std::move(path)),
      block_events_(block_events),
      out_(path_, std::ios::binary | std::ios::trunc) {
  VIFI_EXPECTS(block_events_ > 0);
  if (!out_) throw std::runtime_error("cannot create spool " + path_);
  std::string header;
  header.append(kSpoolMagic, 8);
  put<std::uint32_t>(header, kSpoolVersion);
  put<std::uint32_t>(header, static_cast<std::uint32_t>(kSpoolRecordBytes));
  put<std::uint64_t>(header, static_cast<std::uint64_t>(block_events_));
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
}

SpoolWriter::~SpoolWriter() {
  // Best-effort: a writer abandoned mid-run still leaves an indexed spool
  // (errors here cannot propagate out of a destructor).
  if (!finalized_) {
    try {
      finalize({});
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void SpoolWriter::push(const TraceEvent& e) {
  VIFI_EXPECTS(!finalized_);
  ++pushed_;
  ++kind_counts_[static_cast<int>(e.kind)];
  max_at_us_ = std::max(max_at_us_, e.at.to_micros());
  auto it = nodes_.find(e.node);
  if (it == nodes_.end()) {
    it = nodes_.emplace(e.node, NodeState{}).first;
    it->second.block.reserve(block_events_);
  }
  NodeState& state = it->second;
  ++state.events;
  state.block.push_back(e);
  if (state.block.size() >= block_events_) flush_block(e.node, state);
}

void SpoolWriter::set_node_label(sim::NodeId node, const std::string& label) {
  nodes_[node].label = label;
}

std::vector<sim::NodeId> SpoolWriter::nodes() const {
  std::vector<sim::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [node, state] : nodes_) {
    (void)state;
    out.push_back(node);
  }
  return out;
}

void SpoolWriter::flush_block(sim::NodeId node, NodeState& state) {
  std::string chunk;
  chunk.reserve(kChunkHeaderBytes + state.block.size() * kSpoolRecordBytes);
  put<std::int32_t>(chunk, node.value());
  put<std::uint32_t>(chunk, static_cast<std::uint32_t>(state.block.size()));
  char rec[kSpoolRecordBytes];
  for (const TraceEvent& e : state.block) {
    encode_event(e, rec);
    chunk.append(rec, kSpoolRecordBytes);
  }
  state.chunks.push_back(
      {static_cast<std::uint64_t>(out_.tellp()),
       static_cast<std::uint32_t>(state.block.size())});
  out_.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  state.block.clear();
}

void SpoolWriter::finalize(const std::vector<SpoolLog>& logs) {
  if (finalized_) return;
  finalized_ = true;
  for (auto& [node, state] : nodes_)
    if (!state.block.empty()) flush_block(node, state);
  kind_counts_[static_cast<int>(EventKind::Log)] =
      static_cast<std::uint64_t>(logs.size());

  const std::uint64_t footer_offset = static_cast<std::uint64_t>(out_.tellp());
  std::string footer;
  put<std::uint64_t>(footer, pushed_);
  put<std::int64_t>(footer, max_at_us_);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(kEventKindCount));
  for (int k = 0; k < kEventKindCount; ++k)
    put<std::uint64_t>(footer, kind_counts_[k]);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& [node, state] : nodes_) {
    put<std::int32_t>(footer, node.value());
    put<std::uint64_t>(footer, state.events);
    put<std::uint32_t>(footer, static_cast<std::uint32_t>(state.chunks.size()));
    for (const SpoolChunkRef& c : state.chunks) {
      put<std::uint64_t>(footer, c.offset);
      put<std::uint32_t>(footer, c.count);
    }
    put<std::uint32_t>(footer, static_cast<std::uint32_t>(state.label.size()));
    footer += state.label;
  }
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(logs.size()));
  for (const SpoolLog& log : logs) {
    put<std::int64_t>(footer, log.at_us);
    put<std::uint64_t>(footer, log.seq);
    put<std::int32_t>(footer, log.level);
    put<std::uint32_t>(footer, static_cast<std::uint32_t>(log.message.size()));
    footer += log.message;
  }
  put<std::uint64_t>(footer, footer_offset);
  footer.append(kSpoolEndMagic, 8);
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("spool write failed: " + path_);
  out_.close();
}

// --- SpoolReader ----------------------------------------------------------

SpoolReader::SpoolReader(std::string path) : path_(std::move(path)) {
  std::ifstream in = open_spool(path_);
  in.seekg(0, std::ios::end);
  const std::int64_t size = static_cast<std::int64_t>(in.tellg());
  if (size < static_cast<std::int64_t>(kHeaderBytes + kTrailerBytes))
    throw std::runtime_error("not a vifi spool (too small): " + path_);

  char header[kHeaderBytes];
  in.seekg(0);
  in.read(header, kHeaderBytes);
  if (!in || std::memcmp(header, kSpoolMagic, 8) != 0)
    throw std::runtime_error("not a vifi spool (bad magic): " + path_);
  std::uint32_t version = 0, record_bytes = 0;
  std::memcpy(&version, header + 8, 4);
  std::memcpy(&record_bytes, header + 12, 4);
  std::memcpy(&block_events_, header + 16, 8);
  if (version != kSpoolVersion)
    throw std::runtime_error("spool version " + std::to_string(version) +
                             " unsupported (expected " +
                             std::to_string(kSpoolVersion) + "): " + path_);
  if (record_bytes != kSpoolRecordBytes)
    throw std::runtime_error("spool record size mismatch in " + path_);

  char trailer[kTrailerBytes];
  in.seekg(size - static_cast<std::int64_t>(kTrailerBytes));
  in.read(trailer, kTrailerBytes);
  if (!in || std::memcmp(trailer + 8, kSpoolEndMagic, 8) != 0)
    throw std::runtime_error(
        "spool has no trailer (unfinalized or truncated): " + path_);
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, trailer, 8);
  const std::uint64_t footer_end =
      static_cast<std::uint64_t>(size) - kTrailerBytes;
  if (footer_offset < kHeaderBytes || footer_offset > footer_end)
    throw std::runtime_error("spool footer offset out of range in " + path_);

  std::string buf(footer_end - footer_offset, '\0');
  in.seekg(static_cast<std::int64_t>(footer_offset));
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!in) throw std::runtime_error("truncated spool footer in " + path_);

  Cursor cur(buf.data(), buf.size(), path_);
  recorded_ = cur.get<std::uint64_t>();
  max_at_us_ = cur.get<std::int64_t>();
  const std::uint32_t kinds = cur.get<std::uint32_t>();
  if (kinds != static_cast<std::uint32_t>(kEventKindCount))
    throw std::runtime_error("spool kind-count mismatch in " + path_);
  for (int k = 0; k < kEventKindCount; ++k)
    kind_counts_[k] = cur.get<std::uint64_t>();
  // Smallest encodings: a node entry with no chunks and an empty label; a
  // chunk ref; a log line with an empty message.
  const std::uint32_t node_count = cur.get_count(4 + 8 + 4 + 4);
  nodes_.reserve(node_count);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < node_count; ++i) {
    SpoolNodeIndex idx;
    idx.node = sim::NodeId{cur.get<std::int32_t>()};
    idx.events = cur.get<std::uint64_t>();
    const std::uint32_t chunk_count = cur.get_count(8 + 4);
    idx.chunks.reserve(chunk_count);
    std::uint64_t indexed = 0;
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
      SpoolChunkRef ref;
      ref.offset = cur.get<std::uint64_t>();
      ref.count = cur.get<std::uint32_t>();
      // Every chunk must lie inside the data region, so reads never run
      // into the footer and a chunk's buffer is bounded by the file.
      if (ref.offset < kHeaderBytes ||
          ref.offset > footer_offset - kChunkHeaderBytes ||
          ref.count > (footer_offset - ref.offset - kChunkHeaderBytes) /
                          kSpoolRecordBytes)
        throw std::runtime_error("truncated spool chunk in " + path_);
      indexed += ref.count;
      idx.chunks.push_back(ref);
    }
    if (indexed != idx.events)
      throw std::runtime_error(
          "spool chunk counts disagree with the footer in " + path_);
    total += idx.events;
    idx.label = cur.get_string(cur.get<std::uint32_t>());
    nodes_.push_back(std::move(idx));
  }
  if (total != recorded_)
    throw std::runtime_error(
        "spool chunk counts disagree with the footer in " + path_);
  const std::uint32_t log_count = cur.get_count(8 + 8 + 4 + 4);
  logs_.reserve(log_count);
  for (std::uint32_t i = 0; i < log_count; ++i) {
    SpoolLog log;
    log.at_us = cur.get<std::int64_t>();
    log.seq = cur.get<std::uint64_t>();
    log.level = cur.get<std::int32_t>();
    log.message = cur.get_string(cur.get<std::uint32_t>());
    logs_.push_back(std::move(log));
  }
}

const SpoolNodeIndex* SpoolReader::find_node(sim::NodeId node) const {
  for (const SpoolNodeIndex& idx : nodes_)
    if (idx.node == node) return &idx;
  return nullptr;
}

namespace {

/// Reads chunk \p ref of \p node (header and records) into \p buf with one
/// read, checking the chunk header against the footer index.
void read_chunk(std::ifstream& in, const std::string& path, sim::NodeId node,
                const SpoolChunkRef& ref, std::vector<char>& buf) {
  buf.resize(kChunkHeaderBytes +
             static_cast<std::size_t>(ref.count) * kSpoolRecordBytes);
  in.seekg(static_cast<std::int64_t>(ref.offset));
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!in) throw std::runtime_error("truncated spool chunk in " + path);
  std::int32_t got_node = 0;
  std::uint32_t got_count = 0;
  std::memcpy(&got_node, buf.data(), 4);
  std::memcpy(&got_count, buf.data() + 4, 4);
  if (got_node != node.value())
    throw std::runtime_error("spool index points at a foreign chunk in " +
                             path);
  if (got_count != ref.count)
    throw std::runtime_error(
        "spool chunk count disagrees with the footer in " + path);
}

/// One node's chunk list, read one chunk at a time: head() is the next
/// record, decoded from the single chunk held in memory.
class NodeCursor {
 public:
  explicit NodeCursor(const SpoolNodeIndex& idx) : idx_(&idx) {}

  /// Decodes the node's next record into head(); false once it is done.
  bool next(std::ifstream& in, const std::string& path) {
    while (pos_ == end_) {
      if (chunk_ == idx_->chunks.size()) return false;
      const SpoolChunkRef& ref = idx_->chunks[chunk_++];
      read_chunk(in, path, idx_->node, ref, buf_);
      pos_ = 0;
      end_ = ref.count;
    }
    head_ = decode_event(buf_.data() + kChunkHeaderBytes +
                         pos_++ * kSpoolRecordBytes);
    return true;
  }

  const TraceEvent& head() const { return head_; }

 private:
  const SpoolNodeIndex* idx_;
  std::size_t chunk_ = 0;  ///< Next chunk to load.
  std::size_t pos_ = 0;    ///< Next record within buf_.
  std::size_t end_ = 0;    ///< Records in buf_.
  std::vector<char> buf_;
  TraceEvent head_;
};

/// Holds an ordered read to strictly ascending seq: a corrupt spool must
/// fail, not yield a silently mis-ordered timeline.
class SeqOrder {
 public:
  explicit SeqOrder(const std::string& path) : path_(path) {}

  void check(std::uint64_t seq) {
    if (seen_ && seq <= last_)
      throw std::runtime_error("spool records out of seq order in " + path_);
    seen_ = true;
    last_ = seq;
  }

 private:
  const std::string& path_;
  bool seen_ = false;
  std::uint64_t last_ = 0;
};

/// Streams one node's records in seq order.
void read_node(std::ifstream& in, const std::string& path,
               const SpoolNodeIndex& idx, const EventFn& fn) {
  NodeCursor cursor(idx);
  SeqOrder order(path);
  while (cursor.next(in, path)) {
    order.check(cursor.head().seq);
    fn(cursor.head());
  }
}

}  // namespace

void SpoolReader::scan(const EventFn& fn) const {
  std::ifstream in = open_spool(path_);
  for (const SpoolNodeIndex& idx : nodes_) read_node(in, path_, idx, fn);
}

void SpoolReader::scan_node(sim::NodeId node, const EventFn& fn) const {
  const SpoolNodeIndex* idx = find_node(node);
  if (idx == nullptr) return;
  std::ifstream in = open_spool(path_);
  read_node(in, path_, *idx, fn);
}

void SpoolReader::visit(const EventFn& fn) const {
  std::ifstream in = open_spool(path_);
  std::vector<NodeCursor> cursors;
  cursors.reserve(nodes_.size());
  for (const SpoolNodeIndex& idx : nodes_) cursors.emplace_back(idx);
  // Min-heap on each node's head seq: popping the least head and pushing
  // that node's next record replays the recording order.
  const auto later = [](const NodeCursor* x, const NodeCursor* y) {
    return x->head().seq > y->head().seq;
  };
  std::vector<NodeCursor*> heap;
  heap.reserve(cursors.size());
  for (NodeCursor& c : cursors)
    if (c.next(in, path_)) heap.push_back(&c);
  std::make_heap(heap.begin(), heap.end(), later);
  SeqOrder order(path_);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    NodeCursor* c = heap.back();
    order.check(c->head().seq);
    fn(c->head());
    if (c->next(in, path_))
      std::push_heap(heap.begin(), heap.end(), later);
    else
      heap.pop_back();
  }
}

std::vector<TraceEvent> SpoolReader::events() const {
  std::vector<TraceEvent> out;
  visit([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

}  // namespace vifi::obs
