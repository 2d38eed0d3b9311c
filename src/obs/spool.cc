#include "obs/spool.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

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

/// Record field offsets (see the record layout in spool.h).
constexpr std::size_t kSeqField = 8;
constexpr std::size_t kKindField = 36;
/// Node ids below this reach their SpoolWriter state by a dense index.
constexpr int kDenseNodes = 1 << 16;

template <typename T>
T load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

std::ifstream open_spool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open spool " + path);
  return in;
}

/// The kind byte of the record at \p rec, checked: a byte that names no
/// EventKind would index the per-kind counters out of bounds.
int record_kind(const char* rec, const std::string& path) {
  const auto kind = static_cast<unsigned char>(rec[kKindField]);
  if (kind >= kEventKindCount)
    throw std::runtime_error("spool record has unknown event kind " +
                             std::to_string(kind) + " in " + path);
  return kind;
}

/// Holds one node's records to strictly ascending seq: a corrupt spool
/// must fail, not yield a silently mis-ordered timeline.
class SeqOrder {
 public:
  explicit SeqOrder(const std::string& path) : path_(&path) {}

  void check(std::uint64_t seq) {
    if (seen_ && seq <= last_)
      throw std::runtime_error("spool records out of seq order in " +
                               *path_);
    seen_ = true;
    last_ = seq;
  }
  std::uint64_t last() const { return last_; }

 private:
  const std::string* path_;
  bool seen_ = false;
  std::uint64_t last_ = 0;
};

/// Holds an absorb to seqs that no two nodes share: with each node's
/// SeqOrder, the check that visit()'s merged order makes. A bitmap over
/// the part's seq range [lo, hi] when it is dense enough to be small,
/// else a list sorted and checked at finish().
class SeqClaims {
 public:
  SeqClaims(std::uint64_t lo, std::uint64_t hi, std::uint64_t records,
            const std::string& path)
      : lo_(lo), hi_(hi), path_(path) {
    if (lo > hi) return;  // no records
    const std::uint64_t words = (hi - lo) / 64 + 1;
    if (words <= records + 1024)
      bits_.assign(words, 0);
    else
      sparse_ = true;
  }

  void claim(std::uint64_t seq) {
    if (sparse_) {
      seqs_.push_back(seq);
      return;
    }
    // Beyond a node's last record, its own order check would fail later.
    if (seq < lo_ || seq > hi_) fail();
    const std::uint64_t i = seq - lo_;
    std::uint64_t& word = bits_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word & bit) != 0) fail();
    word |= bit;
  }

  void finish() {
    std::sort(seqs_.begin(), seqs_.end());
    if (std::adjacent_find(seqs_.begin(), seqs_.end()) != seqs_.end())
      fail();
  }

 private:
  [[noreturn]] void fail() const {
    throw std::runtime_error("spool records out of seq order in " + path_);
  }

  std::uint64_t lo_, hi_;
  const std::string& path_;
  bool sparse_ = false;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> seqs_;
};

/// A spool open for reads at any offset, seeking only when a read does not
/// continue the previous one. Every failed read is a truncated chunk.
class ChunkFile {
 public:
  explicit ChunkFile(const std::string& path)
      : in_(open_spool(path)), path_(path) {}

  void read(std::uint64_t offset, char* out, std::size_t n) {
    if (offset != pos_) in_.seekg(static_cast<std::int64_t>(offset));
    in_.read(out, static_cast<std::streamsize>(n));
    if (!in_) throw std::runtime_error("truncated spool chunk in " + path_);
    pos_ = offset + n;
  }

  /// Reads chunk \p ref of \p node (header and records) into \p buf,
  /// checking its header against the footer index.
  void read_chunk(sim::NodeId node, const SpoolChunkRef& ref,
                  std::vector<char>& buf) {
    buf.resize(kChunkHeaderBytes +
               static_cast<std::size_t>(ref.count) * kSpoolRecordBytes);
    read(ref.offset, buf.data(), buf.size());
    check_header(buf.data(), node, ref);
  }

  /// Reads and checks only chunk \p ref's header.
  void read_header(sim::NodeId node, const SpoolChunkRef& ref) {
    char header[kChunkHeaderBytes];
    read(ref.offset, header, sizeof(header));
    check_header(header, node, ref);
  }

  /// The seq of the record at file offset \p record.
  std::uint64_t seq_at(std::uint64_t record) {
    char seq[8];
    read(record + kSeqField, seq, sizeof(seq));
    return load<std::uint64_t>(seq);
  }

 private:
  void check_header(const char* header, sim::NodeId node,
                    const SpoolChunkRef& ref) const {
    if (load<std::int32_t>(header) != node.value())
      throw std::runtime_error("spool index points at a foreign chunk in " +
                               path_);
    if (load<std::uint32_t>(header + 4) != ref.count)
      throw std::runtime_error(
          "spool chunk count disagrees with the footer in " + path_);
  }

  std::ifstream in_;
  const std::string& path_;
  std::uint64_t pos_ = 0;
};

/// (seq, index) entries of a min-heap on seq: the k-way merges of the
/// reader and of the writer's absorb.
using SeqHead = std::pair<std::uint64_t, std::size_t>;

bool later(const SeqHead& x, const SeqHead& y) { return x.first > y.first; }

/// Restores the heap after its top entry changed: the merges replace the
/// top in place (or drop it), then sift it down once, instead of a pop
/// and a push.
void sift_top(std::vector<SeqHead>& heap) {
  if (heap.empty()) return;
  const SeqHead moving = heap.front();
  std::size_t i = 0;
  for (std::size_t child = 1; child < heap.size(); child = 2 * i + 1) {
    if (child + 1 < heap.size() && later(heap[child], heap[child + 1]))
      ++child;
    if (!later(moving, heap[child])) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

/// Drops the heap's top entry.
void drop_top(std::vector<SeqHead>& heap) {
  heap.front() = heap.back();
  heap.pop_back();
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
  offset_ = header.size();
}

SpoolWriter::~SpoolWriter() {
  // Best-effort: a writer abandoned mid-run still leaves an indexed spool
  // (errors here cannot propagate out of a destructor).
  if (!finalized_) {
    try {
      finalize();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

SpoolWriter::NodeState& SpoolWriter::state(sim::NodeId node) {
  const int id = node.value();
  const bool dense = id >= 0 && id < kDenseNodes;
  if (dense && static_cast<std::size_t>(id) < dense_.size() &&
      dense_[id] != nullptr)
    return *dense_[id];
  NodeState& s = nodes_[node];
  if (dense) {
    if (static_cast<std::size_t>(id) >= dense_.size())
      dense_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    dense_[id] = &s;
  }
  return s;
}

char* SpoolWriter::record_at(NodeState& s, std::size_t i) {
  if (s.block == nullptr)
    s.block.reset(new char[kChunkHeaderBytes +
                           block_events_ * kSpoolRecordBytes]);
  return s.block.get() + kChunkHeaderBytes + i * kSpoolRecordBytes;
}

void SpoolWriter::push(const TraceEvent& e) {
  VIFI_EXPECTS(!finalized_);
  ++pushed_;
  ++kind_counts_[static_cast<int>(e.kind)];
  max_at_us_ = std::max(max_at_us_, e.at.to_micros());
  NodeState& s = state(e.node);
  ++s.events;
  encode_event(e, record_at(s, s.fill));
  if (++s.fill >= block_events_) flush_block(e.node, s);
}

void SpoolWriter::absorb(const SpoolReader& part, Time at_offset,
                         std::uint64_t seq_offset) {
  VIFI_EXPECTS(!finalized_);
  const std::string& path = part.path();
  ChunkFile in(path);
  // Where the copy of one of part's nodes stands.
  struct Source {
    const SpoolNodeIndex* idx;
    NodeState* state;
    SeqOrder order;
    std::size_t chunk = 0;  ///< Next chunk of idx to open.
    std::uint32_t left = 0;  ///< Records of the open chunk not yet copied.
    std::uint64_t pos = 0;   ///< File offset of the next of them.
  };
  std::vector<Source> sources;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
  for (const SpoolNodeIndex& idx : part.nodes()) {
    if (idx.events == 0) continue;
    sources.push_back({&idx, &state(idx.node), SeqOrder(path)});
    // A node's first and last records bound its seqs (or its order
    // check fails), so together they bound the part's.
    const auto first = std::find_if(idx.chunks.begin(), idx.chunks.end(),
                                    [](const SpoolChunkRef& c) {
                                      return c.count > 0;
                                    });
    const auto last = std::find_if(idx.chunks.rbegin(), idx.chunks.rend(),
                                   [](const SpoolChunkRef& c) {
                                     return c.count > 0;
                                   });
    lo = std::min(lo, in.seq_at(first->offset + kChunkHeaderBytes));
    hi = std::max(hi, in.seq_at(last->offset + kChunkHeaderBytes +
                                (last->count - 1) * kSpoolRecordBytes));
  }
  SeqClaims claims(lo, hi, part.recorded(), path);
  const std::int64_t at_us = at_offset.to_micros();

  // Copies src's records into its node's block until the block is full
  // (true) or the node has no records left (false), shifting each in
  // place and counting it as push() would.
  const auto fill = [&](Source& src) {
    NodeState& s = *src.state;
    while (s.fill < block_events_) {
      if (src.left == 0) {
        if (src.chunk == src.idx->chunks.size()) return false;
        const SpoolChunkRef& ref = src.idx->chunks[src.chunk++];
        in.read_header(src.idx->node, ref);
        src.left = ref.count;
        src.pos = ref.offset + kChunkHeaderBytes;
        continue;
      }
      const std::uint32_t n = std::min<std::uint32_t>(
          src.left, static_cast<std::uint32_t>(block_events_ - s.fill));
      char* rec = record_at(s, s.fill);
      in.read(src.pos, rec, n * kSpoolRecordBytes);
      for (std::uint32_t i = 0; i < n; ++i, rec += kSpoolRecordBytes) {
        const int kind = record_kind(rec, path);
        const auto seq = load<std::uint64_t>(rec + kSeqField);
        src.order.check(seq);
        claims.claim(seq);
        const std::int64_t at = load<std::int64_t>(rec) + at_us;
        store(rec, at);
        store(rec + kSeqField, seq + seq_offset);
        ++kind_counts_[kind];
        max_at_us_ = std::max(max_at_us_, at);
      }
      s.fill += n;
      s.events += n;
      pushed_ += n;
      src.left -= n;
      src.pos += n * kSpoolRecordBytes;
    }
    return true;
  };

  // A sequential push flushes a block at the record that fills it, so
  // full blocks go to disk in the order of those records' seqs: a heap
  // holds each node's next full block, keyed by its last seq.
  std::vector<SeqHead> full;  // (seq, source)
  for (std::size_t i = 0; i < sources.size(); ++i)
    if (fill(sources[i])) full.emplace_back(sources[i].order.last(), i);
  std::make_heap(full.begin(), full.end(), later);
  while (!full.empty()) {
    Source& src = sources[full.front().second];
    flush_block(src.idx->node, *src.state);
    if (fill(src))
      full.front().first = src.order.last();
    else
      drop_top(full);
    sift_top(full);
  }
  claims.finish();
}

void SpoolWriter::set_node_label(sim::NodeId node, const std::string& label) {
  state(node).label = label;
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

void SpoolWriter::flush_block(sim::NodeId node, NodeState& s) {
  char* chunk = s.block.get();
  store<std::int32_t>(chunk, node.value());
  store<std::uint32_t>(chunk + 4, s.fill);
  const std::size_t bytes = kChunkHeaderBytes + s.fill * kSpoolRecordBytes;
  s.chunks.push_back({offset_, s.fill});
  out_.write(chunk, static_cast<std::streamsize>(bytes));
  offset_ += bytes;
  s.fill = 0;
}

void SpoolWriter::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& [node, s] : nodes_)
    if (s.fill > 0) flush_block(node, s);

  const std::uint64_t footer_offset = offset_;
  std::string footer;
  put<std::uint64_t>(footer, pushed_);
  put<std::int64_t>(footer, max_at_us_);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(kEventKindCount));
  for (int k = 0; k < kEventKindCount; ++k)
    put<std::uint64_t>(footer, kind_counts_[k]);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& [node, s] : nodes_) {
    put<std::int32_t>(footer, node.value());
    put<std::uint64_t>(footer, s.events);
    put<std::uint32_t>(footer, static_cast<std::uint32_t>(s.chunks.size()));
    for (const SpoolChunkRef& c : s.chunks) {
      put<std::uint64_t>(footer, c.offset);
      put<std::uint32_t>(footer, c.count);
    }
    put<std::uint32_t>(footer, static_cast<std::uint32_t>(s.label.size()));
    footer += s.label;
  }
  put<std::uint32_t>(footer, 0);  // log lines: none
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
  // chunk ref.
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
  const auto log_count = cur.get<std::uint32_t>();
  if (log_count != 0)
    throw std::runtime_error("spool footer claims " +
                             std::to_string(log_count) +
                             " log lines; spools carry none: " + path_);
}

const SpoolNodeIndex* SpoolReader::find_node(sim::NodeId node) const {
  for (const SpoolNodeIndex& idx : nodes_)
    if (idx.node == node) return &idx;
  return nullptr;
}

namespace {

/// One node's chunk list, read one chunk at a time: record() is the
/// node's current record, still encoded.
class NodeCursor {
 public:
  explicit NodeCursor(const SpoolNodeIndex& idx) : idx_(&idx) {}

  /// Steps to the node's next record; false once it is done.
  bool next(ChunkFile& in) {
    while (pos_ == end_) {
      if (chunk_ == idx_->chunks.size()) return false;
      const SpoolChunkRef& ref = idx_->chunks[chunk_++];
      in.read_chunk(idx_->node, ref, buf_);
      pos_ = 0;
      end_ = ref.count;
    }
    record_ = buf_.data() + kChunkHeaderBytes + pos_++ * kSpoolRecordBytes;
    return true;
  }

  const char* record() const { return record_; }
  std::uint64_t seq() const { return load<std::uint64_t>(record_ + kSeqField); }

 private:
  const SpoolNodeIndex* idx_;
  std::size_t chunk_ = 0;  ///< Next chunk to load.
  std::size_t pos_ = 0;    ///< Next record within buf_.
  std::size_t end_ = 0;    ///< Records in buf_.
  std::vector<char> buf_;
  const char* record_ = nullptr;
};

/// Decodes the record at \p rec, its kind checked, and hands it to \p fn.
void emit(const char* rec, const std::string& path, const EventFn& fn) {
  record_kind(rec, path);
  fn(decode_event(rec));
}

/// Streams one node's records in seq order.
void read_node(ChunkFile& in, const std::string& path,
               const SpoolNodeIndex& idx, const EventFn& fn) {
  NodeCursor cursor(idx);
  SeqOrder order(path);
  while (cursor.next(in)) {
    order.check(cursor.seq());
    emit(cursor.record(), path, fn);
  }
}

}  // namespace

void SpoolReader::scan(const EventFn& fn) const {
  ChunkFile in(path_);
  for (const SpoolNodeIndex& idx : nodes_) read_node(in, path_, idx, fn);
}

void SpoolReader::scan_node(sim::NodeId node, const EventFn& fn) const {
  const SpoolNodeIndex* idx = find_node(node);
  if (idx == nullptr) return;
  ChunkFile in(path_);
  read_node(in, path_, *idx, fn);
}

void SpoolReader::visit(const EventFn& fn) const {
  ChunkFile in(path_);
  std::vector<NodeCursor> cursors;
  cursors.reserve(nodes_.size());
  for (const SpoolNodeIndex& idx : nodes_) cursors.emplace_back(idx);
  // Min-heap of (head seq, cursor): emitting the least head and sifting
  // that node's next record down from the top replays the recording order.
  std::vector<SeqHead> heap;
  heap.reserve(cursors.size());
  for (std::size_t i = 0; i < cursors.size(); ++i)
    if (cursors[i].next(in)) heap.emplace_back(cursors[i].seq(), i);
  std::make_heap(heap.begin(), heap.end(), later);
  SeqOrder order(path_);
  while (!heap.empty()) {
    NodeCursor& c = cursors[heap.front().second];
    order.check(heap.front().first);
    emit(c.record(), path_, fn);
    if (c.next(in))
      heap.front().first = c.seq();
    else
      drop_top(heap);
    sift_top(heap);
  }
}

std::vector<TraceEvent> SpoolReader::events() const {
  std::vector<TraceEvent> out;
  visit([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

}  // namespace vifi::obs
