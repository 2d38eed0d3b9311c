#pragma once

/// \file spool.h
/// TripScope's disk spool: the on-disk format behind obs::TraceRecorder
/// and the `tripscope query` engine. A spool holds every event one recorder
/// recorded, so a city-scale timeline is complete however long it runs.
///
/// Layout (fixed-width host-endian fields; spools are per-run artifacts
/// compared byte-wise on one host, not an interchange format):
///
///   header   magic "VIFISPL1", u32 version, u32 record_bytes,
///            u64 block_events
///   chunks   repeated { i32 node, u32 count, count x 56-byte records },
///            appended whenever a node's in-memory block fills (and once
///            more per non-empty block at finalize) — the flush cadence is
///            a pure function of the push sequence, so spool bytes are
///            deterministic for any worker count
///   footer   stream totals, exact per-kind counts, per-node chunk index
///            with labels, and a u32 log-line count that is always 0 (a
///            retired channel; the reader rejects a spool whose count is
///            not)
///   trailer  u64 footer_offset, magic "VIFIEND1"
///
/// Records store doubles as raw IEEE-754 bits, so spool -> load -> export
/// reproduces an in-memory recorder's exports byte-for-byte. The trailer
/// lets SpoolReader seek the footer from EOF and then seek straight to any
/// node's chunks without reading the rest of the file. A node's chunks,
/// in index order, hold its records seq-ascending, so the recording order
/// is a k-way merge of the nodes' chunk lists (SpoolReader::visit).
///
/// Record layout (56 bytes): i64 at_us, u64 seq, u64 id, i32 node,
/// i32 peer, i32 c, u8 kind, 3 pad bytes, f64 a, f64 b.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.h"
#include "sim/ids.h"
#include "util/time.h"

namespace vifi::obs {

inline constexpr char kSpoolMagic[9] = "VIFISPL1";
inline constexpr char kSpoolEndMagic[9] = "VIFIEND1";
inline constexpr std::uint32_t kSpoolVersion = 1;
/// Encoded size of one TraceEvent record.
inline constexpr std::size_t kSpoolRecordBytes = 56;
/// Events buffered per node before a chunk is appended to the file.
inline constexpr std::size_t kSpoolBlockEvents = 512;

/// Encodes \p e into exactly kSpoolRecordBytes at \p out.
void encode_event(const TraceEvent& e, char* out);
/// Decodes kSpoolRecordBytes at \p in (the encode_event inverse).
TraceEvent decode_event(const char* in);

/// One chunk's position in the file: \p offset points at the chunk header
/// (i32 node, u32 count), \p count is its record count.
struct SpoolChunkRef {
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};

/// Footer index entry for one node.
struct SpoolNodeIndex {
  sim::NodeId node;
  std::uint64_t events = 0;  ///< Total records across this node's chunks.
  std::string label;         ///< Recorder track label ("bs", "vehicle"...).
  std::vector<SpoolChunkRef> chunks;
};

/// Callback receiving one decoded record (scans, ordered visits, and the
/// sink/recorder visitors built on them).
using EventFn = std::function<void(const TraceEvent&)>;

class SpoolReader;

/// Writes one spool file. Pushes encode into per-node blocks, which go to
/// disk as one chunk each when they fill; finalize() flushes the remainder
/// and writes the footer + trailer. Destruction finalizes best-effort so a
/// spool is never left without its index.
class SpoolWriter {
 public:
  explicit SpoolWriter(std::string path,
                       std::size_t block_events = kSpoolBlockEvents);
  ~SpoolWriter();
  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  /// Buffers one event on its node's block (amortised: one chunk write per
  /// block_events pushes). Must not be called after finalize().
  void push(const TraceEvent& e);

  /// Appends every record of the finalized spool \p part, its times
  /// shifted by \p at_offset and its seqs by \p seq_offset: the same bytes
  /// as pushing part's visit() order here, without decoding a record.
  /// Records are copied chunk by chunk into their node's block, and the
  /// blocks that fill are written in the order of the records that fill
  /// them, as a sequential push would. Throws std::runtime_error naming
  /// part's file where visit() would, and on an unknown kind byte. Nodes
  /// of \p part without records are not added (labels travel with the
  /// recorder).
  void absorb(const SpoolReader& part, Time at_offset,
              std::uint64_t seq_offset);

  /// Track label recorded into the footer's node index.
  void set_node_label(sim::NodeId node, const std::string& label);

  /// Flushes every non-empty block (ascending node order) and writes the
  /// footer + trailer. Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  const std::string& path() const { return path_; }
  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t kind_count(EventKind kind) const {
    return kind_counts_[static_cast<int>(kind)];
  }
  /// Nodes with at least one pushed event or a label, ascending id.
  std::vector<sim::NodeId> nodes() const;

 private:
  struct NodeState {
    std::uint64_t events = 0;
    std::string label;
    /// The next chunk as it goes to disk: the chunk header, then `fill`
    /// encoded records. Allocated at the node's first record.
    std::unique_ptr<char[]> block;
    std::uint32_t fill = 0;
    std::vector<SpoolChunkRef> chunks;
  };

  NodeState& state(sim::NodeId node);
  /// Where \p s's record \p i goes in its block.
  char* record_at(NodeState& s, std::size_t i);
  void flush_block(sim::NodeId node, NodeState& s);

  std::string path_;
  std::size_t block_events_;
  bool finalized_ = false;
  std::uint64_t offset_ = 0;  ///< File offset of the next write.
  std::uint64_t pushed_ = 0;
  std::int64_t max_at_us_ = 0;
  std::uint64_t kind_counts_[kEventKindCount] = {};
  /// Ordered: finalize's residual-block flush and the footer index walk
  /// nodes ascending, part of the byte-determinism contract.
  std::map<sim::NodeId, NodeState> nodes_;
  /// nodes_ entries by id, for the ids below 2^16 (others use the map).
  std::vector<NodeState*> dense_;
  std::ofstream out_;
};

/// SpoolWriter's former name. benchmark/vifibench.cc still spells the
/// recorder's writer this way (vifibench.cc:765 and :921); nothing else
/// does.
using StreamSink = SpoolWriter;

/// Reads one spool file. The constructor parses only the trailer + footer;
/// scans stream chunk-by-chunk (never materialising the whole file) and
/// scan_node() seeks straight to one node's chunks via the footer index.
/// Every read throws std::runtime_error naming the file when a chunk
/// disagrees with the footer index (foreign node, record count, short
/// read), when a record's kind byte names no EventKind, or when a node's
/// records (and, for visit(), the merged timeline) go backwards.
class SpoolReader {
 public:
  /// Opens and validates \p path; throws std::runtime_error with a crisp
  /// message on missing/truncated/foreign files, on a footer whose chunk
  /// index does not fit the data region or its own totals, and on a footer
  /// that carries log lines.
  explicit SpoolReader(std::string path);

  const std::string& path() const { return path_; }
  std::uint64_t recorded() const { return recorded_; }
  std::int64_t max_at_us() const { return max_at_us_; }
  std::uint64_t block_events() const { return block_events_; }
  /// Exact per-kind counts from the footer — the recorder's counters at
  /// finalize time, which `tripscope query` reconciles against a chunk
  /// scan.
  std::uint64_t kind_count(EventKind kind) const {
    return kind_counts_[static_cast<int>(kind)];
  }
  const std::vector<SpoolNodeIndex>& nodes() const { return nodes_; }
  const SpoolNodeIndex* find_node(sim::NodeId node) const;
  /// Always empty: spools carry no log lines. Kept for the one caller that
  /// still counts them (benchmark/vifibench.cc's reconcile_spool).
  std::vector<std::string> logs() const { return {}; }

  /// Streams every record node by node (index order, each node's records
  /// seq-ascending): the cheapest full read, but not the timeline order —
  /// counting callers use this; timeline callers use visit().
  void scan(const EventFn& fn) const;
  /// Streams only \p node's records in seq order, seeking each chunk via
  /// the footer index; a node absent from the index is a no-op.
  void scan_node(sim::NodeId node, const EventFn& fn) const;
  /// Streams every record in seq (recording) order: a k-way merge on a
  /// (seq, node) heap over the nodes' chunk lists, each already
  /// seq-ascending, holding one encoded chunk per node rather than the
  /// whole file and decoding each record as it is emitted. This is the
  /// read path of the exporters.
  void visit(const EventFn& fn) const;
  /// visit() collected into a vector, for callers that want the whole
  /// timeline in memory (tests, small spools).
  std::vector<TraceEvent> events() const;

 private:
  std::string path_;
  std::uint64_t recorded_ = 0;
  std::int64_t max_at_us_ = 0;
  std::uint64_t block_events_ = 0;
  std::uint64_t kind_counts_[kEventKindCount] = {};
  std::vector<SpoolNodeIndex> nodes_;
};

}  // namespace vifi::obs
