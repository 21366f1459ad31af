// CodeScheme: common interface for every storage scheme the paper compares.
//
// Every scheme -- r-replication, pentagon/heptagon (repair-by-transfer MBR),
// heptagon-local (locally regenerating), (k+1,k) RAID+mirroring, and
// Reed-Solomon -- is modeled as a linear code over GF(2^8) plus a stripe
// layout:
//
//   symbol_j = sum_i generator[j][i] * data_i        (j < num_symbols)
//
// with each symbol stored in one or more slots on distinct nodes. Decoding
// any erasure pattern reduces to solving the surviving rows, which gives a
// single, heavily-tested generic decoder plus a rank oracle
// (is_recoverable) reused verbatim by the reliability engine.
//
// The generic planners already prefer repair by transfer and per-node
// partial parities. A subclass overrides only plan_node_repair, where its
// structure allows a cheaper single-node plan (the sub-packetized codes).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/layout.h"
#include "ec/repair.h"
#include "gf/matrix.h"

namespace dblrep::ec {

/// Static descriptors of a code, the quantities in the paper's Table 1.
///
/// Sub-packetization: a scheme may split every block into `sub_chunks` (α)
/// equal sub-symbols. All unit-granular quantities (num_symbols,
/// stored_blocks, layout slots, generator dimensions) then count
/// sub-symbols, not blocks: a stripe stores `stored_blocks` units of
/// block_size/α bytes each, and the generator maps data_blocks·α data
/// units to num_symbols coded units. α == 1 (every pre-existing scheme)
/// keeps units == blocks and the historical semantics exactly.
struct CodeParams {
  std::string name;
  std::size_t data_blocks = 0;      // k (external blocks)
  std::size_t stored_blocks = 0;    // total slots (units) in a stripe
  std::size_t num_symbols = 0;      // distinct coded units
  std::size_t num_nodes = 0;        // code length (Table 1 column 3)
  int fault_tolerance = 0;          // any t node failures are recoverable
  std::size_t sub_chunks = 1;       // α: units per block

  /// Data units per stripe: the generator's column dimension.
  std::size_t data_units() const { return data_blocks * sub_chunks; }

  /// Table 1 column 2: stored units per data unit (== stored blocks per
  /// data block when α == 1).
  double storage_overhead() const {
    return static_cast<double>(stored_blocks) / static_cast<double>(data_units());
  }
};

class CodeScheme {
 public:
  virtual ~CodeScheme() = default;

  CodeScheme(const CodeScheme&) = delete;
  CodeScheme& operator=(const CodeScheme&) = delete;

  const CodeParams& params() const { return params_; }
  const StripeLayout& layout() const { return layout_; }

  /// Generator matrix, num_symbols x data_units(). Symbols
  /// [0, data_units()) are systematic (identity rows) for every scheme in
  /// this library; data unit u is sub-chunk u % α of block u / α.
  const gf::Matrix& generator() const { return generator_; }

  /// Rows [data_units(), num_symbols) of the generator as one contiguous
  /// row-major block -- the coefficient operand for gf::matrix_apply.
  /// Cached at construction so encoders never re-gather rows.
  std::span<const gf::Elem> parity_coeffs() const { return parity_coeffs_; }

  std::size_t data_blocks() const { return params_.data_blocks; }
  std::size_t num_symbols() const { return params_.num_symbols; }
  std::size_t num_nodes() const { return params_.num_nodes; }
  std::size_t sub_chunks() const { return params_.sub_chunks; }
  std::size_t data_units() const { return params_.data_units(); }

  /// Encodes k equal-sized data blocks into one buffer per slot (replicated
  /// symbols are duplicated). Order matches layout slot indices; each slot
  /// buffer is block_size / α bytes. block_size must be divisible by α.
  std::vector<Buffer> encode(std::span<const Buffer> data) const;

  /// Computes the distinct symbols (units) only, no replica duplication:
  /// copies of the data units in unit order (unit b·α + a is sub-chunk a
  /// of block b), then the parity units from one fused matrix_apply pass
  /// over the cached parity coefficient block.
  std::vector<Buffer> encode_symbols(std::span<const Buffer> data) const;

  /// True iff the data survives failure of exactly this node set.
  bool is_recoverable(const std::set<NodeIndex>& failed_nodes) const;

  /// Recovers all k data blocks (full block_size bytes each, sub-chunks
  /// re-concatenated) from the slots present in `store` (slots on failed
  /// nodes simply absent; each stored entry is one block_size/α unit).
  /// Uses systematic fast paths where possible and Gaussian elimination
  /// otherwise.
  Result<std::vector<Buffer>> decode(const SlotStore& store,
                                     std::size_t block_size) const;

  /// Plan to restore every slot of one failed node. Default:
  /// plan_multi_node_repair({failed}).
  virtual Result<RepairPlan> plan_node_repair(NodeIndex failed) const;

  /// Plan to rebuild the `lost` slots in place while the `down` nodes serve
  /// nothing; a slot is readable iff it is neither, and a lost slot on a
  /// down node waits for that node's repair. DATA_LOSS unless the readable
  /// symbols span the data. Lost slots are visited node by node: a readable
  /// twin is one copy, and any other symbol is solved over a basis folded
  /// into per-node partial parities.
  Result<RepairPlan> plan_slot_repair(const std::set<std::size_t>& lost,
                                      const std::set<NodeIndex>& down) const;

  /// Plan to restore all slots of several failed nodes (executed on the
  /// in-place replacements): plan_slot_repair of every slot they host.
  Result<RepairPlan> plan_multi_node_repair(
      const std::set<NodeIndex>& failed) const;

  /// Plan to deliver one symbol (one unit, for α > 1) to a client while
  /// `failed` nodes are down (the paper's on-the-fly repair during an MR
  /// job, Section 3.1). If a replica of the symbol survives, this is a
  /// single copy; otherwise the client gathers a surviving basis, folded
  /// into per-node partial parities, and solves.
  Result<RepairPlan> plan_degraded_read(
      std::size_t symbol, const std::set<NodeIndex>& failed) const;

  /// Plan to deliver one full data BLOCK to a client: the α client
  /// reconstructions for units [block·α, (block+1)·α), in unit order, so
  /// the executor's delivered buffers concatenate back into the block:
  /// the per-unit degraded-read plans merged into one plan (for α == 1
  /// this is exactly plan_degraded_read(block, failed)).
  Result<RepairPlan> plan_degraded_block(
      std::size_t block, const std::set<NodeIndex>& failed) const;

  /// Verifies that a full slot set is a valid codeword (replicas identical,
  /// parities consistent). Used by scrub paths and tests.
  Status verify_codeword(const SlotStore& store, std::size_t block_size) const;

 protected:
  CodeScheme(CodeParams params, StripeLayout layout, gf::Matrix generator);

 private:
  /// True iff the symbols with a slot marked in `readable` (one flag per
  /// slot) span every data unit.
  bool spans_data(const std::vector<bool>& readable) const;

  CodeParams params_;
  StripeLayout layout_;
  gf::Matrix generator_;
  /// Rows [k, num_symbols) of the generator, contiguous row-major -- the
  /// coefficient block handed to gf::matrix_apply on every encode.
  std::vector<gf::Elem> parity_coeffs_;
};

/// Convenience: splits `data` (padded with zeros) into the code's k blocks
/// of `block_size` each.
std::vector<Buffer> chunk_data(ByteSpan data, std::size_t k,
                               std::size_t block_size);

}  // namespace dblrep::ec
