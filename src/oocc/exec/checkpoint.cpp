#include "oocc/exec/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#include "oocc/io/file_backend.hpp"
#include "oocc/sim/collectives.hpp"
#include "oocc/util/hash.hpp"
#include "oocc/util/log.hpp"

namespace oocc::exec {

namespace {

constexpr std::uint64_t kCkptMagic = 0x4f4f43432d434b50ULL;  // "OOCC-CKP"

// Per-rank checkpoint data file: [CkptHeader][local array, column-major
// section order]. The file is only trusted once the directory's `meta`
// file names its iteration — data files themselves are never committed.
struct CkptHeader {
  std::uint64_t magic = 0;
  std::int64_t iterations = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(CkptHeader) == 48);

}  // namespace

CheckpointStore::CheckpointStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  OOCC_REQUIRE(!dir_.empty(), "checkpoint directory must be set");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OOCC_CHECK(!ec, ErrorCode::kIoError,
             "cannot create checkpoint directory " << dir_ << ": "
                                                   << ec.message());
}

std::filesystem::path CheckpointStore::data_path(const Meta& meta,
                                                 int rank) const {
  std::string name = meta.state;
  name += '.';
  name += std::to_string(meta.iterations);
  name += ".r";
  name += std::to_string(rank);
  return dir_ / name;
}

void CheckpointStore::save(sim::SpmdContext& ctx, int iterations,
                           const std::string& state,
                           runtime::OutOfCoreArray& array) {
  const Meta meta{iterations, state};
  const std::int64_t elements = array.local_elements();
  // Staging is deliberately outside the memory budget, like the halo
  // exchange's ghost buffers: it is transient runtime scratch, not an ICLA.
  std::vector<double> buf(static_cast<std::size_t>(elements));
  array.laf().read_full(ctx, buf);  // charged + retried by the LAF

  CkptHeader h;
  h.magic = kCkptMagic;
  h.iterations = iterations;
  h.rows = array.local_rows();
  h.cols = array.local_cols();
  h.payload_bytes = buf.size() * sizeof(double);
  h.checksum = fnv1a(buf.data(), h.payload_bytes, kFileChecksumSeed);
  {
    io::FileBackend f(data_path(meta, ctx.rank()));
    f.truncate(0);
    f.write_at(0, &h, sizeof(h));
    f.write_at(sizeof(h), buf.data(), h.payload_bytes);
  }
  // One streaming request against this array's disk; the meta commit below
  // is a metadata touch and is not priced.
  const double time = array.laf().disk().request_time(
      static_cast<double>(sizeof(h) + h.payload_bytes), ctx.nprocs());
  ctx.charge_io_time(time);
  ++ctx.stats().io_requests;
  ctx.stats().io_bytes_written += h.payload_bytes;

  // Commit protocol: every rank's data file is durable before rank 0
  // publishes the checkpoint with an atomic rename; a second barrier keeps
  // any rank from starting the next sweep (or a later save) against a
  // half-committed directory.
  sim::barrier(ctx);
  if (ctx.rank() == 0) {
    const std::filesystem::path tmp = dir_ / "meta.tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << iterations << ' ' << state << '\n';
      OOCC_CHECK(out.good(), ErrorCode::kIoError,
                 "cannot write checkpoint meta " << tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, dir_ / "meta", ec);
    OOCC_CHECK(!ec, ErrorCode::kIoError,
               "cannot commit checkpoint meta: " << ec.message());
    // Garbage-collect superseded checkpoints (and stray meta.tmp files).
    std::string keep = ".";
    keep += std::to_string(iterations);
    keep += ".r";
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name == "meta" || name.find(keep) != std::string::npos) {
        continue;
      }
      std::filesystem::remove(entry.path(), ec);
    }
  }
  sim::barrier(ctx);
}

void CheckpointStore::restore(sim::SpmdContext& ctx, const Meta& meta,
                              runtime::OutOfCoreArray& array) {
  const std::filesystem::path path = data_path(meta, ctx.rank());
  std::error_code ec;
  OOCC_CHECK(std::filesystem::exists(path, ec) && !ec, ErrorCode::kIoError,
             "checkpoint data file " << path << " is missing");
  io::FileBackend f(path);
  CkptHeader h;
  f.read_at(0, &h, sizeof(h));
  OOCC_CHECK(h.magic == kCkptMagic && h.iterations == meta.iterations &&
                 h.rows == array.local_rows() && h.cols == array.local_cols(),
             ErrorCode::kIoError,
             "checkpoint data file " << path
                                     << " does not match the committed "
                                        "checkpoint (corrupt directory?)");
  const std::uint64_t want =
      static_cast<std::uint64_t>(array.local_elements()) * sizeof(double);
  OOCC_CHECK(h.payload_bytes == want, ErrorCode::kIoError,
             "checkpoint data file " << path << " holds " << h.payload_bytes
                                     << " payload bytes, expected " << want);
  std::vector<double> buf(static_cast<std::size_t>(array.local_elements()));
  f.read_at(sizeof(h), buf.data(), h.payload_bytes);
  OOCC_CHECK(fnv1a(buf.data(), h.payload_bytes, kFileChecksumSeed) ==
                 h.checksum,
             ErrorCode::kIoError,
             "checkpoint data file " << path << " fails its checksum");
  const double time = array.laf().disk().request_time(
      static_cast<double>(sizeof(h) + h.payload_bytes), ctx.nprocs());
  ctx.charge_io_time(time);
  ++ctx.stats().io_requests;
  ctx.stats().io_bytes_read += h.payload_bytes;
  array.laf().write_full(ctx, buf);
}

std::optional<CheckpointStore::Meta> CheckpointStore::latest(
    const std::filesystem::path& dir) {
  std::ifstream in(dir / "meta");
  if (!in.good()) {
    return std::nullopt;
  }
  Meta meta;
  in >> meta.iterations >> meta.state;
  if (in.fail() || meta.iterations <= 0 || meta.state.empty()) {
    return std::nullopt;
  }
  return meta;
}

bool restartable_error(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kIoError:
    case ErrorCode::kTransientIoError:
    case ErrorCode::kCrash:
    case ErrorCode::kResourceExhausted:
    // Injected message faults and exhausted send retries raise
    // kRuntimeError, and Machine::run rethrows the error that started the
    // abort, so a restartable failure can arrive as this code.
    case ErrorCode::kRuntimeError:
      return true;
    default:
      return false;
  }
}

RestartRunInfo run_stencil_with_restart(sim::Machine& machine,
                                        const compiler::NodeProgram& plan,
                                        const RestartOptions& options) {
  OOCC_REQUIRE(plan.kind == compiler::ProgramKind::kStencil,
               "run_stencil_with_restart needs a stencil plan");
  const std::filesystem::path& checkpoint_dir = options.exec.checkpoint_dir;
  OOCC_REQUIRE(options.exec.checkpoint_every >= 1,
               "exec.checkpoint_every must be >= 1, got "
                   << options.exec.checkpoint_every);
  OOCC_REQUIRE(!checkpoint_dir.empty() && !options.array_dir.empty(),
               "exec.checkpoint_dir and array_dir must be set");
  CheckpointStore store(checkpoint_dir);  // create dir up front

  RestartRunInfo result;
  for (;;) {
    try {
      StencilRunInfo info;
      std::mutex mu;
      result.report = machine.run([&](sim::SpmdContext& ctx) {
        auto arrays =
            create_plan_arrays(ctx, plan, options.array_dir, options.disk);
        ArrayBindings bindings;
        for (auto& [name, array] : arrays) {
          bindings[name] = array.get();
        }
        ExecOptions exec = options.exec;
        StencilRunInfo local;
        exec.stencil_info = &local;
        // The commit protocol's barriers order every rank's view of `meta`:
        // all ranks of an attempt see the same committed checkpoint here.
        const auto meta = CheckpointStore::latest(checkpoint_dir);
        if (meta.has_value()) {
          CheckpointStore attempt_store(checkpoint_dir);
          attempt_store.restore(ctx, *meta, *bindings.at(meta->state));
          exec.start_iteration = meta->iterations;
        } else if (options.initialize) {
          options.initialize(ctx, bindings);
        }
        sim::barrier(ctx);
        ctx.reset_accounting();
        execute(ctx, plan, bindings, exec);
        const std::lock_guard<std::mutex> lock(mu);
        info = local;
      });
      result.stencil = info;
      return result;
    } catch (const Error& e) {
      if (!restartable_error(e.code()) ||
          result.restarts >= options.max_restarts) {
        throw;
      }
      ++result.restarts;
      OOCC_WARN("exec", "stencil run failed ("
                            << error_code_name(e.code()) << ": " << e.what()
                            << "); restarting " << result.restarts << "/"
                            << options.max_restarts);
    }
  }
}

}  // namespace oocc::exec
