#include "quant/quant_io.h"

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/check.h"
#include "common/file_io.h"

namespace pelican::quant {

namespace {

constexpr std::string_view kMagic = "PQNT";
constexpr std::uint32_t kVersion = 1;

}  // namespace

void SaveQuantSidecar(const std::string& path,
                      const std::vector<const LinearQuant*>& ops) {
  ByteWriter out(kMagic, kVersion);
  out.Put(static_cast<std::uint64_t>(ops.size()));
  for (const LinearQuant* op : ops) {
    PELICAN_CHECK(op != nullptr && op->Ready(),
                  "cannot serialize unfrozen quantized op");
    out.PutString(op->name);
    out.Put(static_cast<std::uint64_t>(op->k));
    out.Put(static_cast<std::uint64_t>(op->n));
    out.Put(op->act_scale);
    out.PutBytes(op->scales.data(), op->scales.size() * sizeof(float));
    out.PutBytes(op->data.data(), op->data.size());
  }
  out.Seal(path);
}

void LoadQuantSidecar(const std::string& path,
                      const std::vector<LinearQuant*>& ops) {
  const std::string bytes = ReadFileBytes(path);
  auto [version, in] =
      OpenSealed(bytes, kMagic, "quantized sidecar " + path);
  PELICAN_CHECK(version == kVersion, "unsupported quantized sidecar version");
  const auto op_count = in.Get<std::uint64_t>();
  PELICAN_CHECK(op_count == ops.size(),
                "quantized op count mismatch: sidecar has " +
                    std::to_string(op_count) + ", network has " +
                    std::to_string(ops.size()));
  for (LinearQuant* op : ops) {
    const std::string_view name = in.GetString();
    PELICAN_CHECK(name == op->name, "quantized op name mismatch: expected " +
                                        op->name + ", got " +
                                        std::string(name));
    const auto k = in.Get<std::uint64_t>();
    const auto n = in.Get<std::uint64_t>();
    PELICAN_CHECK(k > 0 && n > 0 && k < (std::uint64_t{1} << 32) &&
                      n < (std::uint64_t{1} << 32),
                  "implausible quantized shape for " + op->name);
    const auto act_scale = in.Get<float>();
    PELICAN_CHECK(std::isfinite(act_scale) && act_scale > 0.0F,
                  "invalid activation scale for " + op->name);
    // Both counts are checked against the bytes left before anything is
    // allocated; k·n is bounded by them, so it cannot overflow.
    const std::size_t n_scales = in.CheckCount(n, sizeof(float));
    op->k = static_cast<std::int64_t>(k);
    op->n = static_cast<std::int64_t>(n);
    op->act_scale = act_scale;
    op->scales.resize(n_scales);
    in.GetBytes(op->scales.data(), n_scales * sizeof(float));
    for (float s : op->scales) {
      PELICAN_CHECK(std::isfinite(s) && s > 0.0F,
                    "invalid weight scale for " + op->name);
    }
    op->data.resize(in.CheckCount(k, n_scales) * n_scales);
    in.GetBytes(op->data.data(), op->data.size());
  }
}

}  // namespace pelican::quant
