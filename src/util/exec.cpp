#include "util/exec.hpp"

#include <algorithm>

#include "util/argparse.hpp"

namespace nsdc {

unsigned ExecContext::resolved_threads() const {
  return threads != 0 ? threads : default_threads();
}

std::size_t ExecContext::resolved_grain(std::size_t call_grain) const {
  if (grain != 0) return grain;
  // Validated parse: a garbage NSDC_GRAIN warns and defers to the per-call
  // grain instead of silently scheduling with grain 0.
  if (const long long n =
          env_integer_or("NSDC_GRAIN", 0, 1, 1LL << 40);
      n > 0) {
    return static_cast<std::size_t>(n);
  }
  return call_grain;
}

std::size_t ExecContext::autotuned_grain(std::size_t count, unsigned lanes) {
  const std::size_t l = lanes == 0 ? 1 : lanes;
  // 8 blocks per lane: measured sweet spot between dynamic load balance
  // (straggler cells in a level) and queue-transaction overhead.
  return std::max<std::size_t>(1, count / (l * 8));
}

ExecContext ExecContext::with_threads(unsigned override_threads) const {
  ExecContext out = *this;
  if (override_threads != 0) out.threads = override_threads;
  return out;
}

unsigned ExecContext::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return 0;
  // Cooperative cancellation: poll the token before every index. The
  // throwing path reuses the pool's first-exception machinery, so the pool
  // is immediately reusable after a cancelled loop.
  const std::function<void(std::size_t)>* body = &fn;
  std::function<void(std::size_t)> guarded;
  if (cancel != nullptr) {
    CancellationToken* token = cancel;
    guarded = [token, &fn](std::size_t i) {
      token->throw_if_cancelled();
      fn(i);
    };
    body = &guarded;
  }
  if (pool == nullptr) {
    return nsdc::parallel_for(count, *body, resolved_threads());
  }
  const std::size_t n =
      std::min<std::size_t>(std::max(1u, resolved_threads()), count);
  const std::size_t chunk = (count + n - 1) / n;
  const std::function<void(std::size_t)>& run = *body;
  return pool->run_blocks(count, chunk,
                          [&run](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) run(i);
                          });
}

unsigned ExecContext::parallel_for_autotuned(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return 0;
  return parallel_for_chunked(
      count, autotuned_grain(count, resolved_threads()),
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      });
}

unsigned ExecContext::parallel_for_chunked(
    std::size_t count, std::size_t call_grain,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (count == 0) return 0;
  const std::size_t g = resolved_grain(call_grain);
  // Chunked loops poll once per chunk; bodies with long-running chunks
  // (the MC sample loops) additionally poll per sample via check_cancel().
  const std::function<void(std::size_t, std::size_t)>* body = &fn;
  std::function<void(std::size_t, std::size_t)> guarded;
  if (cancel != nullptr) {
    CancellationToken* token = cancel;
    guarded = [token, &fn](std::size_t begin, std::size_t end) {
      token->throw_if_cancelled();
      fn(begin, end);
    };
    body = &guarded;
  }
  if (pool == nullptr) {
    return nsdc::parallel_for_chunked(count, g, *body, resolved_threads());
  }
  const std::size_t n =
      std::min<std::size_t>(std::max(1u, resolved_threads()), count);
  const std::size_t per_lane = (count + n - 1) / n;
  const std::size_t block = std::max(std::max<std::size_t>(1, g), per_lane);
  return pool->run_blocks(count, block, *body);
}

}  // namespace nsdc
