#include "schedule/ledger.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wagg::schedule {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double LedgerSlot::max_load() const noexcept {
  double worst = 0.0;
  for (const double r : load) worst = std::max(worst, r);
  return worst;
}

SlotLedger::SlotLedger(const geom::LinkView& links,
                       const sinr::SinrParams& params,
                       const sinr::PowerAssignment* power, double bound,
                       sinr::PowerControlOptions options)
    : links_(links),
      params_(params),
      pinned_(power != nullptr),
      options_(options),
      bound_(bound),
      log2_beta_(std::log2(params.beta)) {
  params_.validate();
  log2_len_.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    log2_len_.push_back(std::log2(links.length(i)));
    if (pinned()) {
      pinned_power_.push_back(power->log2_power(i));
      pinned_noise_.push_back(noise_load(i, pinned_power_.back()));
    }
  }
}

SlotLedger::SlotLedger(const geom::LinkView& links,
                       const sinr::SinrParams& params,
                       const sinr::PowerAssignment& power, double tolerance)
    : SlotLedger(links, params, &power, 1.0 + tolerance, {}) {}

SlotLedger::SlotLedger(const geom::LinkView& links,
                       const sinr::SinrParams& params,
                       sinr::PowerControlOptions options)
    : SlotLedger(links, params, nullptr, 1.0 - options.strictness, options) {}

double SlotLedger::term(double x_j, double x_i, std::size_t i,
                        double log2_d) const noexcept {
  const double lg =
      log2_beta_ + x_j - x_i + params_.alpha * (log2_len_[i] - log2_d);
  if (lg >= 100.0) return 1e30;
  if (lg <= -1074.0) return 0.0;
  return std::exp2(lg);
}

double SlotLedger::noise_load(std::size_t i, double x_i) const noexcept {
  if (params_.noise <= 0.0) return 0.0;
  const double lg = log2_beta_ + std::log2(params_.noise) +
                    params_.alpha * log2_len_[i] - x_i;
  return lg >= 100.0 ? 1e30 : std::exp2(lg);
}

LedgerSlot SlotLedger::unknown(std::span<const std::size_t> members) const {
  LedgerSlot slot;
  for (const std::size_t i : members) append(slot, i);
  return slot;
}

LedgerSlot SlotLedger::open(std::size_t link) {
  LedgerSlot slot;
  slot.exact = true;
  insert(slot, link);
  return slot;
}

bool SlotLedger::probe(const LedgerSlot& slot, std::size_t j,
                       bool stop_early) {
  const std::size_t m = slot.members.size();
  // Grow-only buffers: a probe that stops at its first member stays O(1).
  if (probe_gain_.size() < m + 1) {
    probe_gain_.resize(m + 1);
    probe_log2_d_.resize(m + 1);
    probe_row_.resize(m + 1);
  }
  // A shared node (or a sender on j's receiver) can never share a slot.
  bool blocked = false;
  if (pinned()) {
    probe_power_ = pinned_power_[j];
  } else {
    // The power that puts j's own load at kInsertLoad given the members'
    // carried powers: x_j = log2(sum_k M_jk 2^x_k + beta N l_j^alpha)
    // - log2(kInsertLoad). Needs the whole row (log2 d_kj, k's sender to
    // j's receiver) before any column term.
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t k = slot.members[a];
      probe_log2_d_[a] = links_.log2_sinr_distance(k, j);
      probe_row_[a] = log2_beta_ + slot.log2_power[a] +
                      params_.alpha * (log2_len_[j] - probe_log2_d_[a]);
      blocked = blocked || links_.shares_node(j, k) ||
                probe_log2_d_[a] == -kInf;
    }
    probe_row_[m] = params_.noise > 0.0
                        ? log2_beta_ + std::log2(params_.noise) +
                              params_.alpha * log2_len_[j]
                        : -kInf;
    const double total = sinr::log2_sum_exp2(
        std::span<const double>(probe_row_.data(), m + 1));
    probe_power_ = blocked || total == -kInf
                       ? 0.0
                       : total - std::log2(kInsertLoad);
    if (blocked && stop_early) return false;
  }
  probe_load_ = pinned() ? pinned_noise_[j] : noise_load(j, probe_power_);
  bool fits = !blocked && probe_load_ <= bound_;
  // Pinned, the row and column come in one pass, so a failed placement
  // stops at the first overloaded member.
  for (std::size_t a = 0; a < m && (fits || !stop_early); ++a) {
    const std::size_t i = slot.members[a];
    if (pinned()) {
      blocked = blocked || links_.shares_node(j, i);
      probe_log2_d_[a] = links_.log2_sinr_distance(i, j);
    }
    probe_gain_[a] = term(probe_power_, slot.log2_power[a], i,
                          links_.log2_sinr_distance(j, i));
    probe_load_ +=
        term(slot.log2_power[a], probe_power_, j, probe_log2_d_[a]);
    fits = !blocked && fits && slot.load[a] + probe_gain_[a] <= bound_ &&
           probe_load_ <= bound_;
  }
  if (blocked) probe_load_ = kInf;
  return fits;
}

void SlotLedger::commit(LedgerSlot& slot, std::size_t link) const {
  for (std::size_t a = 0; a < slot.members.size(); ++a) {
    slot.load[a] += probe_gain_[a];
  }
  slot.members.push_back(link);
  slot.log2_power.push_back(probe_power_);
  slot.load.push_back(probe_load_);
}

bool SlotLedger::insert(LedgerSlot& slot, std::size_t link) {
  const bool fits = probe(slot, link, false);
  commit(slot, link);
  return fits;
}

void SlotLedger::append(LedgerSlot& slot, std::size_t link) const {
  slot.members.push_back(link);
  slot.log2_power.push_back(pinned() ? pinned_power_[link] : 0.0);
  slot.load.push_back(kInf);
}

void SlotLedger::reseed(LedgerSlot& slot) const {
  const std::size_t m = slot.members.size();
  // Summed in member order, noise first: bit-identical to the running sums
  // a slot built by insertions alone accumulates.
  for (std::size_t a = 0; a < m; ++a) {
    const std::size_t i = slot.members[a];
    double r = pinned() ? pinned_noise_[i] : noise_load(i, slot.log2_power[a]);
    bool blocked = false;
    for (std::size_t b = 0; b < m; ++b) {
      if (b == a) continue;
      const std::size_t k = slot.members[b];
      blocked = blocked || links_.shares_node(k, i);
      r += term(slot.log2_power[b], slot.log2_power[a], i,
                links_.log2_sinr_distance(k, i));
    }
    slot.load[a] = blocked ? kInf : r;
  }
  slot.exact = true;
}

bool SlotLedger::rebuild(LedgerSlot& slot) {
  // Re-adding the members in member order accumulates exactly reseed's
  // sums, and loads only grow under insertion, so the first overload
  // rejects the whole slot.
  LedgerSlot fresh;
  fresh.exact = true;
  fresh.members.reserve(slot.members.size());
  fresh.log2_power.reserve(slot.members.size());
  fresh.load.reserve(slot.members.size());
  for (const std::size_t link : slot.members) {
    if (!probe(fresh, link, true)) return false;
    commit(fresh, link);
  }
  slot = std::move(fresh);
  return true;
}

void SlotLedger::seed(LedgerSlot& slot,
                      const sinr::PowerControlResult& result) {
  slot.log2_power = result.log2_power;
  slot.load.resize(result.log2_load.size());
  std::transform(result.log2_load.begin(), result.log2_load.end(),
                 slot.load.begin(), [](double lg) { return std::exp2(lg); });
  slot.exact = true;
}

bool SlotLedger::settle(LedgerSlot& slot, CertificateCounts& counts) {
  if (certifies(slot) || (pinned() && slot.exact)) {
    ++counts.hits;
    return certifies(slot);
  }
  ++counts.misses;
  if (pinned()) return rebuild(slot);
  const auto result =
      sinr::power_control_feasible(links_, slot.members, params_, options_);
  if (!result.feasible) return false;
  seed(slot, result);
  return true;
}

bool SlotLedger::admit(LedgerSlot& sub, std::size_t link,
                       CertificateCounts& counts) {
  if (probe(sub, link, true)) {
    ++counts.hits;
    commit(sub, link);
    return true;
  }
  if (pinned() && sub.exact) {
    ++counts.hits;
    return false;
  }
  ++counts.misses;
  if (pinned()) {
    // Stale bounds rejected it: recompute sub's loads once, so this and
    // every later insertion into sub decides exactly in O(|sub|).
    reseed(sub);
    if (!probe(sub, link, true)) return false;
    commit(sub, link);
    return true;
  }
  trial_ = sub.members;
  trial_.push_back(link);
  const auto result =
      sinr::power_control_feasible(links_, trial_, params_, options_);
  if (!result.feasible) return false;
  sub.members.push_back(link);
  seed(sub, result);
  return true;
}

}  // namespace wagg::schedule
