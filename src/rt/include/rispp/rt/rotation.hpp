#pragma once
/// \file rotation.hpp
/// \brief The rotation scheduler: serializes Atom transfers over the single
/// reconfiguration port (paper §5c, Table 1).
///
/// The prototype has one SelectMap port, so rotations are strictly
/// sequential and non-preemptive: once a transfer has *started* it always
/// runs to its booked end — but with a fault model attached (hw/fault.hpp)
/// "running to the end" no longer implies the Atom commits: a transfer may
/// end in Failed/Poisoned, which the scheduler surfaces through
/// take_failures() for the reallocation kernel to react to. Transfers that
/// are still queued behind the port may optionally be cancelled when a
/// reallocation makes them stale (RtConfig::cancel_stale_rotations); the
/// port then idles through the vacated slot — bookings that were already
/// announced keep their times.

#include <cstdint>
#include <optional>
#include <vector>

#include "rispp/hw/fault.hpp"
#include "rispp/hw/reconfig_port.hpp"
#include "rispp/isa/atom_catalog.hpp"
#include "rispp/rt/container.hpp"

namespace rispp::rt {

class RotationScheduler {
 public:
  RotationScheduler(hw::FaultyReconfigPort port, double clock_mhz);

  struct Booking {
    Cycle start = 0;
    Cycle done = 0;
    unsigned container = 0;
    std::size_t atom_kind = 0;
    /// How the transfer ends. Decided (deterministically) at booking time,
    /// but *discovered* by the platform only at `done` — callers must not
    /// act on a non-Ok result before take_failures() delivers it.
    hw::TransferResult result = hw::TransferResult::Ok;
  };

  /// Books the transfer of `atom_kind`'s bitstream into `container`,
  /// starting no earlier than `now` (later when the port is busy); returns
  /// the booking with its actual transfer window [start, done). The window
  /// already includes any bandwidth-degradation stretch from the fault
  /// model.
  Booking schedule(Cycle now, std::size_t atom_kind,
                   const isa::AtomCatalog& catalog, unsigned container = 0);

  /// Cancels the pending booking for `container` if (and only if) its
  /// transfer has not started by `now`. Returns true when cancelled. The
  /// port slot is NOT re-packed — later bookings keep their announced
  /// times. A cancelled faulty booking will never be delivered by
  /// take_failures (Cancelled is its terminal state).
  bool cancel_pending(unsigned container, Cycle now);

  /// The not-yet-started booking for a container, if any.
  std::optional<Booking> pending_for(unsigned container, Cycle now) const;

  /// Earliest booking completion strictly after `t`, if any transfer is
  /// still outstanding. The simulator uses this as its wakeup cycle: between
  /// completions a poll cannot change the platform state, so it only polls
  /// when `now` crosses this value.
  std::optional<Cycle> next_completion_after(Cycle t) const;

  /// Delivers (and forgets) every faulty booking whose transfer window has
  /// ended by `now`, in completion order. Empty forever with a fault-free
  /// port, so the zero-fault kernel path stays one dead branch.
  std::vector<Booking> take_failures(Cycle now);

  /// True when some faulty booking is still awaiting delivery — the O(1)
  /// guard the kernel checks per execute()/poll() before paying for a
  /// take_failures() call. Always false with a fault-free port.
  bool has_pending_failures() const { return !faulty_.empty(); }

  /// Nominal (un-stretched) duration of one rotation of the given atom
  /// kind, in cycles — what cost gates and refunds reason over.
  Cycle duration_cycles(std::size_t atom_kind,
                        const isa::AtomCatalog& catalog) const;

  std::uint64_t rotations_performed() const { return rotations_; }
  std::uint64_t rotations_cancelled() const { return cancelled_; }

 private:
  void prune(Cycle now);

  hw::FaultyReconfigPort port_;
  double clock_mhz_;
  Cycle busy_until_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Booking> bookings_;  ///< pending/in-flight, pruned lazily
  /// Faulty bookings not yet delivered via take_failures. Appended in issue
  /// order; `done` is non-decreasing along the vector (serial port), so
  /// deliverable entries always form a prefix.
  std::vector<Booking> faulty_;
};

}  // namespace rispp::rt
