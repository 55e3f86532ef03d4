//! Per-event-class dispatch profiling and timer-cancellation accounting.
//!
//! The scenario's hot loop classifies every dispatched event
//! (generation, link transmission, link delivery, transport timer) and
//! counts it; with the `event-timing` cargo feature enabled it also accrues
//! per-class wall-clock nanoseconds from a [`std::time::Instant`] pair per
//! dispatch. Timing is off by default because reading the host clock twice
//! per event costs more than dispatching many of the events being measured —
//! counts alone are free and always on.
//!
//! Nothing here feeds back into the simulation: profiling is observation
//! only, so enabling or disabling the feature cannot change any simulated
//! result (the determinism contract in `tests/parallel_determinism.rs`).

use std::fmt;

/// Dispatch count and (feature-gated) accumulated time for one event class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventClassStats {
    /// Events of this class dispatched.
    pub count: u64,
    /// Wall-clock nanoseconds spent in handlers of this class; stays zero
    /// unless the crate is built with the `event-timing` feature.
    pub nanos: u64,
}

impl EventClassStats {
    /// Mean handler cost in nanoseconds (zero without `event-timing`).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nanos as f64 / self.count as f64
        }
    }
}

/// Where the simulation's dispatch work went, by event class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchProfile {
    /// Application packet-generation events.
    pub generate: EventClassStats,
    /// Link transmission-complete events.
    pub net_tx: EventClassStats,
    /// Link delivery events (propagation done, packet at next hop).
    pub net_delivery: EventClassStats,
    /// Transport timer firings (RTO, delayed ACK).
    pub transport: EventClassStats,
    /// Impairment-schedule events (flap/capacity/delay toggles, cross
    /// arrivals); zero on unimpaired runs.
    pub impair: EventClassStats,
}

impl DispatchProfile {
    /// Total events dispatched across all classes.
    pub fn total(&self) -> u64 {
        self.generate.count
            + self.net_tx.count
            + self.net_delivery.count
            + self.transport.count
            + self.impair.count
    }
}

impl fmt::Display for DispatchProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let timed = self.generate.nanos
            + self.net_tx.nanos
            + self.net_delivery.nanos
            + self.transport.nanos
            > 0;
        write!(
            f,
            "dispatch: generate {}, net-tx {}, net-delivery {}, transport {}",
            self.generate.count, self.net_tx.count, self.net_delivery.count, self.transport.count
        )?;
        if self.impair.count > 0 {
            write!(f, ", impair {}", self.impair.count)?;
        }
        if timed {
            write!(
                f,
                " (mean ns: {:.0}/{:.0}/{:.0}/{:.0})",
                self.generate.mean_nanos(),
                self.net_tx.mean_nanos(),
                self.net_delivery.mean_nanos(),
                self.transport.mean_nanos()
            )?;
        }
        Ok(())
    }
}

/// How much dead-timer traffic the run carried, and how much the eager
/// cancellation path eliminated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerReport {
    /// Timer events that reached dispatch but were stale (superseded by a
    /// re-arm or disarm after the queue deletion missed, e.g. a firing
    /// already popped into the scheduler's same-timestamp batch). Near zero.
    pub stale_fired: u64,
    /// Scheduled events deleted from the queue in place before firing.
    pub cancelled_in_place: u64,
    /// High-water mark of simultaneously pending events.
    pub pending_peak: u64,
}

impl fmt::Display for TimerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timers: {} cancelled in place, {} stale fired, pending peak {}",
            self.cancelled_in_place, self.stale_fired, self.pending_peak
        )
    }
}

/// A start timestamp for one dispatch, compiled to nothing unless the
/// `event-timing` feature is on.
#[derive(Debug)]
pub(crate) struct ProfClock {
    #[cfg(feature = "event-timing")]
    start: std::time::Instant,
}

impl ProfClock {
    #[inline]
    pub(crate) fn start() -> Self {
        ProfClock {
            #[cfg(feature = "event-timing")]
            start: std::time::Instant::now(),
        }
    }

    /// Charges this dispatch to `stats`.
    #[inline]
    pub(crate) fn charge(self, stats: &mut EventClassStats) {
        stats.count += 1;
        #[cfg(feature = "event-timing")]
        {
            stats.nanos += self.start.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_charges_counts() {
        let mut stats = EventClassStats::default();
        ProfClock::start().charge(&mut stats);
        ProfClock::start().charge(&mut stats);
        assert_eq!(stats.count, 2);
        #[cfg(not(feature = "event-timing"))]
        assert_eq!(stats.nanos, 0);
    }

    #[test]
    fn mean_nanos_handles_zero_count() {
        assert_eq!(EventClassStats::default().mean_nanos(), 0.0);
    }

    #[test]
    fn profile_totals_and_displays() {
        let mut p = DispatchProfile::default();
        p.generate.count = 3;
        p.net_delivery.count = 7;
        assert_eq!(p.total(), 10);
        let text = p.to_string();
        assert!(text.contains("generate 3"));
        assert!(text.contains("net-delivery 7"));
    }

    #[test]
    fn timer_report_displays() {
        let t = TimerReport {
            stale_fired: 1,
            cancelled_in_place: 42,
            pending_peak: 9,
        };
        let text = t.to_string();
        assert!(text.contains("42 cancelled in place"));
        assert!(text.contains("pending peak 9"));
    }
}
