//! Self-configuring RED (Feng, Kandlur, Saha & Shin, INFOCOM '99 — the
//! paper's reference [5]).
//!
//! Fixed RED parameters are only right for one traffic load; the
//! self-configuring variant watches where the average queue sits and scales
//! `max_p` to keep it inside the `[min_th, max_th]` band: when the average
//! falls below `min_th` RED is being too aggressive, so `max_p` is divided
//! by `alpha`; when it rises above `max_th` RED is too permissive, so
//! `max_p` is multiplied by `beta`.

use tcpburst_des::{SimDuration, SimTime};

use crate::packet::{Packet, PacketId};
use crate::queue::{EnqueueOutcome, Occupancy, Queue, QueueStats, RedParams, RedQueue};

/// Adaptation knobs for [`SelfConfiguringRed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRedParams {
    /// Division factor applied to `max_p` when the average queue is below
    /// `min_th` (the original paper uses 3).
    pub alpha: f64,
    /// Multiplication factor applied when the average exceeds `max_th` (the
    /// original paper uses 2).
    pub beta: f64,
    /// Lower clamp on `max_p`.
    pub min_max_p: f64,
    /// Upper clamp on `max_p`.
    pub max_max_p: f64,
    /// Minimum time between adjustments (roughly one RTT).
    pub interval: SimDuration,
}

impl Default for AdaptiveRedParams {
    fn default() -> Self {
        AdaptiveRedParams {
            alpha: 3.0,
            beta: 2.0,
            min_max_p: 0.01,
            max_max_p: 0.5,
            interval: SimDuration::from_millis(50),
        }
    }
}

impl AdaptiveRedParams {
    fn validate(&self) {
        assert!(self.alpha > 1.0, "alpha must exceed 1");
        assert!(self.beta > 1.0, "beta must exceed 1");
        assert!(
            0.0 < self.min_max_p && self.min_max_p <= self.max_max_p && self.max_max_p <= 1.0,
            "max_p clamps must satisfy 0 < min <= max <= 1"
        );
        assert!(!self.interval.is_zero(), "interval must be positive");
    }
}

/// A RED gateway that re-tunes its own `max_p` to the offered load.
///
/// # Example
///
/// ```
/// use tcpburst_net::{AdaptiveRedParams, Queue, RedParams, SelfConfiguringRed};
///
/// let q = SelfConfiguringRed::new(
///     RedParams::paper_defaults(),
///     AdaptiveRedParams::default(),
///     7,
/// );
/// assert_eq!(q.current_max_p(), 0.1); // starts at the configured value
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct SelfConfiguringRed {
    inner: RedQueue,
    adapt: AdaptiveRedParams,
    max_p: f64,
    last_adjust: SimTime,
    adjustments: u64,
}

impl SelfConfiguringRed {
    /// Creates a self-configuring RED queue starting from `red`'s `max_p`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter set is invalid.
    pub fn new(red: RedParams, adapt: AdaptiveRedParams, seed: u64) -> Self {
        adapt.validate();
        let max_p = red.max_p;
        SelfConfiguringRed {
            inner: RedQueue::new(red, seed),
            adapt,
            max_p,
            last_adjust: SimTime::ZERO,
            adjustments: 0,
        }
    }

    /// The current (adapted) maximum drop probability.
    pub fn current_max_p(&self) -> f64 {
        self.max_p
    }

    /// Number of `max_p` adjustments made so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// The inner RED queue's average-queue estimate.
    pub fn average(&self) -> f64 {
        self.inner.average()
    }

    fn maybe_adapt(&mut self, now: SimTime) {
        if now.saturating_since(self.last_adjust) < self.adapt.interval {
            return;
        }
        self.last_adjust = now;
        let avg = self.inner.average();
        let p = self.inner.params();
        let new_p = if avg < p.min_th {
            self.max_p / self.adapt.alpha
        } else if avg > p.max_th {
            self.max_p * self.adapt.beta
        } else {
            return;
        };
        let new_p = new_p.clamp(self.adapt.min_max_p, self.adapt.max_max_p);
        if (new_p - self.max_p).abs() > f64::EPSILON {
            self.max_p = new_p;
            self.inner.set_max_p(new_p);
            self.adjustments += 1;
        }
    }
}

impl Queue for SelfConfiguringRed {
    fn enqueue(&mut self, id: PacketId, pkt: &mut Packet, now: SimTime) -> EnqueueOutcome {
        let outcome = self.inner.enqueue(id, pkt, now);
        self.maybe_adapt(now);
        outcome
    }

    fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        self.inner.dequeue(now)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> QueueStats {
        self.inner.stats()
    }

    fn occupancy(&self) -> Occupancy {
        self.inner.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId, NodeId, PacketKind};
    use crate::queue::testbed::Bed;

    fn pkt() -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes: 1500,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    fn queue(weight: f64) -> Bed<SelfConfiguringRed> {
        Bed::new(SelfConfiguringRed::new(
            RedParams {
                min_th: 5.0,
                max_th: 15.0,
                max_p: 0.1,
                weight,
                capacity: 100,
                mean_pkt_time_secs: 0.001,
                ecn_marking: false,
            },
            AdaptiveRedParams::default(),
            3,
        ))
    }

    #[test]
    fn light_load_relaxes_max_p() {
        let mut q = queue(0.5);
        // Queue stays empty-ish: average < min_th, max_p shrinks.
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 60); // beyond each interval
            q.enqueue(pkt(), now);
            q.dequeue(now);
        }
        assert!(q.current_max_p() < 0.1, "max_p {} did not relax", q.current_max_p());
        assert!(q.current_max_p() >= 0.01, "clamped at min");
        assert!(q.adjustments() > 0);
    }

    #[test]
    fn overload_tightens_max_p() {
        let mut q = queue(0.9);
        // Fill hard without draining: the average climbs past max_th.
        for i in 0..500u64 {
            let now = SimTime::from_millis(i * 60);
            q.enqueue(pkt(), now);
            if q.len() > 30 {
                q.dequeue(now);
            }
        }
        assert!(
            q.current_max_p() > 0.1,
            "max_p {} did not tighten under overload",
            q.current_max_p()
        );
        assert!(q.current_max_p() <= 0.5, "clamped at max");
    }

    #[test]
    fn adjustments_respect_the_interval() {
        let mut q = queue(0.5);
        // Two arrivals within one interval: at most one adjustment.
        q.enqueue(pkt(), SimTime::from_millis(60));
        q.enqueue(pkt(), SimTime::from_millis(61));
        assert!(q.adjustments() <= 1);
    }

    #[test]
    fn in_band_average_leaves_max_p_alone() {
        let mut q = queue(1.0); // avg tracks the instantaneous length exactly
        // Ramp to 10 packets inside the first adaptation interval (no
        // adjustment can fire yet), then hold between min_th 5 and max_th 15.
        for _ in 0..10 {
            q.enqueue(pkt(), SimTime::from_millis(1));
        }
        for i in 1..100u64 {
            let now = SimTime::from_millis(i * 60);
            q.enqueue(pkt(), now);
            if q.len() > 10 {
                q.dequeue(now);
            }
        }
        assert_eq!(q.current_max_p(), 0.1);
        assert_eq!(q.adjustments(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn invalid_adaptation_panics() {
        SelfConfiguringRed::new(
            RedParams::paper_defaults(),
            AdaptiveRedParams {
                alpha: 0.5,
                ..AdaptiveRedParams::default()
            },
            0,
        );
    }
}
