//! Absorbing application arrivals at a full window.
//!
//! While the flight fills the usable window, an application packet can
//! only join the backlog, so the scenario loop counts such arrivals in one
//! batch instead of dispatching each. `absorb_app_packets(k)` must leave
//! the sender exactly where `k` calls of `on_app_packets(1)` would: same
//! counters and backlog, no segment emitted and no timer armed — on the
//! paced send path too.

mod common;

use common::{ack_after, sender, Sched};
use tcpburst_net::Packet;
use tcpburst_transport::{TcpSender, TcpVariant};

/// A sender with a deep backlog and a full window, a few ACKs into the
/// connection. Paced senders run their pace timers until the window
/// fills.
fn window_full(variant: TcpVariant) -> (TcpSender, Sched, Vec<Packet>) {
    let (mut s, mut sched, mut out) = sender(variant);
    s.on_app_packets(200, &mut sched, &mut out);
    for _ in 0..6 {
        ack_after(&mut s, &mut sched, &mut out, 40);
    }
    while !s.window_full() {
        let (_, ev) = sched.pop().expect("a paced sender waits on its pace timer");
        s.on_timer(ev.kind, ev.generation, &mut sched, &mut out);
    }
    (s, sched, out)
}

fn assert_absorb_matches_eager(variant: TcpVariant, paced: bool) {
    for k in [1u64, 2, 7, 40] {
        let (mut eager, mut eager_sched, mut eager_out) = window_full(variant);
        let (mut batch, batch_sched, batch_out) = window_full(variant);
        assert_eq!(eager.pacing_rate().is_some(), paced, "{variant:?}");
        let sent = eager_out.len();
        let pending = eager_sched.pending();
        for _ in 0..k {
            eager.on_app_packets(1, &mut eager_sched, &mut eager_out);
        }
        batch.absorb_app_packets(k);
        assert_eq!(eager.counters(), batch.counters(), "{variant:?} k={k}");
        assert_eq!(eager.backlog(), batch.backlog(), "{variant:?} k={k}");
        assert_eq!(
            eager_out.len(),
            sent,
            "{variant:?}: a full window sent a segment"
        );
        assert_eq!(batch_out.len(), sent);
        assert_eq!(
            eager_sched.pending(),
            pending,
            "{variant:?}: a full window armed a timer"
        );
        assert_eq!(batch_sched.pending(), pending);
        assert_eq!(eager.pace_deferrals(), batch.pace_deferrals());
        assert!(eager.window_full() && batch.window_full());
    }
}

#[test]
fn absorbing_equals_eager_submission_for_reno() {
    assert_absorb_matches_eager(TcpVariant::Reno, false);
}

#[test]
fn absorbing_equals_eager_submission_for_paced_bbr() {
    assert_absorb_matches_eager(TcpVariant::Bbr, true);
}

#[test]
fn window_is_open_until_the_flight_fills_it() {
    let (mut s, mut sched, mut out) = sender(TcpVariant::Reno);
    assert!(!s.window_full(), "an idle sender has room");
    s.on_app_packets(1, &mut sched, &mut out);
    // Initial cwnd is one segment: the first packet fills it.
    assert!(s.window_full());
    assert_eq!(s.backlog(), 0);
}
