//! Transmission: the application send buffer, the usable window, paced
//! and windowed sending, and segment (re)transmission.

use tcpburst_des::{Scheduler, SimDuration, SimTime};
use tcpburst_net::{Ecn, Packet, PacketKind, SeqNo};

use crate::event::{TimerKind, TransportEvent};
use crate::sender::TcpSender;

impl TcpSender {
    /// The application submits `count` more segments to the (unbounded) send
    /// buffer; anything the window permits goes out immediately.
    pub fn on_app_packets<E: From<TransportEvent>>(
        &mut self,
        count: u64,
        sched: &mut Scheduler<E>,
        out: &mut Vec<Packet>,
    ) {
        self.app_limit = SeqNo(self.app_limit.0 + count);
        self.counters.app_packets_submitted += count;
        self.send_pending(sched, out);
        self.counters.peak_backlog = self.counters.peak_backlog.max(self.backlog());
    }

    /// True while the flight fills the usable window, so a new application
    /// packet can only join the backlog. Only the sender's own events (an
    /// ACK, an RTO or pace firing) change this.
    pub fn window_full(&self) -> bool {
        self.in_flight() >= self.usable_window()
    }

    /// The application submits `count` more segments while the window is
    /// full: exactly what [`on_app_packets`](TcpSender::on_app_packets)
    /// does then, without the send attempt that could not send anything.
    pub fn absorb_app_packets(&mut self, count: u64) {
        debug_assert!(self.window_full(), "absorbing arrivals at an open window");
        self.app_limit = SeqNo(self.app_limit.0 + count);
        self.counters.app_packets_submitted += count;
        self.counters.peak_backlog = self.counters.peak_backlog.max(self.backlog());
    }

    /// The usable window: `min(⌊cwnd⌋, advertised)`.
    fn usable_window(&self) -> u64 {
        (self.cwnd.floor() as u64).min(u64::from(self.cfg.advertised_window))
    }

    /// Releases everything the window (and, for a pacing policy, the
    /// clock) permits.
    ///
    /// With no pacing rate this is exactly the pre-pacing engine's loop —
    /// back-to-back transmission, no timer, no extra state touched — so
    /// window-based policies stay byte-identical. With a rate, segments
    /// are spaced `1/rate` apart; when the next send lands in the future
    /// the remainder of the flight waits on the [`TimerKind::Pace`] timer.
    pub(super) fn send_pending<E: From<TransportEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        out: &mut Vec<Packet>,
    ) {
        let now = sched.now();
        let mut sent_any = false;
        match self.pacing_rate() {
            Some(rate) if rate > 0.0 => {
                let spacing = SimDuration::from_secs_f64(1.0 / rate);
                while self.in_flight() < self.usable_window() && self.snd_nxt < self.app_limit {
                    if now < self.next_send_time {
                        self.pace_deferrals += 1;
                        let flow = self.flow;
                        let deadline = self.next_send_time;
                        self.pace_timer.schedule(sched, deadline, |generation| {
                            TransportEvent {
                                flow,
                                kind: TimerKind::Pace,
                                generation,
                            }
                            .into()
                        });
                        break;
                    }
                    let seq = self.snd_nxt;
                    self.transmit(seq, now, out);
                    self.snd_nxt = seq.next();
                    // Credit accumulated while idle is forfeited: the next
                    // slot opens one spacing after *now*, not after the
                    // stale next_send_time.
                    self.next_send_time = self.next_send_time.max(now) + spacing;
                    sent_any = true;
                }
            }
            _ => {
                while self.in_flight() < self.usable_window() && self.snd_nxt < self.app_limit {
                    let seq = self.snd_nxt;
                    self.transmit(seq, now, out);
                    self.snd_nxt = seq.next();
                    sent_any = true;
                }
            }
        }
        if sent_any && !self.rto_timer.is_armed() {
            self.arm_rto(sched);
        }
    }

    pub(super) fn transmit(&mut self, seq: SeqNo, now: SimTime, out: &mut Vec<Packet>) {
        let idx = (seq.0 - self.snd_una.0) as usize;
        let retransmit = if idx < self.window.len() {
            self.window.mark_retransmitted(idx, now);
            true
        } else {
            debug_assert_eq!(idx, self.window.len(), "non-contiguous transmission");
            // Delivery-rate stamp (BBR-style): snapshot the connection's
            // delivered state at departure. The flight is app-limited when
            // this transmission drains the backlog — the sample will then
            // measure the application, not the path.
            let app_limited = seq.next() >= self.app_limit;
            self.window
                .push(now, self.delivered, self.delivered_time, app_limited);
            false
        };
        if retransmit {
            self.counters.retransmits += 1;
        }
        self.counters.data_packets_sent += 1;
        out.push(Packet {
            flow: self.flow,
            kind: PacketKind::TcpData { seq, retransmit },
            size_bytes: self.cfg.mss_bytes,
            src: self.local,
            dst: self.remote,
            created_at: now,
            ecn: if self.cfg.ecn {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            },
        });
    }
}
