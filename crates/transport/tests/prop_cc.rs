//! Property tests for the congestion-control policy layer.
//!
//! Three families:
//!
//! 1. **Floor invariants** — every [`CongestionControl`] implementation,
//!    driven through arbitrary hook sequences (including GAIMD with
//!    random in-range exponents), keeps `cwnd >= 1` segment and
//!    `ssthresh >= 2` segments.
//! 2. **Reno equivalence** — `GeneralizedAimd { alpha: 0, beta: 1 }`
//!    matches Reno *step for step*, bitwise, on the same hook sequence.
//! 3. **Hook exclusivity** — at the engine level, the congestion window
//!    changes only when a policy hook runs: application writes and pure
//!    passage of time leave it untouched.

use proptest::prelude::*;
use tcpburst_des::{Scheduler, SimTime};
use tcpburst_net::{FlowId, NodeId, SackBlocks, SeqNo};
use tcpburst_transport::{
    AckSample, CongestionControl, GaimdParams, LossContext, LossResponse, Policy, TcpConfig,
    TcpSender, TcpVariant, TransportEvent,
};

/// One policy hook invocation, with the engine-side state transition the
/// reliability engine would apply around it.
#[derive(Debug, Clone, Copy)]
enum Hook {
    /// A new ACK outside recovery (`grow_window`).
    Ack,
    /// Third duplicate ACK (`enter_loss_recovery`).
    Loss,
    /// Retransmission timeout.
    Rto,
    /// ECN echo.
    Ecn,
    /// Recovery exit deflation.
    PostRecovery,
}

fn hook_strategy() -> impl Strategy<Value = Hook> {
    prop_oneof![
        Just(Hook::Ack),
        Just(Hook::Loss),
        Just(Hook::Rto),
        Just(Hook::Ecn),
        Just(Hook::PostRecovery),
    ]
}

/// Mirrors the engine's state transitions around each hook, returning the
/// `(cwnd, ssthresh)` trajectory.
fn drive_policy(policy: &mut Policy, hooks: &[Hook], advertised: f64) -> Vec<(f64, f64)> {
    let mut cwnd = 1.0f64;
    let mut ssthresh = advertised;
    let mut trajectory = Vec::with_capacity(hooks.len());
    for &h in hooks {
        let flight = cwnd.min(advertised).max(1.0).floor();
        let loss = LossContext {
            now: SimTime::ZERO,
            flight,
            cwnd,
            ssthresh,
            resume_from: SeqNo(0),
            min_rtt: None,
        };
        match h {
            Hook::Ack => {
                let sample = AckSample {
                    now: SimTime::ZERO,
                    cwnd,
                    ssthresh,
                    in_slow_start: cwnd < ssthresh,
                    advertised,
                    newly_acked: 1,
                    flight,
                    rtt: None,
                    srtt: None,
                    min_rtt: None,
                    rate: None,
                };
                if let Some(w) = policy.on_ack(&sample) {
                    cwnd = w;
                }
            }
            Hook::Loss => match policy.on_loss_signal(&loss) {
                LossResponse::Collapse { ssthresh: s } => {
                    ssthresh = s;
                    cwnd = 1.0;
                }
                LossResponse::FastRecovery { ssthresh: s } => {
                    ssthresh = s;
                    cwnd = s + 3.0;
                }
            },
            Hook::Rto => {
                ssthresh = policy.on_rto(&loss);
                cwnd = 1.0;
            }
            Hook::Ecn => {
                ssthresh = policy.on_ecn_cwnd(&loss);
                cwnd = ssthresh;
            }
            Hook::PostRecovery => {
                cwnd = policy.post_recovery_cwnd(ssthresh);
            }
        }
        trajectory.push((cwnd, ssthresh));
    }
    trajectory
}

fn policy_for(variant: TcpVariant, gaimd: GaimdParams) -> Policy {
    let mut cfg = TcpConfig::paper(variant);
    cfg.gaimd = gaimd;
    Policy::for_config(&cfg)
}

fn variants() -> impl Strategy<Value = TcpVariant> {
    (0usize..TcpVariant::ALL.len()).prop_map(|i| TcpVariant::ALL[i])
}

fn gaimd_beta() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0f64), 0.001f64..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// cwnd never falls below 1 MSS and ssthresh never below 2 MSS, for
    /// every policy and any hook sequence.
    #[test]
    fn every_policy_keeps_window_floors(
        variant in variants(),
        alpha in 0.0f64..1.0,
        beta in gaimd_beta(),
        hooks in proptest::collection::vec(hook_strategy(), 1..100),
    ) {
        let mut policy = policy_for(variant, GaimdParams { alpha, beta });
        for (i, (cwnd, ssthresh)) in drive_policy(&mut policy, &hooks, 20.0).iter().enumerate() {
            prop_assert!(
                *cwnd >= 1.0,
                "{variant:?} cwnd {cwnd} fell below 1 at step {i} ({:?})", hooks[i]
            );
            prop_assert!(
                *ssthresh >= 2.0,
                "{variant:?} ssthresh {ssthresh} fell below 2 at step {i} ({:?})", hooks[i]
            );
        }
    }

    /// The default exponents collapse GAIMD to Reno bit-for-bit on any
    /// hook sequence: pow(x, 0) == 1 and pow(x, 1) == x exactly in
    /// IEEE-754, and x - x/2 == x/2 (Sterbenz).
    #[test]
    fn gaimd_default_exponents_equal_reno_stepwise(
        hooks in proptest::collection::vec(hook_strategy(), 1..200),
    ) {
        let mut reno = policy_for(TcpVariant::Reno, GaimdParams::default());
        let mut gaimd = policy_for(TcpVariant::Gaimd, GaimdParams::default());
        let reno_t = drive_policy(&mut reno, &hooks, 20.0);
        let gaimd_t = drive_policy(&mut gaimd, &hooks, 20.0);
        for (i, ((rc, rs), (gc, gs))) in reno_t.iter().zip(&gaimd_t).enumerate() {
            prop_assert_eq!(rc.to_bits(), gc.to_bits(), "cwnd diverged at step {}", i);
            prop_assert_eq!(rs.to_bits(), gs.to_bits(), "ssthresh diverged at step {}", i);
        }
    }

    /// The engine changes cwnd only inside policy hooks: submitting
    /// application data and letting time pass (without a timer firing)
    /// never move the window.
    #[test]
    fn cwnd_changes_only_at_policy_hooks(
        variant in variants(),
        codes in proptest::collection::vec(0u64..12_000, 1..50),
    ) {
        let cfg = TcpConfig::paper(variant);
        let mut s = TcpSender::new(cfg, FlowId(0), NodeId(0), NodeId(1));
        let mut sched: Scheduler<TransportEvent> = Scheduler::new();
        let mut out = Vec::new();
        // Open the window a little so sends actually happen.
        s.on_app_packets(2, &mut sched, &mut out);
        s.on_ack(SeqNo(1), false, SackBlocks::EMPTY, &mut sched, &mut out);
        for &code in &codes {
            let (n, ms) = (1 + code % 30, 1 + code / 30);
            let cwnd_before = s.cwnd();
            s.on_app_packets(n, &mut sched, &mut out);
            prop_assert_eq!(
                s.cwnd().to_bits(), cwnd_before.to_bits(),
                "app write moved cwnd for {:?}", variant
            );
            // Advance the clock without delivering the popped timer events.
            let target = sched.now() + tcpburst_des::SimDuration::from_millis(ms);
            while sched.pop_until(target).is_some() {}
            prop_assert_eq!(
                s.cwnd().to_bits(), cwnd_before.to_bits(),
                "time passing moved cwnd for {:?}", variant
            );
        }
    }
}
