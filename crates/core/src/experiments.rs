//! One generator per table and figure of the paper's evaluation.
//!
//! Figures 2, 3, 4 and 13 are different projections of the *same* sweep
//! (protocol × number-of-clients), so the heavy lifting is done once by
//! [`SweepSupervisor`](crate::SweepSupervisor) and each figure renders its
//! own column of the [`Sweep`] it returns:
//!
//! | Paper item | Generator |
//! |------------|-----------|
//! | Table 1    | [`table1`] |
//! | Figure 1   | [`topology_ascii`] |
//! | Figure 2   | [`Sweep::fig2_cov_table`] |
//! | Figure 3   | [`Sweep::fig3_throughput_table`] |
//! | Figure 4   | [`Sweep::fig4_loss_table`] |
//! | Figures 5–12 | [`cwnd_evolution`] |
//! | Figure 13  | [`Sweep::fig13_timeout_ratio_table`] |

use std::fmt::Write as _;

use tcpburst_des::{SimDuration, SimTime};
use tcpburst_stats::TimeSeries;

use crate::config::{PaperParams, Protocol, ScenarioConfig};
use crate::plot::{render_line_chart, ChartOptions, Series};
use crate::report::ScenarioReport;
use crate::scenario::Scenario;

/// One completed run within a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Protocol configuration of this run.
    pub protocol: Protocol,
    /// Number of clients of this run.
    pub clients: usize,
    /// The run's results.
    pub report: ScenarioReport,
}

/// A protocol × client-count grid of scenario runs — the shared substrate of
/// Figures 2, 3, 4 and 13. A sweep is a view: the grid runs on
/// [`SweepSupervisor`](crate::SweepSupervisor), whose outcome carries one.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// All runs, in (protocol-major, clients, then seed) order.
    pub cells: Vec<SweepCell>,
    protocols: Vec<Protocol>,
    clients: Vec<usize>,
    /// Seeds each grid point was run with; the figure tables show each
    /// point's first completed seed.
    pub(crate) replications: usize,
}

impl Sweep {
    /// Assembles a one-seed sweep from already-computed cells (typically
    /// from the supervisor, where failed grid points leave holes). Cells
    /// must be in canonical (protocol-major, clients-minor) order; missing
    /// points render as `-` in every figure table.
    pub fn from_cells(
        cells: Vec<SweepCell>,
        protocols: Vec<Protocol>,
        clients: Vec<usize>,
    ) -> Self {
        Sweep {
            cells,
            protocols,
            clients,
            replications: 1,
        }
    }

    /// The protocols on this sweep's axis.
    pub fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// The client counts on this sweep's axis.
    pub fn client_counts(&self) -> &[usize] {
        &self.clients
    }

    /// The report for one grid point, if it was run.
    pub fn report(&self, protocol: Protocol, clients: usize) -> Option<&ScenarioReport> {
        self.cells
            .iter()
            .find(|c| c.protocol == protocol && c.clients == clients)
            .map(|c| &c.report)
    }

    fn render<F: Fn(&ScenarioReport) -> f64>(
        &self,
        title: &str,
        value_header: &str,
        include_poisson_reference: bool,
        value: F,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {title}");
        let _ = write!(out, "{:>8}", "clients");
        if include_poisson_reference {
            let _ = write!(out, " {:>12}", "Poisson");
        }
        for p in &self.protocols {
            let _ = write!(out, " {:>13}", p.label());
        }
        let _ = writeln!(out, "   ({value_header})");
        for &n in &self.clients {
            let _ = write!(out, "{n:>8}");
            if include_poisson_reference {
                if let Some(r) = self.cells.iter().find(|c| c.clients == n) {
                    let _ = write!(out, " {:>12.4}", r.report.poisson_cov);
                }
            }
            for &p in &self.protocols {
                match self.report(p, n) {
                    Some(r) => {
                        let _ = write!(out, " {:>13.4}", value(r));
                    }
                    None => {
                        let _ = write!(out, " {:>13}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Figure 2: c.o.v. of aggregated traffic at the gateway vs number of
    /// clients, with the analytic Poisson reference column.
    pub fn fig2_cov_table(&self) -> String {
        self.render(
            "Figure 2: coefficient of variation of the aggregated traffic",
            "c.o.v. per round-trip propagation delay",
            true,
            |r| r.cov,
        )
    }

    /// Figure 3: total packets successfully transmitted vs number of
    /// clients.
    pub fn fig3_throughput_table(&self) -> String {
        self.render(
            "Figure 3: throughput of the aggregated traffic",
            "packets delivered to the server application",
            false,
            |r| r.delivered_packets as f64,
        )
    }

    /// Figure 4: packet-loss percentage at the gateway vs number of clients.
    pub fn fig4_loss_table(&self) -> String {
        self.render(
            "Figure 4: packet loss percentage of the aggregated traffic",
            "% of packets offered to the bottleneck queue that were dropped",
            false,
            |r| r.loss_percent,
        )
    }

    /// Figure 13: ratio of timeouts to duplicate-ACK (fast) retransmissions.
    pub fn fig13_timeout_ratio_table(&self) -> String {
        self.render(
            "Figure 13: ratio of timeouts to duplicate-ACK retransmissions",
            "timeouts / fast retransmits",
            false,
            |r| r.timeout_dupack_ratio(),
        )
    }

    fn svg<F: Fn(&ScenarioReport) -> f64>(
        &self,
        title: &str,
        y_label: &str,
        log_y: bool,
        include_poisson: bool,
        value: F,
    ) -> String {
        let mut series = Vec::new();
        if include_poisson {
            let pts: Vec<(f64, f64)> = self
                .clients
                .iter()
                .filter_map(|&n| {
                    self.cells
                        .iter()
                        .find(|c| c.clients == n)
                        .map(|c| (n as f64, c.report.poisson_cov))
                })
                .collect();
            series.push(Series::new("Poisson", pts));
        }
        for &p in &self.protocols {
            let pts: Vec<(f64, f64)> = self
                .clients
                .iter()
                .filter_map(|&n| self.report(p, n).map(|r| (n as f64, value(r))))
                .collect();
            series.push(Series::new(p.label(), pts));
        }
        render_line_chart(
            &series,
            &ChartOptions {
                title: title.to_string(),
                x_label: "number of clients".to_string(),
                y_label: y_label.to_string(),
                log_y,
                ..ChartOptions::default()
            },
        )
    }

    /// Figures 2, 3, 4 and 13, in that order: what `tcpburst sweep` prints.
    pub fn tables(&self) -> [String; 4] {
        [
            self.fig2_cov_table(),
            self.fig3_throughput_table(),
            self.fig4_loss_table(),
            self.fig13_timeout_ratio_table(),
        ]
    }

    /// Figure 2 as an SVG line chart.
    pub fn fig2_cov_svg(&self) -> String {
        self.svg(
            "Figure 2: c.o.v. of the aggregated TCP traffic",
            "coefficient of variation",
            false,
            true,
            |r| r.cov,
        )
    }

    /// Figure 3 as an SVG line chart.
    pub fn fig3_throughput_svg(&self) -> String {
        self.svg(
            "Figure 3: throughput of the aggregated TCP traffic",
            "packets successfully transmitted",
            false,
            false,
            |r| r.delivered_packets as f64,
        )
    }

    /// Figure 4 as an SVG line chart.
    pub fn fig4_loss_svg(&self) -> String {
        self.svg(
            "Figure 4: packet loss percentage",
            "packet loss (%)",
            false,
            false,
            |r| r.loss_percent,
        )
    }

    /// Figure 13 as an SVG line chart (log y, like the paper).
    pub fn fig13_timeout_ratio_svg(&self) -> String {
        self.svg(
            "Figure 13: ratio of timeouts to duplicate ACKs",
            "timeouts / fast retransmits",
            true,
            false,
            |r| r.timeout_dupack_ratio().max(1e-3), // log axis floor
        )
    }

    /// All four figures as CSV (`figure,protocol,clients,value`) for
    /// external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,protocol,clients,value\n");
        for c in &self.cells {
            let _ = writeln!(out, "fig2_cov,Poisson,{},{}", c.clients, c.report.poisson_cov);
            let _ = writeln!(
                out,
                "fig2_cov,{},{},{}",
                c.protocol.label(),
                c.clients,
                c.report.cov
            );
            let _ = writeln!(
                out,
                "fig3_throughput,{},{},{}",
                c.protocol.label(),
                c.clients,
                c.report.delivered_packets
            );
            let _ = writeln!(
                out,
                "fig4_loss,{},{},{}",
                c.protocol.label(),
                c.clients,
                c.report.loss_percent
            );
            let _ = writeln!(
                out,
                "fig13_ratio,{},{},{}",
                c.protocol.label(),
                c.clients,
                c.report.timeout_dupack_ratio()
            );
        }
        out
    }
}

/// A generalized-AIMD exponent sweep: the paper's burstiness probe
/// (Figure 2's c.o.v.) replayed across the Ott–Swanson `alpha` axis at a
/// fixed `beta`, to show how softening the additive increase smooths the
/// aggregated traffic. `alpha = 0` with `beta = 1` is exactly Reno, so the
/// first column of the default sweep doubles as a regression anchor.
///
/// A view: the points run as a grid of configurations on
/// [`SweepSupervisor::from_configs`](crate::SweepSupervisor::from_configs).
#[derive(Debug, Clone)]
pub struct GaimdAlphaSweep {
    /// `(alpha, report)` per grid point, in `alphas` order.
    pub cells: Vec<(f64, ScenarioReport)>,
    /// The fixed multiplicative-decrease exponent.
    pub beta: f64,
    /// Client count shared by every point.
    pub clients: usize,
}

impl GaimdAlphaSweep {
    /// The c.o.v.-vs-`alpha` table, one row per exponent, with the Poisson
    /// reference and the loss/timeout columns that explain *why* the
    /// burstiness moves.
    pub fn cov_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# GAIMD burstiness vs additive-increase exponent (beta = {}, {} clients)",
            self.beta, self.clients
        );
        let _ = writeln!(
            out,
            "{:>8} {:>13} {:>13} {:>13} {:>13} {:>13}",
            "alpha", "c.o.v.", "Poisson", "ratio", "loss %", "timeout ratio"
        );
        for (alpha, r) in &self.cells {
            let _ = writeln!(
                out,
                "{:>8.3} {:>13.4} {:>13.4} {:>13.2} {:>13.2} {:>13.4}",
                alpha,
                r.cov,
                r.poisson_cov,
                r.cov_ratio(),
                r.loss_percent,
                r.timeout_dupack_ratio()
            );
        }
        out
    }
}

/// One client's congestion-window trajectory from a
/// [`cwnd_evolution`] run.
#[derive(Debug, Clone)]
pub struct CwndTrace {
    /// Client index (0-based; the paper labels clients from 1).
    pub client: usize,
    /// The raw event-driven `(time, cwnd)` trace.
    pub trace: TimeSeries,
}

/// The data behind one of the paper's Figures 5–12.
#[derive(Debug, Clone)]
pub struct CwndFigure {
    /// Protocol configuration used.
    pub protocol: Protocol,
    /// Total number of clients in the run.
    pub num_clients: usize,
    /// Traces of the selected clients.
    pub traces: Vec<CwndTrace>,
    /// Run length.
    pub duration: SimDuration,
}

impl CwndFigure {
    /// Renders the traces sampled on the paper's 0.1 s grid as aligned
    /// columns (`t`, then one cwnd column per traced client).
    pub fn table(&self) -> String {
        let step = SimDuration::from_millis(100);
        let end = SimTime::ZERO + self.duration;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} congestion-window evolution, {} clients (time unit = 0.1 s)",
            self.protocol.label(),
            self.num_clients
        );
        let _ = write!(out, "{:>8}", "t");
        for t in &self.traces {
            let _ = write!(out, " {:>10}", format!("client{}", t.client + 1));
        }
        let _ = writeln!(out);
        let sampled: Vec<Vec<f64>> = self
            .traces
            .iter()
            .map(|t| t.trace.sample_hold(step, end))
            .collect();
        let n = sampled.first().map_or(0, Vec::len);
        for i in 0..n {
            let _ = write!(out, "{i:>8}");
            for s in &sampled {
                let _ = write!(out, " {:>10.2}", s[i]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl CwndFigure {
    /// The figure as an SVG line chart (cwnd vs the paper's 0.1 s units).
    pub fn svg(&self) -> String {
        let step = SimDuration::from_millis(100);
        let end = SimTime::ZERO + self.duration;
        let series: Vec<Series> = self
            .traces
            .iter()
            .map(|t| {
                let pts = t
                    .trace
                    .sample_hold(step, end)
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| (i as f64, w))
                    .collect();
                Series::new(format!("client {}", t.client + 1), pts)
            })
            .collect();
        render_line_chart(
            &series,
            &ChartOptions {
                title: format!(
                    "{} congestion window, {} clients",
                    self.protocol.label(),
                    self.num_clients
                ),
                x_label: "time (x 0.1 seconds)".to_string(),
                y_label: "congestion window (packets)".to_string(),
                log_y: false,
                ..ChartOptions::default()
            },
        )
    }
}

/// When (in the paper's 0.1 s time units) a congestion-window trace
/// *stabilizes*: the instant of its last downward move, after which the
/// window only holds or grows for the rest of the run. Returns `None` when
/// the trace keeps cutting into the final 5% of the run — the paper's
/// "never stabilizes" verdict for ≥39 clients (Figure 8) — and `Some(0)`
/// for a trace that never cut at all.
///
/// # Panics
///
/// Panics if `duration` is zero.
pub fn stabilization_time_units(trace: &TimeSeries, duration: SimDuration) -> Option<u64> {
    assert!(!duration.is_zero(), "duration must be positive");
    let step = SimDuration::from_millis(100);
    let samples = trace.sample_hold(step, SimTime::ZERO + duration);
    let last_cut = samples
        .windows(2)
        .rposition(|w| w[1] < w[0])
        .map(|i| i as u64 + 1);
    match last_cut {
        None => Some(0),
        Some(t) if t as usize >= samples.len().saturating_sub(samples.len() / 20) => None,
        Some(t) => Some(t),
    }
}

/// Runs one cwnd-evolution experiment (Figures 5–9 use Reno with 20, 30,
/// 38, 39 and 60 clients; Figures 10–12 use Vegas with 20, 30 and 60).
///
/// `traced_clients` selects which client indices to report (the paper shows
/// clients 1, 10 and 20 for N = 20, etc.). Out-of-range indices are
/// ignored.
pub fn cwnd_evolution(
    protocol: Protocol,
    num_clients: usize,
    traced_clients: &[usize],
    duration: SimDuration,
    seed: u64,
) -> CwndFigure {
    let base = crate::builder::ScenarioBuilder::paper()
        .instrumentation(|i| i.duration(duration).seed(seed))
        .finish();
    cwnd_evolution_from(&base, protocol, num_clients, traced_clients)
}

/// Like [`cwnd_evolution`], but inheriting every non-axis knob (duration,
/// seed, workload, impairments, …) from `base`.
pub fn cwnd_evolution_from(
    base: &ScenarioConfig,
    protocol: Protocol,
    num_clients: usize,
    traced_clients: &[usize],
) -> CwndFigure {
    let mut cfg = *base;
    cfg.num_clients = num_clients;
    cfg.apply_protocol(protocol);
    cfg.trace_cwnd = true;
    let duration = cfg.duration;
    let report = Scenario::run(&cfg);
    let traces = traced_clients
        .iter()
        .filter(|&&c| c < num_clients)
        .map(|&c| CwndTrace {
            client: c,
            trace: report.flows[c]
                .cwnd_trace
                .clone()
                .expect("tracing was enabled"),
        })
        .collect();
    CwndFigure {
        protocol,
        num_clients,
        traces,
        duration,
    }
}

/// The paper's client selections for the cwnd figures: representative low,
/// middle and high client indices (the paper shows clients 1, 10, 20 of 20,
/// and clients 1, 30, 60 of 60).
pub fn paper_traced_clients(num_clients: usize) -> Vec<usize> {
    match num_clients {
        0 => Vec::new(),
        1 => vec![0],
        2 => vec![0, 1],
        n => vec![0, n / 2 - 1, n - 1],
    }
}

/// Renders the reconstructed Table 1.
pub fn table1() -> String {
    let p = PaperParams::default();
    let mut out = String::new();
    let _ = writeln!(out, "# Table 1: simulation parameters (reconstructed)");
    let rows: Vec<(String, String)> = vec![
        (
            "client link bandwidth (mu_c)".into(),
            format!("{} Mbps", p.client_bandwidth_bps / 1_000_000),
        ),
        (
            "client link delay (tau_c)".into(),
            format!("{} ms", p.client_delay.as_secs_f64() * 1e3),
        ),
        (
            "bottleneck link bandwidth (mu_s)".into(),
            format!("{} Mbps", p.bottleneck_bandwidth_bps / 1_000_000),
        ),
        (
            "bottleneck link delay (tau_s)".into(),
            format!("{} ms", p.bottleneck_delay.as_secs_f64() * 1e3),
        ),
        (
            "TCP max advertised window".into(),
            format!("{} packets", p.advertised_window),
        ),
        (
            "gateway buffer size (B)".into(),
            format!("{} packets", p.gateway_buffer_pkts),
        ),
        ("packet size".into(), format!("{} bytes", p.packet_bytes)),
        (
            "average packet intergeneration time (1/lambda)".into(),
            format!("{} s", p.mean_intergeneration_secs),
        ),
        ("total test time".into(), format!("{} s", p.total_test_secs)),
        (
            "RED (min_th, max_th)".into(),
            format!("({}, {}) packets", p.red_min_th, p.red_max_th),
        ),
        (
            "TCP Vegas (alpha, beta, gamma)".into(),
            "(1, 3, 1)".into(),
        ),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "{k:<48} {v}");
    }
    out
}

/// An ASCII rendition of Figure 1's network model.
pub fn topology_ascii() -> String {
    let p = PaperParams::default();
    format!(
        r#"# Figure 1: network model
  client 1  --\
  client 2  ---\   {}Mbps/{}ms          {}Mbps/{}ms
     ...        >-- [gateway B={}] ==============> [server]
  client M  ---/
"#,
        p.client_bandwidth_bps / 1_000_000,
        (p.client_delay.as_secs_f64() * 1e3) as u64,
        p.bottleneck_bandwidth_bps / 1_000_000,
        (p.bottleneck_delay.as_secs_f64() * 1e3) as u64,
        p.gateway_buffer_pkts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Sweep {
        let base = crate::ScenarioBuilder::paper()
            .instrumentation(|i| i.secs(5).seed(7))
            .finish();
        crate::SweepSupervisor::new(&base, &[Protocol::Udp, Protocol::Reno], &[5, 10])
            .run()
            .sweep
    }

    #[test]
    fn sweep_covers_the_grid() {
        let s = tiny_sweep();
        assert_eq!(s.cells.len(), 4);
        assert!(s.report(Protocol::Udp, 5).is_some());
        assert!(s.report(Protocol::Reno, 10).is_some());
        assert!(s.report(Protocol::Vegas, 5).is_none());
    }

    #[test]
    fn figure_tables_contain_headers_and_rows() {
        let s = tiny_sweep();
        let fig2 = s.fig2_cov_table();
        assert!(fig2.contains("Figure 2"));
        assert!(fig2.contains("Poisson"));
        assert!(fig2.contains("Reno"));
        let fig3 = s.fig3_throughput_table();
        assert!(fig3.contains("Figure 3"));
        let fig4 = s.fig4_loss_table();
        assert!(fig4.contains("Figure 4"));
        let fig13 = s.fig13_timeout_ratio_table();
        assert!(fig13.contains("Figure 13"));
        // Two data rows each (5 and 10 clients).
        assert!(fig2.lines().filter(|l| l.starts_with("  ")).count() >= 2);
    }

    #[test]
    fn figure_svgs_render_every_series() {
        let s = tiny_sweep();
        let fig2 = s.fig2_cov_svg();
        assert!(fig2.starts_with("<svg"));
        assert!(fig2.contains(">Poisson</text>"));
        assert!(fig2.contains(">UDP</text>"));
        assert!(fig2.contains(">Reno</text>"));
        // One polyline per series: Poisson + 2 protocols.
        assert_eq!(fig2.matches("<path").count(), 3);
        let fig3 = s.fig3_throughput_svg();
        assert!(!fig3.contains(">Poisson</text>"), "fig3 has no reference curve");
        // Log-scale fig13 must render even when ratios are zero (floored).
        let fig13 = s.fig13_timeout_ratio_svg();
        assert!(fig13.contains("</svg>"));
    }

    #[test]
    fn cwnd_figure_svg_renders() {
        let fig = cwnd_evolution(
            Protocol::Reno,
            3,
            &paper_traced_clients(3),
            SimDuration::from_secs(2),
            1,
        );
        let svg = fig.svg();
        assert!(svg.contains("client 1"));
        assert!(svg.contains("client 3"));
        assert!(svg.contains("Reno congestion window"));
    }

    #[test]
    fn csv_has_all_figures() {
        let s = tiny_sweep();
        let csv = s.to_csv();
        for tag in ["fig2_cov", "fig3_throughput", "fig4_loss", "fig13_ratio"] {
            assert!(csv.contains(tag), "missing {tag}");
        }
        assert!(csv.lines().count() > 8);
    }

    #[test]
    fn cwnd_evolution_produces_sampled_tables() {
        let fig = cwnd_evolution(
            Protocol::Reno,
            4,
            &paper_traced_clients(4),
            SimDuration::from_secs(3),
            1,
        );
        assert_eq!(fig.traces.len(), 3);
        let table = fig.table();
        assert!(table.contains("client1"));
        assert!(table.contains("client4"));
        // 3 s at 0.1 s steps = 30 sample rows plus headers.
        assert!(table.lines().count() >= 30);
    }

    #[test]
    fn stabilization_detects_last_cut() {
        use tcpburst_des::SimTime;
        let dur = SimDuration::from_secs(10); // 100 samples
        // Cuts at 1.0 s and 3.0 s, then monotone growth: stabilizes at ~30.
        let mut ts = tcpburst_stats::TimeSeries::new();
        ts.record(SimTime::ZERO, 4.0);
        ts.record(SimTime::from_millis(1000), 2.0);
        ts.record(SimTime::from_millis(2000), 5.0);
        ts.record(SimTime::from_millis(3000), 1.0);
        ts.record(SimTime::from_millis(4000), 6.0);
        assert_eq!(stabilization_time_units(&ts, dur), Some(30));

        // Never cuts: stable from the start.
        let mut flat = tcpburst_stats::TimeSeries::new();
        flat.record(SimTime::ZERO, 1.0);
        flat.record(SimTime::from_millis(500), 3.0);
        assert_eq!(stabilization_time_units(&flat, dur), Some(0));

        // Cuts right at the end: never stabilizes.
        let mut late = tcpburst_stats::TimeSeries::new();
        late.record(SimTime::ZERO, 4.0);
        late.record(SimTime::from_millis(9800), 1.0);
        assert_eq!(stabilization_time_units(&late, dur), None);
    }

    #[test]
    fn paper_traced_clients_are_in_range() {
        assert_eq!(paper_traced_clients(20), vec![0, 9, 19]);
        assert_eq!(paper_traced_clients(60), vec![0, 29, 59]);
        assert_eq!(paper_traced_clients(1), vec![0]);
        assert!(paper_traced_clients(0).is_empty());
    }

    #[test]
    fn table1_lists_reconstructed_parameters() {
        let t = table1();
        assert!(t.contains("100 Mbps"));
        assert!(t.contains("50 Mbps"));
        assert!(t.contains("50 packets"));
        assert!(t.contains("1500 bytes"));
        assert!(t.contains("0.01 s"));
        assert!(t.contains("(10, 40) packets"));
    }

    #[test]
    fn topology_sketch_mentions_all_roles() {
        let t = topology_ascii();
        assert!(t.contains("gateway"));
        assert!(t.contains("server"));
        assert!(t.contains("client"));
    }

    #[test]
    #[should_panic(expected = "at least one protocol")]
    fn empty_protocol_axis_panics() {
        crate::SweepSupervisor::new(&crate::ScenarioBuilder::paper().finish(), &[], &[5]);
    }
}
