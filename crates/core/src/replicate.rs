//! Multi-seed replication: mean ± 95% confidence half-width for every
//! figure metric, folded over a sweep with a seed axis.
//!
//! The paper reports single runs (standard for 2000-era simulation
//! studies); replication quantifies how much of each curve is signal. The
//! grid runs on [`SweepSupervisor`](crate::SweepSupervisor) with a seed
//! axis ([`SweepSupervisor::seeds`](crate::SweepSupervisor::seeds)), and
//! [`ReplicatedSweep::from_sweep`] folds its outcome. It powers the error
//! bars in EXPERIMENTS.md.

use std::fmt::Write as _;

use tcpburst_stats::RunningStats;

use crate::config::Protocol;
use crate::experiments::Sweep;
use crate::report::ScenarioReport;

/// Aggregated metrics of one (protocol, clients) grid point across seeds.
#[derive(Debug, Clone)]
pub struct ReplicatedCell {
    /// Protocol configuration of this cell.
    pub protocol: Protocol,
    /// Number of clients of this cell.
    pub clients: usize,
    /// c.o.v. across seeds (Figure 2).
    pub cov: RunningStats,
    /// Analytic Poisson reference (seed-independent).
    pub poisson_cov: f64,
    /// Delivered packets across seeds (Figure 3).
    pub delivered: RunningStats,
    /// Loss percentage across seeds (Figure 4).
    pub loss_percent: RunningStats,
    /// Timeout/fast-retransmit ratio across seeds (Figure 13).
    pub timeout_ratio: RunningStats,
}

/// A protocol × clients grid where every point is replicated across seeds.
#[derive(Debug, Clone)]
pub struct ReplicatedSweep {
    /// All grid points.
    pub cells: Vec<ReplicatedCell>,
    protocols: Vec<Protocol>,
    clients: Vec<usize>,
    replications: usize,
}

impl ReplicatedSweep {
    /// Folds a sweep run with a seed axis into one cell per
    /// (protocol, clients) point. Each point's reports are pushed into
    /// [`RunningStats`] in canonical seed order, the order the sweep's
    /// cells hold them in at any job or worker count, so every mean and CI
    /// digit is bit-identical however the grid ran. A point missing any
    /// seed (a failed or skipped run) gets no cell and renders as `-`.
    pub fn from_sweep(sweep: &Sweep) -> Self {
        let replications = sweep.replications;
        let mut cells = Vec::new();
        let mut rest = sweep.cells.as_slice();
        for &protocol in sweep.protocols() {
            for &clients in sweep.client_counts() {
                let n = rest
                    .iter()
                    .take(replications)
                    .take_while(|c| c.protocol == protocol && c.clients == clients)
                    .count();
                let (runs, tail) = rest.split_at(n);
                rest = tail;
                let Some(last) = runs.last().filter(|_| n == replications) else {
                    continue;
                };
                let stats = |metric: fn(&ScenarioReport) -> f64| {
                    let mut stats = RunningStats::new();
                    runs.iter().for_each(|c| stats.push(metric(&c.report)));
                    stats
                };
                cells.push(ReplicatedCell {
                    protocol,
                    clients,
                    cov: stats(|r| r.cov),
                    poisson_cov: last.report.poisson_cov,
                    delivered: stats(|r| r.delivered_packets as f64),
                    loss_percent: stats(|r| r.loss_percent),
                    timeout_ratio: stats(ScenarioReport::timeout_dupack_ratio),
                });
            }
        }
        ReplicatedSweep {
            cells,
            protocols: sweep.protocols().to_vec(),
            clients: sweep.client_counts().to_vec(),
            replications,
        }
    }

    /// Number of seeds each point was run with.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The cell for one grid point, if present.
    pub fn cell(&self, protocol: Protocol, clients: usize) -> Option<&ReplicatedCell> {
        self.cells
            .iter()
            .find(|c| c.protocol == protocol && c.clients == clients)
    }

    /// Renders a `mean ±ci95` table of `metric` for every grid point.
    pub fn table<F: Fn(&ReplicatedCell) -> &RunningStats>(
        &self,
        title: &str,
        metric: F,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {title}  ({} replications, mean ±95% CI)",
            self.replications
        );
        let _ = write!(out, "{:>8}", "clients");
        for p in &self.protocols {
            let _ = write!(out, " {:>22}", p.label());
        }
        let _ = writeln!(out);
        for &n in &self.clients {
            let _ = write!(out, "{n:>8}");
            for &p in &self.protocols {
                match self.cell(p, n) {
                    Some(c) => {
                        let s = metric(c);
                        let _ = write!(
                            out,
                            " {:>13.4} ±{:>7.4}",
                            s.mean(),
                            s.ci95_half_width()
                        );
                    }
                    None => {
                        let _ = write!(out, " {:>22}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Figure 2 with error bars.
    pub fn fig2_cov_table(&self) -> String {
        self.table(
            "Figure 2 (replicated): c.o.v. of the aggregated traffic",
            |c| &c.cov,
        )
    }

    /// Figure 3 with error bars.
    pub fn fig3_throughput_table(&self) -> String {
        self.table(
            "Figure 3 (replicated): packets successfully transmitted",
            |c| &c.delivered,
        )
    }

    /// Figure 4 with error bars.
    pub fn fig4_loss_table(&self) -> String {
        self.table(
            "Figure 4 (replicated): packet loss percentage",
            |c| &c.loss_percent,
        )
    }

    /// Figure 13 with error bars.
    pub fn fig13_ratio_table(&self) -> String {
        self.table(
            "Figure 13 (replicated): timeout / duplicate-ACK retransmission ratio",
            |c| &c.timeout_ratio,
        )
    }

    /// Figures 2, 3, 4 and 13 with error bars, in that order: what
    /// `tcpburst replicate` prints.
    pub fn tables(&self) -> [String; 4] {
        [
            self.fig2_cov_table(),
            self.fig3_throughput_table(),
            self.fig4_loss_table(),
            self.fig13_ratio_table(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioBuilder, SweepSupervisor};

    fn tiny_sweep() -> Sweep {
        let base = ScenarioBuilder::paper()
            .instrumentation(|i| i.secs(3))
            .finish();
        SweepSupervisor::new(&base, &[Protocol::Udp, Protocol::Reno], &[5])
            .seeds(&[1, 2, 3])
            .run()
            .sweep
    }

    fn tiny() -> ReplicatedSweep {
        ReplicatedSweep::from_sweep(&tiny_sweep())
    }

    #[test]
    fn replications_fill_every_cell() {
        let s = tiny();
        assert_eq!(s.replications(), 3);
        assert_eq!(s.cells.len(), 2);
        for c in &s.cells {
            assert_eq!(c.cov.count(), 3);
            assert_eq!(c.delivered.count(), 3);
        }
    }

    #[test]
    fn seeds_actually_vary_the_outcome() {
        let s = tiny();
        let udp = s.cell(Protocol::Udp, 5).unwrap();
        // Three different seeds: the sample variance cannot be exactly 0.
        assert!(udp.delivered.sample_variance() > 0.0);
    }

    #[test]
    fn tables_render_mean_and_ci() {
        let s = tiny();
        let t = s.fig2_cov_table();
        assert!(t.contains("replications"));
        assert!(t.contains('±'));
        assert!(s.fig3_throughput_table().contains("Figure 3"));
        assert!(s.fig4_loss_table().contains("Figure 4"));
        assert!(s.fig13_ratio_table().contains("Figure 13"));
    }

    #[test]
    fn a_point_missing_a_seed_renders_a_dash() {
        let mut sweep = tiny_sweep();
        // UDP's second seed failed: its cell goes, Reno's stays whole.
        sweep.cells.remove(1);
        let s = ReplicatedSweep::from_sweep(&sweep);
        assert!(s.cell(Protocol::Udp, 5).is_none());
        assert_eq!(s.cell(Protocol::Reno, 5).map(|c| c.cov.count()), Some(3));
        let row = s.fig2_cov_table().lines().nth(2).map(str::to_string);
        let row = row.expect("one data row");
        assert_eq!(row.split_whitespace().nth(1), Some("-"), "{row}");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        let base = ScenarioBuilder::paper().finish();
        let _ = SweepSupervisor::new(&base, &[Protocol::Udp], &[2]).seeds(&[]);
    }
}
