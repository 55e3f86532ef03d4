//! Multi-seed replication: run the same scenario across independent seeds
//! and report mean ± 95% confidence half-width for every figure metric.
//!
//! The paper reports single runs (standard for 2000-era simulation
//! studies); replication quantifies how much of each curve is signal. The
//! replicated sweep powers the error bars in EXPERIMENTS.md.

use std::fmt::Write as _;

use tcpburst_des::SimDuration;
use tcpburst_stats::RunningStats;

use crate::config::{Protocol, ScenarioConfig};
use crate::supervise::{
    FailurePolicy, PointFailure, PointOutcome, RunBudget, Supervisor, SweepPoint,
};
use crate::workers::{self, InProcess, PointSpec};

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
    /// Runs every (protocol, clients) pair once per seed in `seeds`, fanned
    /// across all available cores (see [`ReplicatedSweep::run_with_jobs`]).
    ///
    /// # Panics
    ///
    /// Panics if any axis or the seed list is empty.
    pub fn run(
        protocols: &[Protocol],
        clients: &[usize],
        duration: SimDuration,
        seeds: &[u64],
    ) -> Self {
        ReplicatedSweep::run_with_jobs(protocols, clients, duration, seeds, 0)
    }

    /// Like [`ReplicatedSweep::run`], with an explicit worker-thread count.
    ///
    /// The full `(protocol, clients, seed)` grid — the sweep's unit of
    /// independent work — is executed on the supervised grid scheduler of
    /// [`crate::workers`], then folded into
    /// per-cell [`RunningStats`] serially in canonical seed order, so the
    /// floating-point accumulation (and therefore every mean and CI digit)
    /// is **bit-identical for every `jobs` value**. `jobs == 0` means
    /// available parallelism; `jobs == 1` computes one point at a time.
    ///
    /// # Panics
    ///
    /// Panics if any axis or the seed list is empty.
    pub fn run_with_jobs(
        protocols: &[Protocol],
        clients: &[usize],
        duration: SimDuration,
        seeds: &[u64],
        jobs: usize,
    ) -> Self {
        let base = crate::builder::ScenarioBuilder::paper()
            .instrumentation(|i| i.duration(duration))
            .finish();
        ReplicatedSweep::run_with_jobs_from(&base, protocols, clients, seeds, jobs)
    }

    /// Like [`ReplicatedSweep::run_with_jobs`], but every grid point
    /// inherits the non-axis knobs (duration, workload, impairments, …)
    /// from `base`; only protocol, client count, and seed vary.
    ///
    /// # Panics
    ///
    /// Panics if any axis or the seed list is empty.
    pub fn run_with_jobs_from(
        base: &ScenarioConfig,
        protocols: &[Protocol],
        clients: &[usize],
        seeds: &[u64],
        jobs: usize,
    ) -> Self {
        match Self::try_run_with_jobs_from(base, protocols, clients, seeds, jobs) {
            Ok(sweep) => sweep,
            Err(failure) => panic!("replicated sweep point failed: {failure}"),
        }
    }

    /// Like [`ReplicatedSweep::run_with_jobs_from`], but every grid point
    /// runs under the sweep supervisor: a panicking or audit-failing point
    /// surfaces as a typed [`PointFailure`] instead of unwinding the pool
    /// and discarding the other runs' work. The confidence-interval fold
    /// needs every sample, so the first failure (in canonical grid order)
    /// fails the whole replication.
    ///
    /// # Panics
    ///
    /// Panics if any axis or the seed list is empty.
    pub fn try_run_with_jobs_from(
        base: &ScenarioConfig,
        protocols: &[Protocol],
        clients: &[usize],
        seeds: &[u64],
        jobs: usize,
    ) -> Result<Self, PointFailure> {
        Self::try_run_with_jobs_store(base, protocols, clients, seeds, jobs, None)
    }

    /// Like [`ReplicatedSweep::try_run_with_jobs_from`], resolving every
    /// `(protocol, clients, seed)` run against a content-addressed result
    /// store first: replicate shares its grid points with plain sweeps, so
    /// a warm store makes the whole replication a sequence of cache loads.
    ///
    /// # Panics
    ///
    /// Panics if any axis or the seed list is empty.
    pub fn try_run_with_jobs_store(
        base: &ScenarioConfig,
        protocols: &[Protocol],
        clients: &[usize],
        seeds: &[u64],
        jobs: usize,
        store: Option<&crate::store::ResultStore>,
    ) -> Result<Self, PointFailure> {
        assert!(!protocols.is_empty(), "need at least one protocol");
        assert!(!clients.is_empty(), "need at least one client count");
        assert!(!seeds.is_empty(), "need at least one seed");

        let grid: Vec<PointSpec> = protocols
            .iter()
            .flat_map(|&protocol| {
                clients.iter().flat_map(move |&clients| {
                    seeds.iter().map(move |&seed| PointSpec {
                        protocol,
                        clients,
                        seed,
                    })
                })
            })
            .collect();
        let supervisor = Supervisor {
            jobs,
            policy: FailurePolicy::KeepGoing,
            budget: RunBudget::UNLIMITED,
            retries: 0,
        };
        let run = |i: usize, budget: &RunBudget| {
            let mut cfg = *base;
            cfg.num_clients = grid[i].clients;
            cfg.apply_protocol(grid[i].protocol);
            cfg.seed = grid[i].seed;
            crate::store::run_point_cached(&cfg, budget, store)
        };
        let (outcomes, _) =
            workers::run_points(&InProcess, &supervisor, "", &grid, run, |_, _| Ok(()));
        let mut reports = Vec::with_capacity(outcomes.len());
        for (outcome, point) in outcomes.into_iter().zip(&grid) {
            match outcome {
                PointOutcome::Done(report) => reports.push(report),
                PointOutcome::Failed(error) => {
                    let point = SweepPoint {
                        protocol: point.protocol,
                        clients: point.clients,
                        seed: point.seed,
                    };
                    return Err(PointFailure { point, error });
                }
                PointOutcome::Skipped => unreachable!("keep-going never skips"),
            }
        }

        let mut cells = Vec::with_capacity(protocols.len() * clients.len());
        let mut reports = reports.iter();
        for &p in protocols {
            for &n in clients {
                let mut cov = RunningStats::new();
                let mut delivered = RunningStats::new();
                let mut loss = RunningStats::new();
                let mut ratio = RunningStats::new();
                let mut poisson = 0.0;
                for _ in seeds {
                    let r = reports.next().expect("one report per grid point");
                    cov.push(r.cov);
                    delivered.push(r.delivered_packets as f64);
                    loss.push(r.loss_percent);
                    ratio.push(r.timeout_dupack_ratio());
                    poisson = r.poisson_cov;
                }
                cells.push(ReplicatedCell {
                    protocol: p,
                    clients: n,
                    cov,
                    poisson_cov: poisson,
                    delivered,
                    loss_percent: loss,
                    timeout_ratio: ratio,
                });
            }
        }
        Ok(ReplicatedSweep {
            cells,
            protocols: protocols.to_vec(),
            clients: clients.to_vec(),
            replications: seeds.len(),
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReplicatedSweep {
        ReplicatedSweep::run(
            &[Protocol::Udp, Protocol::Reno],
            &[5],
            SimDuration::from_secs(3),
            &[1, 2, 3],
        )
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
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        ReplicatedSweep::run(&[Protocol::Udp], &[2], SimDuration::from_secs(1), &[]);
    }
}
