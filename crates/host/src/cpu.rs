//! The host CPU pool: software routines run as timed jobs on cores.
//!
//! Every kernel-path cost from [`costs`](crate::costs) is charged by
//! submitting a [`CpuJob`]; the pool serializes jobs onto the
//! earliest-available core (work-conserving), records busy time per tag in
//! the world-resident [`CpuStats`], and notifies the submitter when the job
//! retires. Utilization figures (3b, 8, 12, 13) are read out of `CpuStats`
//! after a run.

use dcs_sim::DetMap;

use dcs_sim::{BusyTracker, Component, ComponentId, Ctx, Msg, ServerBank, SimTime};

/// A timed unit of software work.
#[derive(Debug, Clone)]
pub struct CpuJob {
    /// Requester-chosen token echoed in [`CpuJobDone`].
    pub token: u64,
    /// CPU time the routine occupies, in ns.
    pub cost_ns: u64,
    /// Utilization-breakdown tag (e.g. `"kernel-get"`, `"gpu-control"`).
    pub tag: &'static str,
    /// Component notified on retirement.
    pub reply_to: ComponentId,
}

/// Notifies the submitter that its job retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuJobDone {
    /// Token from the originating [`CpuJob`].
    pub token: u64,
}

/// World-resident CPU accounting, keyed by pool name (one pool per node).
#[derive(Debug, Default)]
pub struct CpuStats {
    pools: DetMap<String, PoolStats>,
}

/// Accounting for one pool.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Busy time per tag.
    pub tracker: BusyTracker,
    /// Number of cores in the pool.
    pub cores: usize,
    /// Retired job count.
    pub jobs: u64,
}

impl CpuStats {
    /// Empty accounting.
    pub fn new() -> Self {
        CpuStats::default()
    }

    /// The stats for `pool`, if that pool has executed anything.
    pub fn pool(&self, pool: &str) -> Option<&PoolStats> {
        self.pools.get(pool)
    }

    /// Utilization of `pool` over `[0, span_ns]` as a fraction of its
    /// total core capacity; zero if the pool never ran a job.
    pub fn utilization(&self, pool: &str, span_ns: u64) -> f64 {
        self.pools
            .get(pool)
            .map(|p| p.tracker.utilization(span_ns, p.cores as f64))
            .unwrap_or(0.0)
    }

    /// Per-tag utilization breakdown for `pool` over a span.
    pub fn breakdown(&self, pool: &str, span_ns: u64) -> Vec<(String, f64)> {
        self.pools
            .get(pool)
            .map(|p| p.tracker.utilization_breakdown(span_ns, p.cores as f64))
            .unwrap_or_default()
    }

    /// Clears accounting for every pool (used to discard warm-up).
    pub fn reset(&mut self) {
        for p in self.pools.values_mut() {
            p.tracker.reset();
            p.jobs = 0;
        }
    }

    fn record(&mut self, pool: &str, cores: usize, tag: &str, cost: u64) {
        let entry = self
            .pools
            .entry(pool.to_string())
            .or_insert_with(|| PoolStats {
                tracker: BusyTracker::new(),
                cores,
                jobs: 0,
            });
        entry.tracker.record(tag, cost);
        entry.jobs += 1;
    }
}

/// Internal: a job's service time has elapsed.
#[derive(Debug)]
struct JobRetired {
    token: u64,
    reply_to: ComponentId,
}

/// The CPU pool component.
pub struct CpuPool {
    name: String,
    cores: ServerBank,
}

impl CpuPool {
    /// A pool of `cores` identical cores named `name` (the name keys
    /// [`CpuStats`] entries).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(name: &str, cores: usize) -> Self {
        CpuPool {
            name: name.to_string(),
            cores: ServerBank::new(cores),
        }
    }
}

impl Component for CpuPool {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<CpuJob>() {
            Ok(job) => {
                let done: SimTime = self.cores.offer(ctx.now(), job.cost_ns);
                let cores = self.cores.len();
                {
                    let world = ctx.world();
                    if world.get::<CpuStats>().is_none() {
                        world.insert(CpuStats::new());
                    }
                    world
                        .expect_mut::<CpuStats>()
                        .record(&self.name, cores, job.tag, job.cost_ns);
                }
                let delay = done - ctx.now();
                ctx.send_self_in(
                    delay,
                    JobRetired {
                        token: job.token,
                        reply_to: job.reply_to,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<JobRetired>() {
            Ok(JobRetired { token, reply_to }) => {
                ctx.send_now(reply_to, CpuJobDone { token });
            }
            Err(other) => panic!("CpuPool received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::{time, Simulator};

    struct Submitter {
        pool: ComponentId,
        done: Vec<(u64, SimTime)>,
    }

    #[derive(Debug)]
    struct Fire(Vec<CpuJob>);

    impl Component for Submitter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Fire>() {
                Ok(Fire(jobs)) => {
                    for j in jobs {
                        let pool = self.pool;
                        ctx.send_now(pool, j);
                    }
                    return;
                }
                Err(m) => m,
            };
            let d = msg
                .downcast::<CpuJobDone>()
                .expect("submitter gets job completions");
            self.done.push((d.token, ctx.now()));
            ctx.world().stats.counter("sub.done").add(1);
        }
    }

    #[test]
    fn single_core_serializes_jobs() {
        let mut sim = Simulator::new(0);
        let pool = sim.add("cpu", CpuPool::new("node0", 1));
        let me = sim.reserve("sub");
        sim.install(me, Submitter { pool, done: vec![] });
        let jobs: Vec<CpuJob> = (0..3)
            .map(|i| CpuJob {
                token: i,
                cost_ns: time::us(10),
                tag: "work",
                reply_to: me,
            })
            .collect();
        sim.kickoff(me, Fire(jobs));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_us(30));
        assert_eq!(sim.world().stats.counter_value("sub.done"), 3);
        let stats = sim.world().expect::<CpuStats>();
        assert_eq!(stats.pool("node0").unwrap().jobs, 3);
        assert!((stats.utilization("node0", time::us(30)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_core_pool_runs_jobs_in_parallel() {
        let mut sim = Simulator::new(0);
        let pool = sim.add("cpu", CpuPool::new("node0", 4));
        let me = sim.reserve("sub");
        sim.install(me, Submitter { pool, done: vec![] });
        let jobs: Vec<CpuJob> = (0..4)
            .map(|i| CpuJob {
                token: i,
                cost_ns: time::us(5),
                tag: "work",
                reply_to: me,
            })
            .collect();
        sim.kickoff(me, Fire(jobs));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_us(5));
        // 4 * 5us busy over 5us span on 4 cores = 100%; on 8 "cores" = 50%.
        let stats = sim.world().expect::<CpuStats>();
        assert!((stats.utilization("node0", time::us(5)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_by_tag_and_reset() {
        let mut sim = Simulator::new(0);
        let pool = sim.add("cpu", CpuPool::new("node0", 2));
        let me = sim.reserve("sub");
        sim.install(me, Submitter { pool, done: vec![] });
        sim.kickoff(
            me,
            Fire(vec![
                CpuJob {
                    token: 0,
                    cost_ns: 100,
                    tag: "kernel",
                    reply_to: me,
                },
                CpuJob {
                    token: 1,
                    cost_ns: 300,
                    tag: "driver",
                    reply_to: me,
                },
            ]),
        );
        sim.run();
        let stats = sim.world_mut().expect_mut::<CpuStats>();
        let breakdown = stats.breakdown("node0", 400);
        let total: f64 = breakdown.iter().map(|(_, f)| f).sum();
        assert!((total - 0.5).abs() < 1e-9, "{breakdown:?}");
        stats.reset();
        assert_eq!(stats.pool("node0").unwrap().jobs, 0);
    }

    #[test]
    fn unknown_pool_reads_as_zero() {
        let stats = CpuStats::new();
        assert_eq!(stats.utilization("ghost", 100), 0.0);
        assert!(stats.breakdown("ghost", 100).is_empty());
        assert!(stats.pool("ghost").is_none());
    }
}
