//! Harness utilities: a probe component that submits jobs and collects
//! completions, plus single-job latency measurement over any design.

use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_pcie::PhysMemory;
use dcs_sim::{Anatomy, Component, ComponentId, Ctx, Msg, World};
use dcs_workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

/// World-resident mailbox of collected completions.
#[derive(Default, Debug)]
pub struct Inbox(pub Vec<D2dDone>);

/// Snapshot of the global fault/recovery counters maintained by
/// [`dcs_sim::fault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults fired across all sites (`fault.injected`).
    pub injected: u64,
    /// Faults whose effects a retry path absorbed (`fault.recovered`).
    pub recovered: u64,
    /// Faults that exhausted their retry budget (`fault.exhausted`).
    pub exhausted: u64,
    /// Individual retry attempts (`retry.count`).
    pub retries: u64,
}

impl FaultReport {
    /// Reads the counters out of `world`.
    pub fn capture(world: &World) -> FaultReport {
        let c = |k: &str| world.stats.counter_value(k);
        FaultReport {
            injected: c("fault.injected"),
            recovered: c("fault.recovered"),
            exhausted: c("fault.exhausted"),
            retries: c("retry.count"),
        }
    }
}

/// Submit-and-collect component.
pub struct Probe;

/// Ask the probe to forward a job.
#[derive(Debug)]
pub struct Submit {
    /// Executor or HDC driver to submit to.
    pub to: ComponentId,
    /// The job.
    pub job: D2dJob,
}

impl Component for Probe {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Submit>() {
            Ok(Submit { to, job }) => {
                ctx.send_now(to, job);
                return;
            }
            Err(m) => m,
        };
        let done = msg
            .downcast::<D2dDone>()
            .expect("probe receives job completions");
        ctx.world().stats.counter("probe.done").add(1);
        if done.ok {
            ctx.world().stats.counter("probe.ok").add(1);
        }
        if ctx.world().get::<Inbox>().is_none() {
            ctx.world().insert(Inbox::default());
        }
        ctx.world().expect_mut::<Inbox>().0.push(done);
    }
}

/// A testbed with a probe installed, initialization settled, and the
/// sim-time recorder on, so every job's latency anatomy is recorded.
pub struct ProbedTestbed {
    /// The underlying testbed.
    pub tb: Testbed,
    /// The probe (use as `reply_to`).
    pub probe: ComponentId,
}

impl ProbedTestbed {
    /// Builds and settles a testbed for `design`, then turns the
    /// recorder on (after the settle, so bring-up traffic stays out of
    /// traces; recording is purely observational either way).
    pub fn new(design: DesignUnderTest) -> ProbedTestbed {
        let mut tb = Testbed::new(design, &TestbedConfig::default());
        let probe = tb.sim.add("probe", Probe);
        tb.sim.run();
        tb.sim.world_mut().obs.enable();
        ProbedTestbed { tb, probe }
    }

    /// The latency anatomy of completed job `id`.
    ///
    /// # Panics
    ///
    /// Panics if the job has not completed.
    pub fn anatomy(&self, id: u64) -> Anatomy {
        let a = self.tb.sim.world().obs.anatomy(id);
        a.filter(|a| a.end_ns.is_some())
            .expect("completed job")
            .clone()
    }

    /// Pre-populates the server SSD's flash at `lba` with `data`.
    pub(crate) fn seed_flash(&mut self, lba: u64, data: &[u8]) {
        let addr = self.tb.server.ssds[0].lba_addr(lba);
        self.tb
            .sim
            .world_mut()
            .expect_mut::<PhysMemory>()
            .write(addr, data);
    }

    /// Runs one job on the *server* node to completion and returns its
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the job fails or never completes.
    pub(crate) fn run_server_job(&mut self, ops: Vec<D2dOp>, tag: &'static str) -> D2dDone {
        let before = self
            .tb
            .sim
            .world()
            .get::<Inbox>()
            .map(|i| i.0.len())
            .unwrap_or(0);
        let job = D2dJob {
            id: 1_000_000 + before as u64,
            ops,
            reply_to: self.probe,
            tag,
        };
        let probe = self.probe;
        let target = self.tb.server.submit_to;
        self.tb.sim.kickoff(probe, Submit { to: target, job });
        self.tb.sim.run();
        let inbox = self.tb.sim.world().expect::<Inbox>();
        assert_eq!(inbox.0.len(), before + 1, "job must complete");
        let done = inbox.0.last().expect("present").clone();
        assert!(done.ok, "job must succeed");
        done
    }

    /// Runs a pair of jobs (receiver side first) and returns both results
    /// in completion order.
    pub(crate) fn run_pair(
        &mut self,
        server_ops: Vec<D2dOp>,
        client_ops: Vec<D2dOp>,
        tag: &'static str,
    ) -> Vec<D2dDone> {
        let before = self
            .tb
            .sim
            .world()
            .get::<Inbox>()
            .map(|i| i.0.len())
            .unwrap_or(0);
        let recv = D2dJob {
            id: 2_000_000 + before as u64,
            ops: client_ops,
            reply_to: self.probe,
            tag,
        };
        let send = D2dJob {
            id: 2_000_001 + before as u64,
            ops: server_ops,
            reply_to: self.probe,
            tag,
        };
        let probe = self.probe;
        let client = self.tb.client.submit_to;
        let server = self.tb.server.submit_to;
        self.tb.sim.kickoff(
            probe,
            Submit {
                to: client,
                job: recv,
            },
        );
        self.tb.sim.kickoff(
            probe,
            Submit {
                to: server,
                job: send,
            },
        );
        self.tb.sim.run();
        let inbox = self.tb.sim.world().expect::<Inbox>();
        assert_eq!(inbox.0.len(), before + 2, "both jobs must complete");
        inbox.0[before..].to_vec()
    }
}
