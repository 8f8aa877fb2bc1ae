//! Campaign runner: applies generated scripts or fault schedules to a
//! target system, extracts coverage, and judges the run with the target's
//! oracles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pfi_core::{Direction, Filter, PfiControl, PfiEvent, PfiReply};
use pfi_fleet::panic_message;
use pfi_gmp::{GmpBugs, GmpConfig, GmpControl, GmpEvent, GmpLayer, GmpReply, GmpStub};
use pfi_rudp::RudpLayer;
use pfi_sim::{NodeId, SimDuration, TraceLog, World};
use pfi_tcp::{ConnId, TcpControl, TcpLayer, TcpProfile, TcpReply, TcpStub};
use pfi_tpc::{TpcControl, TpcEvent, TpcLayer, TpcReply, TpcStub};

use crate::coverage::Coverage;
use crate::generate::{Campaign, TestCase};
use crate::oracle::{
    first_violation, DeliveredStream, GmpAgreementOracle, GmpLeaderUniquenessOracle,
    GmpNoSelfDeathOracle, GmpProclaimRoutingOracle, GmpTimerDisciplineOracle, Oracle,
    TcpNoSilentCloseOracle, TcpPrefixOracle, TcpRtoBoundsOracle, TpcAtomicityOracle,
};
use crate::schedule::{FaultSchedule, SiteScripts};
use crate::snapshot::{base_digest, BaseWorld, Baseline, SnapshotStore};
use crate::spec::ProtocolSpec;
use crate::validate::{check_install, CompiledSite};

/// Outcome of one test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All invariants held and service was undisturbed.
    Pass,
    /// Invariants held but service degraded (expected under many faults).
    Degraded(String),
    /// An invariant was violated: the campaign found a bug.
    Violated(String),
    /// The schedule could not be installed — a fault site the target does
    /// not have, or a lowered script that does not parse. Nothing ran;
    /// the run contributed no coverage. Campaign pre-filtering
    /// ([`crate::ExploreConfig::prefilter`]) rejects exactly these
    /// schedules without executing them.
    Invalid(String),
    /// The target (or an oracle) panicked mid-run. The panic was contained
    /// by the runner: coverage reached before the crash is kept, and any
    /// oracle violation observed on the partial trace still wins over this
    /// verdict. Says nothing about the protocol — it is an infrastructure
    /// finding about the harness or target code itself.
    Crashed(String),
    /// A runaway-run watchdog cut the run short: the drive exhausted its
    /// [`RunLimits::event_cap`] (a message storm stalled virtual time), or
    /// a filter script burned through its interpreter step budget (an
    /// unbounded loop). The truncated trace was still judged — an oracle
    /// violation observed before the cutoff wins over this verdict.
    Hung(String),
}

impl Verdict {
    /// Whether this verdict represents an invariant violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// Whether the schedule was refused at install time (nothing ran).
    pub fn is_invalid(&self) -> bool {
        matches!(self, Verdict::Invalid(_))
    }

    /// Whether the target or an oracle panicked mid-run.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Verdict::Crashed(_))
    }

    /// Whether a runaway-run watchdog cut the run short.
    pub fn is_hung(&self) -> bool {
        matches!(self, Verdict::Hung(_))
    }

    /// Whether this verdict reports harness trouble (crash or hang) rather
    /// than a protocol judgement — campaigns count these separately and
    /// the CLI maps them to a distinct exit code.
    pub fn is_infrastructure(&self) -> bool {
        self.is_crashed() || self.is_hung()
    }
}

/// One case's result — enough to diagnose and replay the case without
/// re-running the whole campaign.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case id from the campaign.
    pub case_id: String,
    /// The target's world seed the case ran under.
    pub seed: u64,
    /// The generated filter script the case installed.
    pub script: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Name of the violated oracle, when `verdict` is a violation found by
    /// one (service-level violations from the target itself leave this
    /// empty).
    pub oracle: Option<String>,
    /// Behavioural coverage the run reached.
    pub coverage: Coverage,
}

/// Outcome of running one [`FaultSchedule`].
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// The schedule's stable id.
    pub schedule_id: String,
    /// The target's world seed.
    pub seed: u64,
    /// The lowered per-site filter scripts.
    pub scripts: Vec<SiteScripts>,
    /// The verdict.
    pub verdict: Verdict,
    /// Name of the violated oracle, if any.
    pub oracle: Option<String>,
    /// Behavioural coverage the run reached.
    pub coverage: Coverage,
}

/// Per-run event budget for target drives. A healthy run of any bundled
/// target is a few thousand events; fault compositions that amplify
/// messages (duplicate + proclaim forwarding, say) can storm into the
/// millions and stall a campaign. The cap cuts such runs short
/// deterministically — the truncated trace still yields coverage and is
/// still judged by the oracles. The default for [`RunLimits::event_cap`].
pub const DRIVE_EVENT_CAP: u64 = 250_000;

/// Runaway-run watchdog budgets, applied per executed schedule.
///
/// Both budgets are measured in deterministic units (simulator events and
/// interpreter steps), so a run that trips a watchdog trips it identically
/// on every replay, on every worker, at every job count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum simulator events one drive phase may process before the run
    /// is declared [`Verdict::Hung`]. See [`DRIVE_EVENT_CAP`].
    pub event_cap: u64,
    /// Interpreter step budget installed on every fault site's filter
    /// interpreters (via [`PfiControl::SetStepBudget`]) before the drive.
    /// A script that exhausts it fails open with a budget-exhausted trace
    /// event, and the run is declared [`Verdict::Hung`]. `0` keeps the
    /// interpreter's own default fuel limit.
    pub step_budget: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            event_cap: DRIVE_EVENT_CAP,
            step_budget: 0,
        }
    }
}

/// A system a campaign can be run against: a read-only description
/// (plain data — the worlds it builds are what runs mutate), so one
/// instance is shared by every worker of a campaign.
///
/// # What a run may depend on
///
/// With snapshot/fork execution on, a candidate whose filters never *act*
/// on the traffic the fault-free baseline recorded
/// ([`PfiControl::Probe`] defines acting) is not driven at all: it is
/// handed the baseline's verdict, oracle and coverage, because everything
/// outside its fault sites' interpreter pairs would have evolved exactly
/// as in the baseline. [`drive`](TestTarget::drive),
/// [`harvest`](TestTarget::harvest), [`verdict`](TestTarget::verdict) and
/// the [`oracles`](TestTarget::oracles) must therefore not read a fault
/// site's *interpreter state* (`PfiControl::EvalInSend` / `EvalInRecv`,
/// script-cache counters): it is the one thing such a candidate changes.
/// Everything else — the trace, protocol layers, boards, packet logs,
/// held messages, the clock — is fair game; a filter that touches any of
/// it acts, and its candidate is driven. A drive must also reach the
/// fault sites the same way every time (a pure function of the world it
/// is given), which the determinism contract already demands.
pub trait TestTarget: Send + Sync {
    /// Short stable name (used in repro artifacts).
    fn name(&self) -> &'static str;
    /// The world seed every run of this target uses.
    fn seed(&self) -> u64;
    /// How many nodes the target builds (bounds destination faults).
    fn node_count(&self) -> u32;
    /// How many fault sites [`build`](TestTarget::build) returns (bounds
    /// a schedule's `site` indices without building a world).
    fn fault_sites(&self) -> u32 {
        1
    }
    /// Which fault site grid-generated single-script cases install on.
    fn primary_site(&self) -> usize {
        0
    }
    /// Builds a fresh instance; returns the world plus the fault sites —
    /// each a `(node, stack index)` of a PFI layer schedules can put
    /// filters on. Must return exactly
    /// [`fault_sites`](TestTarget::fault_sites) entries.
    fn build(&self) -> (World, Vec<(NodeId, usize)>);
    /// Drives the system through the test. Returns `true` iff the event
    /// cap in `limits` cut the drive short — the runner escalates such
    /// runs to [`Verdict::Hung`] after the oracles have judged the
    /// truncated trace.
    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool;
    /// Records end-of-run facts into the trace (e.g. the delivered byte
    /// stream) before the oracles judge it.
    fn harvest(&self, _world: &mut World) {}
    /// The invariant oracles judging a finished run's trace.
    fn oracles(&self) -> Vec<Box<dyn Oracle>>;
    /// Service-level check after the oracles pass: `Pass` or `Degraded`.
    fn verdict(&self, world: &mut World) -> Verdict;
    /// The target's static [`FlowModel`](crate::reach::FlowModel), when it
    /// has one — what the spec and topology guarantee about the traffic
    /// each fault site observes. Read by analysis only — `pfi-lint
    /// --spec`'s inert-fault diagnostics — never by the campaign engine,
    /// so it cannot change what a campaign runs or finds. `None` (the
    /// default) leaves `pfi-lint --spec` without the target's facts.
    fn flow_model(&self) -> Option<crate::reach::FlowModel> {
        None
    }
    /// This target behind the shared handle a campaign holds for its
    /// whole run (`Arc::new(self.clone())`) — what lets
    /// [`explore`](crate::explore) start from a borrowed target.
    fn share(&self) -> Arc<dyn TestTarget>;
}

/// Runs every case of a campaign against fresh instances of the target.
pub fn run_campaign(target: &dyn TestTarget, campaign: &Campaign) -> Vec<CaseResult> {
    campaign
        .cases
        .iter()
        .map(|case| run_case(target, case))
        .collect()
}

/// Runs a single grid-generated case (on the target's primary site).
pub fn run_case(target: &dyn TestTarget, case: &TestCase) -> CaseResult {
    let (send, recv) = match case.dir {
        Direction::Send => (case.script.clone(), String::new()),
        Direction::Receive => (String::new(), case.script.clone()),
    };
    let site = target.primary_site() as u32;
    let scripts = vec![SiteScripts { site, send, recv }];
    let run = execute(
        target,
        Lowered::check(case.id.clone(), scripts, target.fault_sites()),
        &RunLimits::default(),
        None,
    );
    CaseResult {
        case_id: run.schedule_id,
        seed: run.seed,
        script: case.script.clone(),
        verdict: run.verdict,
        oracle: run.oracle,
        coverage: run.coverage,
    }
}

/// Runs one fault schedule: lowers it, installs the filters on each fault
/// site it touches, and judges the run. Uses the default [`RunLimits`];
/// campaigns with a configured step budget use
/// [`run_schedule_limited`].
pub fn run_schedule(target: &dyn TestTarget, schedule: &FaultSchedule) -> ScheduleRun {
    run_schedule_snapshotted(target, schedule, &RunLimits::default(), None)
}

/// [`run_schedule`] with explicit runaway-run watchdog budgets.
pub fn run_schedule_limited(
    target: &dyn TestTarget,
    schedule: &FaultSchedule,
    limits: &RunLimits,
) -> ScheduleRun {
    run_schedule_snapshotted(target, schedule, limits, None)
}

/// [`run_schedule_limited`] with snapshot/fork execution: `store` decides
/// between forking its base world and building cold (capturing the base
/// for every later schedule of the same target). `None` always builds
/// cold. Byte-identical either way.
pub fn run_schedule_snapshotted(
    target: &dyn TestTarget,
    schedule: &FaultSchedule,
    limits: &RunLimits,
    store: Option<&mut SnapshotStore>,
) -> ScheduleRun {
    let lowered = Lowered::check(schedule.id(), schedule.lower(), target.fault_sites());
    execute(target, lowered, limits, store)
}

/// A schedule lowered and install-checked once — what [`execute`] runs.
/// The explorer's admission builds one per candidate and carries it to the
/// worker, so no candidate is lowered twice and no filter parsed twice:
/// the scripts the install check compiled are the ones installed.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// The schedule's (or grid case's) stable id.
    pub(crate) id: String,
    /// The per-site filter scripts.
    pub(crate) scripts: Vec<SiteScripts>,
    /// `scripts` as the install check compiled them, index for index.
    /// They live as long as the candidate does and no longer — nothing
    /// keyed by script text outlives a run.
    compiled: Vec<CompiledSite>,
    /// [`scripts_install_errors`](crate::validate::scripts_install_errors)
    /// of `scripts` against the target; non-empty means nothing will run.
    pub(crate) install_errors: Vec<String>,
}

impl Lowered {
    /// Install-checks `scripts` against a target with `sites` fault sites.
    pub(crate) fn check(id: String, scripts: Vec<SiteScripts>, sites: u32) -> Lowered {
        let (install_errors, compiled) = check_install(&scripts, sites);
        Lowered {
            id,
            scripts,
            compiled,
            install_errors,
        }
    }
}

/// What a run came to: verdict, violated oracle, coverage.
pub(crate) type Outcome = (Verdict, Option<String>, Coverage);

/// The one way a schedule executes.
///
/// Scripts that cannot be installed — a site index the target does not
/// have (e.g. a repro artifact written for a different target), or a
/// script that does not parse — are refused *before* anything is built or
/// the store is consulted: [`Verdict::Invalid`] is exactly the refusal
/// campaign pre-filtering predicts without executing, and corrupted
/// candidates (e.g. [`crate::ScheduleMutator`] scrambles) never count as
/// lookups.
///
/// With `fork`, the store decides fork-vs-cold: a hit restores the base
/// world ([`run_forked`]); a miss builds it and captures it under
/// [`base_digest`] ([`run_cold`]; targets whose layers refuse to clone
/// simply keep building cold — correctness never depends on the store).
/// Without `fork` every run builds cold. Either way the world carries no
/// filter yet, so every non-empty script is installed. A forked run is
/// byte-identical to a cold one: forks restore the captured world exactly,
/// and filter installation has no observable side effects beyond the
/// filters themselves.
pub(crate) fn execute(
    target: &dyn TestTarget,
    lowered: Lowered,
    limits: &RunLimits,
    fork: Option<&mut SnapshotStore>,
) -> ScheduleRun {
    let Lowered {
        id,
        scripts,
        compiled,
        install_errors,
    } = lowered;
    let (verdict, oracle, coverage) = if !install_errors.is_empty() {
        let refusal = Verdict::Invalid(install_errors.join("; "));
        (refusal, None, Coverage::new())
    } else {
        let digest = base_digest(target, limits);
        let filters = (&scripts[..], &compiled[..]);
        match fork {
            Some(store) => match store.lookup(digest) {
                Some(base) => run_forked(target, store, &base, filters, limits),
                None => run_cold(target, Some((store, digest)), filters, limits),
            },
            None => run_cold(target, None, filters, limits),
        }
    };
    ScheduleRun {
        schedule_id: id,
        seed: target.seed(),
        scripts,
        verdict,
        oracle,
        coverage,
    }
}

/// A schedule's lowered scripts and, index for index, their compiled form.
type Filters<'a> = (&'a [SiteScripts], &'a [CompiledSite]);

/// Runs a schedule from the campaign's base world, restored into the world
/// the store's last run retired (a fresh one the first time).
///
/// When the base carries the baseline's recording, the filters are first
/// probed against it ([`Baseline::acts`]): a candidate whose filters never
/// act would re-simulate the baseline message for message, so it is handed
/// the baseline's outcome and not driven. The probe's evaluations advance
/// the interpreters, so a candidate that does act is restored once more
/// and runs from a world byte-identical to a fresh fork.
fn run_forked(
    target: &dyn TestTarget,
    store: &mut SnapshotStore,
    base: &BaseWorld,
    (scripts, compiled): Filters<'_>,
    limits: &RunLimits,
) -> Outcome {
    let mut world = store.retired.take().unwrap_or_else(|| World::new(0));
    world.restore(&base.world);
    install_scripts(&mut world, &base.sites, target.name(), scripts, compiled);
    if let Some(baseline) = &base.baseline {
        if !baseline.acts(&mut world, &base.sites, scripts) {
            store.stats.replayed += 1;
            store.retire(world);
            return baseline.outcome.clone();
        }
        world.restore(&base.world);
        install_scripts(&mut world, &base.sites, target.name(), scripts, compiled);
    }
    let outcome = judge(target, &mut world, limits);
    store.retire(world);
    outcome
}

/// Builds the target's world and runs a schedule in it. With a store (a
/// miss under `digest`), the built world is captured as the base first —
/// and when the schedule installs no filter at all, this run *is* the
/// fault-free baseline: every fault site records the traffic reaching its
/// filters, and if the run ends without crash or hang the recording and
/// the outcome stay with the base for [`run_forked`] to probe against.
fn run_cold(
    target: &dyn TestTarget,
    capture: Option<(&mut SnapshotStore, u64)>,
    (scripts, compiled): Filters<'_>,
    limits: &RunLimits,
) -> Outcome {
    let (mut world, sites) = target.build();
    // Timer life-cycle records are a coverage signal; trace them for the
    // driven phase (build-time convergence stays untraced on purpose).
    world.trace_timers = true;
    if limits.step_budget > 0 {
        for &(node, pfi_layer) in &sites {
            let _: PfiReply = world.control(
                node,
                pfi_layer,
                PfiControl::SetStepBudget(limits.step_budget),
            );
        }
    }
    // Captured before anything records, so no fork ever does.
    let recorder = capture
        .and_then(|(store, digest)| store.capture(digest, &sites, &world).then_some(store))
        .filter(|_| scripts.iter().all(SiteScripts::is_empty));
    if recorder.is_some() {
        for &(node, pfi_layer) in &sites {
            let _: PfiReply = world.control(node, pfi_layer, PfiControl::Record);
        }
    }
    install_scripts(&mut world, &sites, target.name(), scripts, compiled);
    let outcome = judge(target, &mut world, limits);
    if let Some(store) = recorder {
        if !outcome.0.is_infrastructure() {
            let traffic = sites
                .iter()
                .map(|&(node, pfi_layer)| {
                    match world.control(node, pfi_layer, PfiControl::TakeRecording) {
                        PfiReply::Recording(traffic) => traffic,
                        other => panic!("fault site {node} answered TakeRecording with {other:?}"),
                    }
                })
                .collect();
            store.record_baseline(Baseline::new(traffic, outcome.clone()));
        }
    }
    outcome
}

/// Installs every non-empty script — in the compiled form the install
/// check left — on a world that carries no filter yet (a freshly built or
/// freshly forked base). Filter installation is plain control-plane
/// assignment: it emits no trace events, draws no RNG, and advances no
/// virtual time — which is exactly what makes a forked-then-installed
/// world byte-identical to a cold-built one.
fn install_scripts(
    world: &mut World,
    sites: &[(NodeId, usize)],
    target_name: &str,
    scripts: &[SiteScripts],
    compiled: &[CompiledSite],
) {
    for (s, filters) in scripts.iter().zip(compiled) {
        let &(node, pfi_layer) = sites.get(s.site as usize).unwrap_or_else(|| {
            panic!(
                "schedule addresses fault site n{} but target {:?} has only {}",
                s.site,
                target_name,
                sites.len()
            )
        });
        let make_ops = [
            PfiControl::SetSendFilter as fn(Filter) -> _,
            PfiControl::SetRecvFilter,
        ];
        for (script, make_op) in filters.iter().zip(make_ops) {
            if let Some(script) = script {
                let filter = Filter::Script(Arc::clone(script));
                let _: PfiReply = world.control(node, pfi_layer, make_op(filter));
            }
        }
    }
}

/// Drives and judges a built world: drive, harvest, extract coverage,
/// judge.
///
/// The drive/harvest phase and both judging phases run under panic guards:
/// a target or oracle that panics yields [`Verdict::Crashed`] instead of
/// unwinding into the campaign loop (or taking a fleet worker's whole
/// epoch with it). Coverage is extracted from the trace *after* the guard,
/// so a crashed run's pre-crash edges still feed corpus growth — a
/// crashing schedule leaves no silent hole in the search space. Verdict
/// priority: `Violated` (even on a truncated or partial trace) beats
/// `Crashed` beats `Hung` beats the target's own service verdict.
fn judge(target: &dyn TestTarget, world: &mut World, limits: &RunLimits) -> Outcome {
    let driven = catch_unwind(AssertUnwindSafe(|| {
        let capped = target.drive(world, limits);
        target.harvest(world);
        capped
    }));
    // The trace survives a drive panic; salvage whatever coverage the run
    // reached before it died.
    let coverage = Coverage::from_trace(world.trace());
    // Judge even truncated and partial traces: a violation observed before
    // a crash or hang is still a finding, and shrink/replay re-judge the
    // same truncated trace deterministically.
    match catch_unwind(AssertUnwindSafe(|| {
        first_violation(&target.oracles(), world.trace())
    })) {
        Ok(Some((name, msg))) => {
            return (
                Verdict::Violated(format!("{name}: {msg}")),
                Some(name.to_string()),
                coverage,
            );
        }
        Ok(None) => {}
        Err(payload) => {
            return (
                Verdict::Crashed(format!(
                    "oracle panicked: {}",
                    panic_message(payload.as_ref())
                )),
                None,
                coverage,
            );
        }
    }
    let capped = match driven {
        Ok(capped) => capped,
        Err(payload) => {
            return (
                Verdict::Crashed(format!(
                    "target panicked: {}",
                    panic_message(payload.as_ref())
                )),
                None,
                coverage,
            );
        }
    };
    if capped {
        return (
            Verdict::Hung(format!(
                "drive exhausted its {} simulator-event budget",
                limits.event_cap
            )),
            None,
            coverage,
        );
    }
    if let Some(error) = budget_exhausted_script(world.trace()) {
        return (
            Verdict::Hung(format!("filter script watchdog fired: {error}")),
            None,
            coverage,
        );
    }
    match catch_unwind(AssertUnwindSafe(|| target.verdict(world))) {
        Ok(verdict) => (verdict, None, coverage),
        Err(payload) => (
            Verdict::Crashed(format!(
                "target verdict panicked: {}",
                panic_message(payload.as_ref())
            )),
            None,
            coverage,
        ),
    }
}

/// First budget-exhausted script failure in the trace, if any — the
/// interpreter's step-budget watchdog firing is what distinguishes a
/// looping script (a hang) from a merely broken one (fail-open noise).
fn budget_exhausted_script(trace: &TraceLog) -> Option<String> {
    trace
        .iter_of::<PfiEvent>()
        .find_map(|(_, node, event)| match event {
            PfiEvent::ScriptFailed {
                budget_exhausted: true,
                dir,
                error,
            } => Some(format!("{node} {dir:?} filter: {error}")),
            _ => None,
        })
}

// ---------------------------------------------------------------------
// GMP target
// ---------------------------------------------------------------------

/// A three-daemon GMP cluster. Every daemon's PFI layer is a fault site
/// (site index = node index); grid-generated single-script cases fault
/// node 1, a non-leader member.
#[derive(Debug, Clone)]
pub struct GmpTarget {
    /// Which implementation bugs are present.
    pub bugs: GmpBugs,
    /// Virtual seconds to run after fault installation.
    pub fault_secs: u64,
}

impl Default for GmpTarget {
    fn default() -> Self {
        GmpTarget {
            bugs: GmpBugs::none(),
            fault_secs: 60,
        }
    }
}

impl GmpTarget {
    fn peers() -> Vec<NodeId> {
        (0..3).map(NodeId::new).collect()
    }
}

impl TestTarget for GmpTarget {
    fn name(&self) -> &'static str {
        "gmp"
    }

    fn seed(&self) -> u64 {
        4242
    }

    fn node_count(&self) -> u32 {
        3
    }

    fn flow_model(&self) -> Option<crate::reach::FlowModel> {
        Some(crate::reach::FlowModel::gmp())
    }

    fn fault_sites(&self) -> u32 {
        3
    }

    fn primary_site(&self) -> usize {
        1 // grid cases fault node 1, a non-leader member
    }

    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }

    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        let mut world = World::new(self.seed());
        let peers = Self::peers();
        for _ in 0..3 {
            let gmd = GmpLayer::new(GmpConfig::new(peers.clone()).with_bugs(self.bugs));
            world.add_node(vec![
                Box::new(gmd),
                Box::new(pfi_core::PfiLayer::new(Box::new(GmpStub))),
                Box::new(RudpLayer::default()),
            ]);
        }
        for &p in &peers {
            world.control::<GmpReply>(p, 0, GmpControl::Start);
        }
        // Converge before the fault is installed.
        world.run_for(SimDuration::from_secs(40));
        let sites = peers.iter().map(|&p| (p, 1)).collect();
        (world, sites)
    }

    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        let ran = world.run_for_capped(SimDuration::from_secs(self.fault_secs), limits.event_cap);
        ran == limits.event_cap
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![
            Box::new(GmpAgreementOracle),
            Box::new(GmpLeaderUniquenessOracle),
            Box::new(GmpNoSelfDeathOracle),
            Box::new(GmpProclaimRoutingOracle),
            Box::new(GmpTimerDisciplineOracle),
        ]
    }

    fn verdict(&self, world: &mut World) -> Verdict {
        let peers = Self::peers();
        // Liveness: the two unfaulted daemons (0 and 2) must end up Up,
        // agreeing, and together.
        let v0 = world
            .control::<GmpReply>(peers[0], 0, GmpControl::Status)
            .expect_status();
        let v2 = world
            .control::<GmpReply>(peers[2], 0, GmpControl::Status)
            .expect_status();
        if v0.group.members != v2.group.members {
            return Verdict::Degraded(format!(
                "unfaulted daemons diverge: {:?} vs {:?} (may still be converging)",
                v0.group.members, v2.group.members
            ));
        }
        if !v0.group.contains(peers[2]) {
            return Verdict::Degraded("unfaulted daemons separated".to_string());
        }
        if !v0.group.contains(peers[1]) {
            return Verdict::Degraded("the faulty member fell out of the group".to_string());
        }
        // Service disturbance: any committed view change after the fault
        // was installed (the convergence phase ends at 40 virtual seconds)
        // means the fault was visible, even if the group healed.
        let churn = world
            .trace()
            .iter_of::<GmpEvent>()
            .filter(|(t, node, e)| {
                *node == peers[0]
                    && t.as_secs_f64() > 40.0
                    && matches!(e, GmpEvent::GroupView { .. })
            })
            .count();
        if churn > 0 {
            Verdict::Degraded(format!("membership changed {churn} times under the fault"))
        } else {
            Verdict::Pass
        }
    }
}

// ---------------------------------------------------------------------
// TCP target
// ---------------------------------------------------------------------

/// A client/server TCP transfer; the case filter is installed on the
/// server's PFI layer.
#[derive(Debug, Clone)]
pub struct TcpTarget {
    /// Client profile.
    pub profile: TcpProfile,
    /// Bytes to transfer.
    pub payload_len: usize,
    /// Virtual seconds to run after fault installation.
    pub fault_secs: u64,
}

impl Default for TcpTarget {
    fn default() -> Self {
        TcpTarget {
            profile: TcpProfile::sunos_4_1_3(),
            payload_len: 8_192,
            fault_secs: 180,
        }
    }
}

impl TcpTarget {
    fn payload(&self) -> Vec<u8> {
        (0..self.payload_len)
            .map(|i| (i * 11 % 256) as u8)
            .collect()
    }

    fn client() -> NodeId {
        NodeId::new(0)
    }
    fn server() -> NodeId {
        NodeId::new(1)
    }
    const CONN: ConnId = ConnId(0);
}

impl TestTarget for TcpTarget {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn seed(&self) -> u64 {
        777
    }

    fn node_count(&self) -> u32 {
        2
    }

    fn flow_model(&self) -> Option<crate::reach::FlowModel> {
        Some(crate::reach::FlowModel::tcp())
    }

    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }

    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        let mut world = World::new(self.seed());
        let client = world.add_node(vec![Box::new(TcpLayer::new(self.profile.clone()))]);
        let server = world.add_node(vec![
            Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
            Box::new(pfi_core::PfiLayer::new(Box::new(TcpStub))),
        ]);
        world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
        // Open the connection only after the fault is installed — SYN-path
        // faults are part of the campaign.
        let _ = client;
        (world, vec![(server, 1)])
    }

    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        let conn = world
            .control::<TcpReply>(
                Self::client(),
                0,
                TcpControl::Open {
                    local_port: 0,
                    remote: Self::server(),
                    remote_port: 80,
                },
            )
            .expect_conn();
        debug_assert_eq!(conn, Self::CONN);
        // The handshake phase gets its own full cap (rather than drawing
        // down the transfer phase's budget) so transfer-phase event counts
        // are unchanged from when this phase ran uncapped.
        if world.run_for_capped(SimDuration::from_secs(5), limits.event_cap) == limits.event_cap {
            return true;
        }
        let payload = self.payload();
        world.control::<TcpReply>(
            Self::client(),
            0,
            TcpControl::Send {
                conn,
                data: payload,
            },
        );
        let ran = world.run_for_capped(SimDuration::from_secs(self.fault_secs), limits.event_cap);
        ran == limits.event_cap
    }

    fn harvest(&self, world: &mut World) {
        // Take whatever the server-side application can read and record it
        // for the stream oracles (RecvTake consumes, so this happens once).
        let sconn =
            match world.control::<TcpReply>(Self::server(), 0, TcpControl::AcceptedOn { port: 80 })
            {
                TcpReply::MaybeConn(Some(c)) => c,
                _ => return,
            };
        let data = world
            .control::<TcpReply>(Self::server(), 0, TcpControl::RecvTake { conn: sconn })
            .expect_data();
        let now = world.now();
        world.trace_mut().record(
            now,
            Self::server(),
            "testgen",
            DeliveredStream {
                conn: sconn.0,
                data,
            },
        );
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![
            Box::new(TcpPrefixOracle {
                expected: self.payload(),
            }),
            Box::new(TcpNoSilentCloseOracle),
            Box::new(TcpRtoBoundsOracle::default()),
        ]
    }

    fn verdict(&self, world: &mut World) -> Verdict {
        let Some((_, _, stream)) = world
            .trace()
            .iter_of::<DeliveredStream>()
            .find(|(_, node, _)| *node == Self::server())
        else {
            return Verdict::Degraded("connection never established".to_string());
        };
        if stream.data.len() == self.payload_len {
            Verdict::Pass
        } else {
            Verdict::Degraded(format!(
                "only {}/{} bytes arrived",
                stream.data.len(),
                self.payload_len
            ))
        }
    }
}

// ---------------------------------------------------------------------
// 2PC target
// ---------------------------------------------------------------------

/// A coordinator plus three participants running one transaction. Every
/// node's PFI layer is a fault site (site index = node index);
/// grid-generated cases fault participant 1.
///
/// Invariant: **decision agreement** — no two nodes ever apply conflicting
/// decisions for the same transaction. Faults may block participants or
/// abort the transaction (degradation), never split the decision.
#[derive(Debug, Clone, Default)]
pub struct TpcTarget;

impl TestTarget for TpcTarget {
    fn name(&self) -> &'static str {
        "tpc"
    }

    fn seed(&self) -> u64 {
        555
    }

    fn node_count(&self) -> u32 {
        4
    }

    fn flow_model(&self) -> Option<crate::reach::FlowModel> {
        Some(crate::reach::FlowModel::two_phase_commit())
    }

    fn fault_sites(&self) -> u32 {
        4
    }

    fn primary_site(&self) -> usize {
        1 // grid cases fault participant 1
    }

    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }

    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        let mut world = World::new(self.seed());
        for _ in 0..4 {
            world.add_node(vec![
                Box::new(TpcLayer::default()),
                Box::new(pfi_core::PfiLayer::new(Box::new(TpcStub))),
                Box::new(RudpLayer::default()),
            ]);
        }
        let sites = (0..4).map(|i| (NodeId::new(i), 1)).collect();
        (world, sites)
    }

    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        let participants: Vec<NodeId> = (1..4).map(NodeId::new).collect();
        world.control::<TpcReply>(
            NodeId::new(0),
            0,
            TpcControl::Begin {
                txid: 1,
                participants,
            },
        );
        let ran = world.run_for_capped(SimDuration::from_secs(60), limits.event_cap);
        ran == limits.event_cap
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![Box::new(TpcAtomicityOracle)]
    }

    fn verdict(&self, world: &mut World) -> Verdict {
        let mut decision: Option<bool> = None;
        let mut blocked = 0usize;
        for i in 0..4 {
            let at_node = world
                .trace()
                .iter_of::<TpcEvent>()
                .filter(|(_, node, _)| *node == NodeId::new(i));
            for (_, _, e) in at_node {
                match e {
                    TpcEvent::DecisionApplied { commit, .. }
                    | TpcEvent::DecisionMade { commit, .. } => {
                        decision.get_or_insert(*commit);
                    }
                    TpcEvent::Blocked { .. } => blocked += 1,
                    _ => {}
                }
            }
        }
        if blocked > 0 {
            return Verdict::Degraded(format!("{blocked} participant(s) blocked in uncertainty"));
        }
        match decision {
            Some(true) => Verdict::Pass,
            Some(false) => Verdict::Degraded("transaction aborted".to_string()),
            None => Verdict::Degraded("no decision reached".to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// Chaos wrapper (resilience testing)
// ---------------------------------------------------------------------

/// Wraps any target and appends a
/// [`ChaosPanicOracle`](crate::oracle::ChaosPanicOracle) to its oracles —
/// an oracle that panics instead of judging whenever the run dropped a
/// message. This is the fault the campaign *itself* is tested against:
/// a resilient campaign contains every panic as [`Verdict::Crashed`],
/// keeps each crashed run's coverage, and finishes. Used by resilience
/// tests and `pfi-campaign --inject-panic`.
#[derive(Clone)]
pub struct ChaosOracleTarget {
    /// The real target being sabotaged.
    pub inner: Arc<dyn TestTarget>,
}

impl TestTarget for ChaosOracleTarget {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn fault_sites(&self) -> u32 {
        self.inner.fault_sites()
    }

    fn primary_site(&self) -> usize {
        self.inner.primary_site()
    }

    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        self.inner.build()
    }

    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        self.inner.drive(world, limits)
    }

    fn harvest(&self, world: &mut World) {
        self.inner.harvest(world)
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        let mut oracles = self.inner.oracles();
        oracles.push(Box::new(crate::oracle::ChaosPanicOracle));
        oracles
    }

    fn verdict(&self, world: &mut World) -> Verdict {
        self.inner.verdict(world)
    }

    fn flow_model(&self) -> Option<crate::reach::FlowModel> {
        self.inner.flow_model()
    }

    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// The bundled protocols
// ---------------------------------------------------------------------

/// The names [`bundled`] answers to.
pub const BUNDLED: [&str; 3] = ["gmp", "tcp", "tpc"];

/// The protocol table: the specification and target bundled under `proto`,
/// or `None` for a name outside [`BUNDLED`]. `buggy` (the paper's seeded
/// implementation bugs) and `fault_secs` (the fault window, virtual
/// seconds) configure the gmp target and mean nothing to the others.
/// Every front end — `pfi-campaign`, `pfi-lint`, the pfi-serve wire and
/// CLI — resolves protocol names here and refuses the rest with
/// [`unknown_protocol`].
pub fn bundled(
    proto: &str,
    buggy: bool,
    fault_secs: u64,
) -> Option<(ProtocolSpec, Arc<dyn TestTarget>)> {
    Some(match proto {
        "gmp" => {
            let bugs = if buggy {
                GmpBugs::all()
            } else {
                GmpBugs::none()
            };
            (
                ProtocolSpec::gmp(),
                Arc::new(GmpTarget { bugs, fault_secs }),
            )
        }
        "tcp" => (ProtocolSpec::tcp(), Arc::new(TcpTarget::default())),
        "tpc" => (ProtocolSpec::two_phase_commit(), Arc::new(TpcTarget)),
        _ => return None,
    })
}

/// The refusal for a protocol name [`bundled`] does not know.
pub fn unknown_protocol(proto: &str) -> String {
    format!(
        "unknown protocol {proto:?} (expected one of: {})",
        BUNDLED.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultOp, FaultSchedule, ScheduledFault};

    fn drop_heartbeats() -> FaultSchedule {
        FaultSchedule {
            faults: vec![ScheduledFault {
                site: 1,
                dir: Direction::Receive,
                op: FaultOp::DropAll {
                    msg_type: "HEARTBEAT".to_string(),
                },
            }],
        }
    }

    /// One row per bundled name: the target answers to it, the spec and
    /// flow model are that protocol's, and the topology counts are the
    /// ones `pfi-lint` used to keep as literals of its own.
    #[test]
    fn bundled_table_agrees_with_the_targets_row_by_row() {
        use crate::reach::FlowModel;
        let rows = [
            (ProtocolSpec::gmp(), FlowModel::gmp(), 3, 3),
            (ProtocolSpec::tcp(), FlowModel::tcp(), 2, 1),
            (
                ProtocolSpec::two_phase_commit(),
                FlowModel::two_phase_commit(),
                4,
                4,
            ),
        ];
        assert_eq!(BUNDLED.len(), rows.len());
        for (name, (spec, model, nodes, sites)) in BUNDLED.into_iter().zip(rows) {
            let (got_spec, target) = bundled(name, false, 60).expect(name);
            assert_eq!(target.name(), name);
            assert_eq!(got_spec, spec, "{name}");
            assert_eq!(got_spec.name, name);
            assert_eq!(target.flow_model(), Some(model), "{name}");
            assert_eq!(
                (target.node_count(), target.fault_sites()),
                (nodes, sites),
                "{name}"
            );
        }
        assert!(bundled("smtp", false, 60).is_none());
        for name in BUNDLED {
            assert!(unknown_protocol("smtp").contains(name));
        }
        // `buggy` reaches the gmp target: only the seeded bugs let a
        // member that cannot send heartbeats declare itself dead.
        let mut mute = drop_heartbeats();
        mute.faults[0].dir = Direction::Send;
        for buggy in [false, true] {
            let (_, gmp) = bundled("gmp", buggy, 60).unwrap();
            let verdict = run_schedule(gmp.as_ref(), &mute).verdict;
            assert_eq!(verdict.is_violation(), buggy, "{verdict:?}");
        }
    }

    #[test]
    fn chaos_oracle_panic_is_contained_as_crashed_with_coverage() {
        let target = ChaosOracleTarget {
            inner: Arc::new(GmpTarget::default()),
        };
        let run = run_schedule(&target, &drop_heartbeats());
        assert!(
            run.verdict.is_crashed(),
            "expected Crashed, got {:?}",
            run.verdict
        );
        assert!(run.verdict.is_infrastructure());
        let Verdict::Crashed(msg) = &run.verdict else {
            unreachable!()
        };
        assert!(
            msg.contains("chaos oracle injected panic"),
            "panic payload text must survive containment: {msg}"
        );
        assert!(
            !run.coverage.is_empty(),
            "a crashed run must still salvage its pre-crash coverage"
        );
    }

    #[test]
    fn chaos_oracle_judges_fault_free_baselines_clean() {
        let target = ChaosOracleTarget {
            inner: Arc::new(GmpTarget::default()),
        };
        let run = run_schedule(&target, &FaultSchedule::empty());
        assert!(
            !run.verdict.is_infrastructure(),
            "no drops, no panic: got {:?}",
            run.verdict
        );
    }

    #[test]
    fn event_cap_escalates_to_hung() {
        // A tiny event cap truncates the drive immediately.
        let run = run_schedule_limited(
            &GmpTarget::default(),
            &FaultSchedule::empty(),
            &RunLimits {
                event_cap: 10,
                step_budget: 0,
            },
        );
        assert!(
            run.verdict.is_hung(),
            "expected Hung, got {:?}",
            run.verdict
        );
    }

    #[test]
    fn snapshotted_run_is_byte_identical_to_cold_and_reuses_the_base() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let schedule = drop_heartbeats();
        let mut store = SnapshotStore::default();
        // First run misses, captures the base, runs cold.
        let first = run_schedule_snapshotted(&target, &schedule, &limits, Some(&mut store));
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().stored, 1);
        // Second run (different schedule, same base) forks.
        let second =
            run_schedule_snapshotted(&target, &FaultSchedule::empty(), &limits, Some(&mut store));
        assert_eq!(store.stats().hits, 1);
        assert!(
            store.stats().events_skipped > 0,
            "the fork skipped the build phase"
        );
        // Both are byte-identical to their cold counterparts.
        let cold_first = run_schedule_limited(&target, &schedule, &limits);
        let cold_second = run_schedule_limited(&target, &FaultSchedule::empty(), &limits);
        for (snap, cold) in [(&first, &cold_first), (&second, &cold_second)] {
            assert_eq!(snap.verdict, cold.verdict);
            assert_eq!(snap.oracle, cold.oracle);
            assert_eq!(
                snap.coverage.edges().collect::<Vec<_>>(),
                cold.coverage.edges().collect::<Vec<_>>()
            );
            assert_eq!(snap.scripts, cold.scripts);
        }
        // A third run of the faulted schedule also forks and still matches.
        let third = run_schedule_snapshotted(&target, &schedule, &limits, Some(&mut store));
        assert_eq!(store.stats().hits, 2);
        assert_eq!(third.verdict, cold_first.verdict);
        assert_eq!(
            third.coverage.edges().collect::<Vec<_>>(),
            cold_first.coverage.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn invalid_schedules_never_touch_the_snapshot_store() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let mut store = SnapshotStore::default();
        // Both scramble classes: an out-of-topology site and a
        // parse-breaking message type.
        let bad_site = FaultSchedule {
            faults: vec![ScheduledFault {
                site: 99,
                dir: Direction::Send,
                op: FaultOp::DropAll {
                    msg_type: "HEARTBEAT".to_string(),
                },
            }],
        };
        let bad_parse = FaultSchedule {
            faults: vec![ScheduledFault {
                site: 1,
                dir: Direction::Send,
                op: FaultOp::DropAll {
                    msg_type: "H}EARTBEAT".to_string(),
                },
            }],
        };
        for bad in [&bad_site, &bad_parse] {
            let run = run_schedule_snapshotted(&target, bad, &limits, Some(&mut store));
            assert!(run.verdict.is_invalid(), "{:?}", run.verdict);
        }
        // Scrambles also never *come from* the store's perspective: no
        // lookups, no captures, no stats movement at all.
        assert!(store.base.is_none());
        assert_eq!(store.stats(), &crate::snapshot::SnapshotStats::default());
        // ScheduleMutator's scramble mutants hit the same refusal.
        let mutator = crate::schedule::ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = pfi_sim::SimRng::seed_from(3);
        let mut scrambles = 0usize;
        for _ in 0..100 {
            let child = mutator.mutate(&FaultSchedule::empty(), 4, &mut rng);
            if crate::validate::schedule_is_installable(&child, target.fault_sites()) {
                continue;
            }
            scrambles += 1;
            let run = run_schedule_snapshotted(&target, &child, &limits, Some(&mut store));
            assert!(run.verdict.is_invalid());
        }
        assert!(scrambles > 0, "no scramble mutants in 100 draws");
        assert!(
            store.base.is_none(),
            "scramble mutants must never enter the store"
        );
        assert_eq!(store.stats(), &crate::snapshot::SnapshotStats::default());
    }

    /// A store whose base was captured by a fault-free baseline run of
    /// `target` under `limits` — what a campaign's candidates fork.
    fn store_after_baseline(target: &dyn TestTarget, limits: &RunLimits) -> SnapshotStore {
        let mut store = SnapshotStore::default();
        run_schedule_snapshotted(target, &FaultSchedule::empty(), limits, Some(&mut store));
        assert_eq!(store.stats().stored, 1);
        store
    }

    /// Runs hand-written `send`/`recv` filters on gmp site 1 through the
    /// forking path and cold; the two outcomes must be equal. Returns the
    /// forked run and whether it was replayed instead of driven.
    fn forked_and_cold(send: &str, recv: &str, limits: &RunLimits) -> (ScheduleRun, bool) {
        let target = GmpTarget {
            fault_secs: 5,
            ..GmpTarget::default()
        };
        let lowered = Lowered::check(
            format!("send {send:?} recv {recv:?}"),
            vec![SiteScripts {
                site: 1,
                send: send.to_string(),
                recv: recv.to_string(),
            }],
            target.fault_sites(),
        );
        assert_eq!(lowered.install_errors, Vec::<String>::new());
        let mut store = store_after_baseline(&target, limits);
        assert!(
            store.base.as_ref().unwrap().baseline.is_some(),
            "a clean baseline leaves its recording with the base"
        );
        let forked = execute(&target, lowered.clone(), limits, Some(&mut store));
        let cold = execute(&target, lowered, limits, None);
        assert_eq!(forked.verdict, cold.verdict, "{send:?} / {recv:?}");
        assert_eq!(forked.oracle, cold.oracle, "{send:?} / {recv:?}");
        assert_eq!(forked.coverage, cold.coverage, "{send:?} / {recv:?}");
        (forked, store.stats().replayed == 1)
    }

    /// Filters whose only effect leaves by a side channel — no verdict, no
    /// duplicate, nothing `Effects` used to show — must each be classified
    /// as acting: every one of them changes what a run leaves behind (the
    /// packet log, a board, the RNG stream every later draw sees, a timer
    /// in the queue, the bytes the protocol parses, a `ScriptFailed`
    /// record).
    #[test]
    fn filters_acting_only_through_a_side_channel_are_driven() {
        let unlimited = RunLimits::default();
        let budgeted = RunLimits {
            step_budget: 500,
            ..unlimited
        };
        for (recv, limits) in [
            ("msg_log", &unlimited),
            ("global_set seen 1", &unlimited),
            ("coin 0.5", &unlimited),
            ("xAfter 100 {set fired 1}", &unlimited),
            ("msg_set_byte 0 255", &unlimited),
            ("while {1} {incr spin}", &budgeted),
            ("error boom", &unlimited),
            ("no_such_command", &unlimited),
        ] {
            let (run, replayed) = forked_and_cold("", recv, limits);
            assert!(!replayed, "{recv:?} acts and must be driven");
            if recv.starts_with("while") {
                assert!(run.verdict.is_hung(), "{recv:?}: {:?}", run.verdict);
            }
        }
    }

    /// Filters that stay inside their interpreter pair may be classified
    /// either way; what `execute` returns must equal the driven run's.
    #[test]
    fn filters_staying_inside_the_interpreter_pair_keep_the_driven_outcome() {
        let limits = RunLimits::default();
        // Counts messages, reads the clock and the message, decides
        // nothing: never acts, so it is the baseline's run.
        let (run, replayed) = forked_and_cold(
            "incr sent",
            "incr seen; set t [now_ms]; set ty [msg_type]; xPass",
            &limits,
        );
        assert!(replayed, "a pure observer re-simulates the baseline");
        assert_eq!(run.verdict, Verdict::Pass);
        // Writes back the byte that is already there.
        forked_and_cold("", "msg_set_byte 0 [msg_byte 0]", &limits);
        // The send side sets a variable; the receive side of the same site
        // reads it through the peer interpreter and starts dropping. The
        // probe has to evaluate both directions in recorded order on the
        // one interpreter pair to see the drop coming.
        let (_, replayed) = forked_and_cold(
            "set armed 1",
            "if {[peer_get armed 0] == 1} { xDrop }",
            &limits,
        );
        assert!(!replayed, "the armed receive filter drops");
    }

    /// The baseline's outcome is only handed on when the baseline ended
    /// without crash or hang: a capped, hung or crashed baseline leaves no
    /// recording, and every candidate is driven.
    #[test]
    fn a_crashed_hung_or_capped_baseline_is_never_replayed() {
        /// GMP, but the service verdict panics.
        #[derive(Clone)]
        struct VerdictPanics(GmpTarget);
        impl TestTarget for VerdictPanics {
            fn name(&self) -> &'static str {
                "gmp-verdict-panics"
            }
            fn seed(&self) -> u64 {
                self.0.seed()
            }
            fn node_count(&self) -> u32 {
                self.0.node_count()
            }
            fn fault_sites(&self) -> u32 {
                self.0.fault_sites()
            }
            fn build(&self) -> (World, Vec<(NodeId, usize)>) {
                self.0.build()
            }
            fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
                self.0.drive(world, limits)
            }
            fn oracles(&self) -> Vec<Box<dyn Oracle>> {
                self.0.oracles()
            }
            fn verdict(&self, _world: &mut World) -> Verdict {
                panic!("verdict sabotage")
            }
            fn share(&self) -> Arc<dyn TestTarget> {
                Arc::new(self.clone())
            }
        }

        let gmp = GmpTarget {
            fault_secs: 5,
            ..GmpTarget::default()
        };
        let capped = RunLimits {
            event_cap: 10,
            step_budget: 0,
        };
        let crashing = VerdictPanics(gmp.clone());
        let cases: [(&dyn TestTarget, RunLimits); 2] =
            [(&gmp, capped), (&crashing, RunLimits::default())];
        for (target, limits) in cases {
            let mut store = SnapshotStore::default();
            let empty = FaultSchedule::empty();
            let baseline = run_schedule_snapshotted(target, &empty, &limits, Some(&mut store));
            let expected = limits == capped;
            assert_eq!(
                baseline.verdict.is_hung(),
                expected,
                "{:?}",
                baseline.verdict
            );
            assert_eq!(baseline.verdict.is_crashed(), !expected);
            assert!(store.base.as_ref().unwrap().baseline.is_none());
            // The fault-free schedule again: nothing can act, and still it
            // is driven.
            let again = run_schedule_snapshotted(target, &empty, &limits, Some(&mut store));
            assert_eq!(store.stats().hits, 1);
            assert_eq!(store.stats().replayed, 0);
            assert_eq!(again.verdict, baseline.verdict);
        }
        // A base captured by a *faulted* run has no baseline either: what
        // its sites saw was not fault-free traffic.
        let mut store = SnapshotStore::default();
        run_schedule_snapshotted(&gmp, &drop_heartbeats(), &capped, Some(&mut store));
        assert!(store.base.as_ref().unwrap().baseline.is_none());
        // And the clean case, for contrast: the same second run is replayed.
        let limits = RunLimits::default();
        let mut store = store_after_baseline(&gmp, &limits);
        run_schedule_snapshotted(&gmp, &FaultSchedule::empty(), &limits, Some(&mut store));
        assert_eq!(store.stats().replayed, 1);
    }

    #[test]
    fn step_budget_watchdog_escalates_to_hung() {
        // No FaultOp lowers to a looping script, so drive the private
        // execute path directly with one.
        let script = SiteScripts {
            site: 1,
            send: String::new(),
            recv: "while {1} {incr spin}".to_string(),
        };
        let target = GmpTarget::default();
        let limits = RunLimits {
            event_cap: DRIVE_EVENT_CAP,
            step_budget: 500,
        };
        let spin = Lowered::check("spin".to_string(), vec![script], target.fault_sites());
        let run = execute(&target, spin, &limits, None);
        let Verdict::Hung(msg) = &run.verdict else {
            panic!(
                "looping filter script must trip the step-budget watchdog, got {:?}",
                run.verdict
            )
        };
        assert!(
            msg.contains("watchdog"),
            "hung message names the cause: {msg}"
        );
        assert!(run.oracle.is_none());
        assert!(
            !run.coverage.is_empty(),
            "the run still ran (scripts fail open) and must yield coverage"
        );
    }
}
