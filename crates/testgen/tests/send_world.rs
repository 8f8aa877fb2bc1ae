//! The Send boundary, exercised.
//!
//! Everything a fleet job carries — grid cases, typed fault schedules — is
//! plain data that crosses worker threads by *moving*, and a case executed
//! on a worker thread is byte-identical to the same case executed inline.
//! (`World: Send` itself is compile-asserted in `crates/sim/src/world.rs`.)

use std::sync::Arc;

use pfi_core::Direction;
use pfi_testgen::{
    generate, run_campaign, run_campaign_fleet, Campaign, FaultKind, FaultSchedule, GmpTarget,
    ProtocolSpec, TestCase,
};

const _: () = {
    const fn assert_send<T: Send>() {}
    // The two fleet job payload shapes: grid cases (run_campaign_fleet)
    // and typed fault schedules (explore_fleet).
    assert_send::<TestCase>();
    assert_send::<FaultSchedule>();
};

/// Grid cases shipped to fleet workers — each of which builds its own
/// world on its own thread — come back in campaign order, equal to the
/// single-threaded [`run_campaign`] case for case, in both filter
/// directions.
#[test]
fn grid_cases_cross_threads_without_drifting() {
    let target = GmpTarget::default();
    let full = generate(
        &ProtocolSpec::gmp(),
        &FaultKind::default_matrix(),
        &[Direction::Send, Direction::Receive],
    );
    // One case in five keeps both directions and every fault kind in play.
    let campaign = Campaign {
        cases: full.cases.iter().step_by(5).cloned().collect(),
        ..full
    };
    assert!(campaign.cases.iter().any(|c| c.dir == Direction::Send));
    assert!(campaign.cases.iter().any(|c| c.dir == Direction::Receive));

    let inline = run_campaign(&target, &campaign);
    let (shipped, report) = run_campaign_fleet(Arc::new(target), &campaign, 3);
    assert_eq!(report.executed() as usize, campaign.len());
    assert_eq!(shipped.len(), inline.len());
    for (got, want) in shipped.iter().zip(&inline) {
        assert_eq!(got.case_id, want.case_id);
        assert_eq!(got.script, want.script, "{}", want.case_id);
        assert_eq!(got.verdict, want.verdict, "{}", want.case_id);
        assert_eq!(got.oracle, want.oracle, "{}", want.case_id);
        assert_eq!(got.coverage, want.coverage, "{}", want.case_id);
        assert!(!got.coverage.is_empty(), "{} covered nothing", want.case_id);
    }
}
