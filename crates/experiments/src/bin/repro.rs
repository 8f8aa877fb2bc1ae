//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro            # all experiments
//! repro tcp1       # one experiment: tcp1..tcp5, gmp1..gmp4
//! ```

use pfi_experiments::report::{ascii_chart, series, yn, Table};
use pfi_experiments::{
    baseline, gmp_exp1, gmp_exp2, gmp_exp3, gmp_exp4, identify, tcp_exp1, tcp_exp2, tcp_exp3,
    tcp_exp4, tcp_exp5,
};
use pfi_tcp::TcpProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let tables: [(&str, fn()); 11] = [
        ("tcp1", table1),
        ("tcp2", table2_fig4),
        ("tcp3", table3),
        ("tcp4", table4),
        ("tcp5", exp5),
        ("gmp1", table5),
        ("gmp2", table6),
        ("gmp3", table7),
        ("gmp4", table8),
        ("identify", identification),
        ("baseline", baseline_comparison),
    ];
    for (name, table) in tables {
        if want(name) {
            table();
        }
    }
}

fn baseline_comparison() {
    let mut t = Table::new(
        "Baseline: crash-only active probing (Comer & Lin, paper §5)",
        &[
            "Vendor",
            "Retx (wire count)",
            "RST observed",
            "Intervals (s)",
        ],
    );
    for row in baseline::run_all() {
        t.row(&[
            row.vendor.clone(),
            row.retransmissions.to_string(),
            yn(row.reset_observed),
            series(&row.intervals, 7),
        ]);
    }
    println!("{}", t.render());
    let (passive, pfi) = baseline::adaptability_distinguishability();
    println!(
        "technique gap: passive crash probing distinguishes an RTT-adaptive stack \
         from a non-adaptive one: {} — the PFI delayed-ACK experiment: {}",
        yn(passive),
        yn(pfi)
    );
    println!("({})\n", baseline::monitoring_limitation());
}

fn identification() {
    let mut t = Table::new(
        "Vendor identification from behaviour alone (paper aspect iii)",
        &[
            "Actual",
            "Identified as",
            "Correct",
            "Retx",
            "RST",
            "KA threshold (s)",
            "KA garbage",
        ],
    );
    for row in identify::run_all() {
        t.row(&[
            row.actual.clone(),
            row.identified.to_string(),
            yn(row.correct),
            row.fingerprint.data_retransmissions.to_string(),
            yn(row.fingerprint.reset_on_timeout),
            format!("{:.0}", row.fingerprint.keepalive_threshold_secs),
            row.fingerprint.keepalive_garbage_bytes.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn table1() {
    let mut t = Table::new(
        "Table 1: TCP Retransmission Timeout Results (drop all incoming after 30 packets)",
        &[
            "Vendor",
            "Retx",
            "Upper bound (s)",
            "Exponential",
            "RST sent",
            "Intervals (s)",
        ],
    );
    for row in tcp_exp1::run_all() {
        t.row(&[
            row.vendor.clone(),
            row.retransmissions.to_string(),
            format!("{:.1}", row.rto_upper_bound_secs),
            yn(row.exponential_backoff),
            yn(row.reset_sent),
            series(&row.intervals, 8),
        ]);
    }
    println!("{}", t.render());
}

fn table2_fig4() {
    let mut t = Table::new(
        "Table 2 / Figure 4: Retransmission timeouts with delayed ACKs",
        &[
            "Vendor",
            "ACK delay (s)",
            "First retx (s)",
            "Adapted",
            "RTO series (s)",
        ],
    );
    for row in tcp_exp2::run_all() {
        t.row(&[
            row.vendor.clone(),
            row.ack_delay_secs.to_string(),
            format!("{:.2}", row.first_retx_gap_secs),
            yn(row.adapted),
            series(&row.series, 7),
        ]);
    }
    println!("{}", t.render());

    // Figure 4 proper: retransmission timeout value vs retransmission
    // number, one graph per injected delay.
    for delay in [0u64, 3, 8] {
        let sun = tcp_exp2::run_delay(TcpProfile::sunos_4_1_3(), delay);
        let sol = tcp_exp2::run_delay(TcpProfile::solaris_2_3(), delay);
        let chart = ascii_chart(
            &format!("Figure 4 ({delay} s ACK delay): RTO (s) per retransmission"),
            &[
                ("BSD family (SunOS)", &sun.series),
                ("Solaris 2.3", &sol.series),
            ],
            12,
        );
        println!("{chart}");
    }

    let mut p = Table::new(
        "Global error counter probe (one ACK delayed 35 s, everything after dropped)",
        &["Vendor", "m1 retx", "m2 retx", "Connection dropped"],
    );
    for probe in [
        tcp_exp2::run_counter_probe(TcpProfile::solaris_2_3()),
        tcp_exp2::run_counter_probe(TcpProfile::sunos_4_1_3()),
    ] {
        p.row(&[
            probe.vendor.clone(),
            probe.m1_retx.to_string(),
            probe.m2_retx.to_string(),
            yn(probe.closed),
        ]);
    }
    println!("{}", p.render());
}

fn table3() {
    let mut t = Table::new(
        "Table 3: TCP Keep-alive Results (probes dropped)",
        &[
            "Vendor",
            "First probe (s)",
            "Probes",
            "Garbage bytes",
            "RST",
            "Spec violation",
        ],
    );
    for row in tcp_exp3::run_all() {
        t.row(&[
            row.vendor.clone(),
            format!("{:.0}", row.first_probe_secs),
            row.probes.to_string(),
            row.garbage_bytes.to_string(),
            yn(row.reset_sent),
            yn(row.spec_violation),
        ]);
    }
    println!("{}", t.render());

    let mut v = Table::new(
        "Table 3 variation: probes ACKed (indefinite probing at the idle interval)",
        &[
            "Vendor",
            "Observed (h)",
            "Probes",
            "Mean interval (s)",
            "Still open",
        ],
    );
    for row in tcp_exp3::run_all_acked() {
        v.row(&[
            row.vendor.clone(),
            row.observed_hours.to_string(),
            row.probes.to_string(),
            format!("{:.0}", row.mean_interval_secs),
            yn(row.still_open),
        ]);
    }
    println!("{}", v.render());
}

fn table4() {
    let mut t = Table::new(
        "Table 4: TCP Zero Window Probe Results (probes ACKed)",
        &["Vendor", "Probes", "Cap (s)", "Still probing", "Still open"],
    );
    for row in tcp_exp4::run_all() {
        t.row(&[
            row.vendor.clone(),
            row.probes.to_string(),
            format!("{:.0}", row.cap_secs),
            yn(row.still_probing),
            yn(row.still_open),
        ]);
    }
    println!("{}", t.render());

    let mut v = Table::new(
        "Table 4 variations: unACKed (90 min) and two-day unplug",
        &["Vendor", "Variant", "Probes", "Still probing", "Still open"],
    );
    for (profile, variant) in [
        (TcpProfile::sunos_4_1_3(), tcp_exp4::Exp4Variant::Unacked),
        (TcpProfile::solaris_2_3(), tcp_exp4::Exp4Variant::Unacked),
        (TcpProfile::aix_3_2_3(), tcp_exp4::Exp4Variant::Unplugged),
    ] {
        let row = tcp_exp4::run_vendor(profile, variant);
        v.row(&[
            row.vendor.clone(),
            format!("{:?}", row.variant),
            row.probes.to_string(),
            yn(row.still_probing),
            yn(row.still_open),
        ]);
    }
    println!("{}", v.render());
}

fn exp5() {
    let mut t = Table::new(
        "Experiment 5: Reordering of messages",
        &[
            "Vendor",
            "Queued OOO segment",
            "Single cumulative ACK",
            "Data intact",
        ],
    );
    for row in tcp_exp5::run_all() {
        t.row(&[
            row.vendor.clone(),
            yn(row.queued),
            yn(row.single_cumulative_ack),
            yn(row.data_intact),
        ]);
    }
    println!("{}", t.render());
}

fn table5() {
    let mut t = Table::new("Table 5: GMP Packet Interruption", &["Test", "Finding"]);
    let buggy = gmp_exp1::run_self_heartbeat(true);
    let fixed = gmp_exp1::run_self_heartbeat(false);
    t.row(&[
        "Drop heartbeats to self (buggy)".to_string(),
        format!(
            "declared self dead: {}, formed singleton: {}, still in others' view: {}",
            yn(buggy.declared_self_dead),
            yn(buggy.formed_singleton),
            yn(buggy.victim_still_in_others_view)
        ),
    ]);
    t.row(&[
        "Drop heartbeats to self (fixed)".to_string(),
        format!(
            "declared self dead: {}, formed singleton: {}",
            yn(fixed.declared_self_dead),
            yn(fixed.formed_singleton)
        ),
    ]);
    let susp = gmp_exp1::run_suspend(true);
    t.row(&[
        "Suspend gmd 30 s (buggy)".to_string(),
        format!("declared self dead: {}", yn(susp.declared_self_dead)),
    ]);
    let cycle = gmp_exp1::run_kick_cycle();
    t.row(&[
        "Drop heartbeats to others".to_string(),
        format!(
            "kicked out {} times, readmitted {} times",
            cycle.kicked_out, cycle.readmitted
        ),
    ]);
    let ack = gmp_exp1::run_drop_ack();
    t.row(&[
        "Drop ACKs of MEMBERSHIP_CHANGE".to_string(),
        format!(
            "ever admitted: {}, commit timeouts: {}, core group: {:?}",
            yn(ack.ever_admitted),
            ack.commit_timeouts,
            ack.core_group
        ),
    ]);
    let commit = gmp_exp1::run_drop_commit();
    t.row(&[
        "Drop COMMITs".to_string(),
        format!(
            "stuck in transition: {}, transiently admitted: {}, then kicked: {}",
            yn(commit.stuck_in_transition),
            yn(commit.transiently_admitted),
            yn(commit.kicked_after_admission)
        ),
    ]);
    println!("{}", t.render());
}

fn table6() {
    let mut t = Table::new(
        "Table 6: Network Partition Experiment",
        &["Test", "Finding"],
    );
    let part = gmp_exp2::run_partition_cycle();
    t.row(&[
        "Partition into two groups".to_string(),
        format!(
            "partitioned: {:?} | {:?}; healed: {:?}; repeated: {:?}",
            part.left_partition_view,
            part.right_partition_view,
            part.healed_view,
            part.second_partition_left
        ),
    ]);
    let lcp = gmp_exp2::run_leader_cp_separation();
    t.row(&[
        "Leader/Crown-prince separation".to_string(),
        format!(
            "leader's group: {:?}; crown prince: {:?}; CP transiently led: {}",
            lcp.leader_view,
            lcp.crown_prince_view,
            yn(lcp.cp_ever_led_others)
        ),
    ]);
    // Both of the paper's "two possible courses of action", forced
    // deterministically by delaying the losing contender's change.
    for (label, course) in [
        (
            "Forced course A (leader first)",
            gmp_exp2::Course::LeaderFirst,
        ),
        (
            "Forced course B (crown prince first)",
            gmp_exp2::Course::CrownPrinceFirst,
        ),
    ] {
        let row = gmp_exp2::run_leader_cp_separation_forced(course);
        t.row(&[
            label.to_string(),
            format!(
                "leader's group: {:?}; crown prince: {:?}; CP transiently led: {}",
                row.leader_view,
                row.crown_prince_view,
                yn(row.cp_ever_led_others)
            ),
        ]);
    }
    println!("{}", t.render());
}

fn table7() {
    let mut t = Table::new(
        "Table 7: Proclaim Forwarding Experiment",
        &["Variant", "Finding"],
    );
    for buggy in [true, false] {
        let row = gmp_exp3::run(buggy);
        t.row(&[
            if buggy { "buggy" } else { "fixed" }.to_string(),
            format!(
                "forwards: {}, answers→forwarder: {}, answers→originator: {}, admitted: {}",
                row.forwards,
                row.answers_to_forwarder,
                row.answers_to_originator,
                yn(row.newcomer_admitted)
            ),
        ]);
    }
    println!("{}", t.render());
}

fn table8() {
    let mut t = Table::new("Table 8: GMP Timer Test", &["Variant", "Finding"]);
    for buggy in [true, false] {
        let row = gmp_exp4::run(buggy);
        t.row(&[
            if buggy { "buggy" } else { "fixed" }.to_string(),
            format!(
                "entered transition: {}, spurious timer fires: {}",
                yn(row.entered_transition),
                row.spurious_timer_fires
            ),
        ]);
    }
    println!("{}", t.render());
}
