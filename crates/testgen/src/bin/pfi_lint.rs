//! Standalone static analyzer for PFI artifacts: Tcl filter scripts,
//! fault-schedule text, and `pfi-repro` bundles.
//!
//! ```text
//! pfi-lint drop_acks.tcl                  # lint a filter script
//! pfi-lint --target tpc schedule.txt      # validate a fault schedule
//! pfi-lint failure.repro                  # validate a repro's schedule
//! pfi-lint --deny nondeterministic *.tcl  # promote a category to error
//! pfi-lint --spec gmp drop_acks.tcl       # + semantic reachability analysis
//! pfi-lint --spec gmp --grid              # lint the generated grid corpus
//! ```
//!
//! Input kind is sniffed per file (a `pfi-repro v1` header means a repro
//! artifact, a leading `nN ` fault line means schedule text, anything
//! else is a script) and can be forced with `--script` / `--schedule`.
//! Exit status is nonzero iff any finding is an error after `--deny` /
//! `--warn` adjustment.

use pfi_lint::{analyze_effects, render, Category, Diagnostic, Effect, Linter, Severity};
use pfi_testgen::{
    bundled, generate, unknown_protocol, validate_schedule, FaultKind, FaultSchedule, FlowModel,
    ProtocolSpec, Repro, ScheduleFinding, TestTarget, BUNDLED,
};

const HELP: &str = "pfi-lint — static analysis for PFI scripts and fault schedules

USAGE:
    pfi-lint [FLAGS] FILE...

Each FILE is sniffed: a `pfi-repro v1` header means a repro artifact
(its schedule is validated against the repro's own target), a leading
fault line (`n1 send drop-all HEARTBEAT`) means fault-schedule text,
anything else is linted as a PFI Tcl filter script.

FLAGS:
    --target NAME   topology for schedule text: gmp (default), tcp, tpc
    --spec NAME     run the semantic reachability pass too: every effectful
                    clause is checked against the named protocol\'s flow
                    model (message types, topology, wire-length bounds) and
                    a clause proven unable to fire gets an `inert-fault`
                    warning with the rule that proved it (promote with
                    `--deny inert-fault`)
    --grid          lint the generated grid campaign for the --spec protocol
                    instead of reading input files (CI corpus self-check)
    --script        treat every input as a Tcl filter script
    --schedule      treat every input as fault-schedule text
    --deny CAT      treat findings of category CAT as errors (repeatable)
    --warn CAT      treat findings of category CAT as warnings (repeatable)
    --help          this text

CATEGORIES:
    parse-error unknown-command bad-arity undef-var maybe-undef-var
    dead-code constant-condition nondeterministic dead-proc unused-param
    inert-fault
";

/// One row of the bundled protocol table: the topology schedule text is
/// validated against, the flow model `--spec` reads.
type Bundled = (ProtocolSpec, std::sync::Arc<dyn TestTarget>);

/// What to lint a given input as.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Sniff,
    Script,
    Schedule,
}

/// Applies `--deny` / `--warn` overrides to one diagnostic.
fn adjust(d: &mut Diagnostic, deny: &[Category], warn: &[Category]) {
    if deny.contains(&d.category) {
        d.severity = Severity::Error;
    } else if warn.contains(&d.category) {
        d.severity = Severity::Warning;
    }
}

fn lint_script(
    name: &str,
    src: &str,
    model: Option<&FlowModel>,
    deny: &[Category],
    warn: &[Category],
) -> (String, bool) {
    let mut diags = Linter::filter().lint(src);
    if let Some(model) = model {
        diags.extend(reachability_diags(src, model));
        diags.sort_by_key(|d| (d.span.line, d.span.col));
    }
    for d in &mut diags {
        adjust(d, deny, warn);
    }
    let failed = diags.iter().any(|d| d.severity == Severity::Error);
    (render(src, name, &diags), failed)
}

/// The `--spec` semantic pass: abstract-interprets the script into effect
/// clauses and asks the flow model which of them can never fire. A bare
/// script has no installation context, so placement-dependent rules stay
/// quiet (`None`); the corruption gate is fed by the script\'s own clauses
/// (a corrupting clause may rewrite the type byte a later guard reads).
fn reachability_diags(src: &str, model: &FlowModel) -> Vec<Diagnostic> {
    let Ok(effects) = analyze_effects(src) else {
        // Parse errors are the Linter\'s findings; nothing to add here.
        return Vec::new();
    };
    let self_corruption = effects
        .clauses
        .iter()
        .any(|c| c.effects.contains(Effect::Corrupt));
    effects
        .clauses
        .iter()
        .filter_map(|clause| {
            let (rule, why) = model.clause_unreachable(clause, None, self_corruption)?;
            Some(Diagnostic::new(
                Severity::Warning,
                Category::InertFault,
                clause.span,
                format!("fault can never fire: {why} [{rule}]"),
            ))
        })
        .collect()
}

/// `--grid`: regenerate the full grid campaign for the `--spec` protocol
/// and lint every script in it, semantic pass included. This is the CI
/// self-check that generated scripts never contain statically-dead faults.
fn lint_grid(spec: &ProtocolSpec, model: &FlowModel, deny: &[Category], warn: &[Category]) -> bool {
    let campaign = generate(
        spec,
        &FaultKind::default_matrix(),
        &[pfi_core::Direction::Send, pfi_core::Direction::Receive],
    );
    let mut failed = false;
    let mut findings = 0usize;
    for case in &campaign.cases {
        let (out, f) = lint_script(&case.id, &case.script, Some(model), deny, warn);
        if !out.is_empty() {
            print!("{out}");
            findings += 1;
        }
        failed |= f;
    }
    println!(
        "grid {}: {} script(s) linted, {} with findings",
        campaign.protocol,
        campaign.len(),
        findings
    );
    failed
}

fn print_findings(name: &str, findings: Vec<ScheduleFinding>) -> bool {
    let mut failed = false;
    for f in &findings {
        let at = match f.fault {
            Some(i) => format!(" (fault #{i})"),
            None => String::new(),
        };
        println!("{}: {}{at}", f.severity.as_str(), f.message);
        for d in &f.diagnostics {
            println!("  {d}");
        }
        failed |= f.severity == Severity::Error;
    }
    if findings.is_empty() {
        println!("{name}: clean");
    }
    failed
}

fn lint_schedule(
    name: &str,
    text: &str,
    target: &Bundled,
    deny: &[Category],
    warn: &[Category],
) -> bool {
    let lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let schedule = match FaultSchedule::from_lines(lines) {
        Ok(s) => s,
        Err(e) => {
            println!("error: {name} is not a fault schedule: {e}");
            return true;
        }
    };
    lint_schedule_parsed(name, &schedule, target, deny, warn)
}

fn lint_repro(name: &str, text: &str, deny: &[Category], warn: &[Category]) -> bool {
    let repro = match Repro::from_text(text) {
        Ok(r) => r,
        Err(e) => {
            println!("error: {name} is not a valid repro artifact: {e}");
            return true;
        }
    };
    println!(
        "{name}: target {}, {} fault(s), oracle {}",
        repro.target,
        repro.schedule.len(),
        repro.oracle
    );
    // A repro names its own target, whatever `--target` says.
    let Some(target) = bundled(&repro.target, false, 60) else {
        eprintln!("{name}: {}", unknown_protocol(&repro.target));
        return true;
    };
    lint_schedule_parsed(name, &repro.schedule, &target, deny, warn)
}

fn lint_schedule_parsed(
    name: &str,
    schedule: &FaultSchedule,
    (spec, target): &Bundled,
    deny: &[Category],
    warn: &[Category],
) -> bool {
    let mut findings = validate_schedule(schedule, spec, target.node_count(), target.fault_sites());
    for f in &mut findings {
        for d in &mut f.diagnostics {
            adjust(d, deny, warn);
        }
        if let Some(worst) = f.diagnostics.iter().map(|d| d.severity).max() {
            f.severity = worst;
        }
    }
    print_findings(name, findings)
}

/// Sniffs what kind of artifact a file holds (repro headers are handled
/// before this is consulted).
fn sniff(text: &str) -> Kind {
    let first = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'));
    match first {
        Some(l) => {
            let mut chars = l.chars();
            if chars.next() == Some('n') && chars.next().is_some_and(|c| c.is_ascii_digit()) {
                Kind::Schedule
            } else {
                Kind::Script
            }
        }
        None => Kind::Script,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }

    let mut kind = Kind::Sniff;
    let mut target = "gmp".to_string();
    let mut spec_target: Option<String> = None;
    let mut grid = false;
    let mut deny = Vec::new();
    let mut warn = Vec::new();
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--script" => kind = Kind::Script,
            "--schedule" => kind = Kind::Schedule,
            "--grid" => grid = true,
            "--target" => {
                i += 1;
                match args.get(i) {
                    Some(v) => target = v.clone(),
                    None => {
                        eprintln!("--target needs a value");
                        std::process::exit(2);
                    }
                }
            }
            "--spec" => {
                i += 1;
                match args.get(i) {
                    Some(v) => spec_target = Some(v.clone()),
                    None => {
                        eprintln!("--spec needs a protocol name ({})", BUNDLED.join(", "));
                        std::process::exit(2);
                    }
                }
            }
            flag @ ("--deny" | "--warn") => {
                i += 1;
                let Some(cat) = args.get(i).and_then(|v| Category::from_slug(v)) else {
                    eprintln!(
                        "{flag} needs a category; one of: {}",
                        Category::ALL
                            .iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    std::process::exit(2);
                };
                if flag == "--deny" {
                    deny.push(cat);
                } else {
                    warn.push(cat);
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?} (see --help)");
                std::process::exit(2);
            }
            path => files.push(path.to_string()),
        }
        i += 1;
    }
    // Both names are resolved before any file is read: a protocol the
    // table does not bundle is a usage error, not a finding.
    let resolve = |flag: &str, name: &str| {
        bundled(name, false, 60).unwrap_or_else(|| {
            eprintln!("{flag}: {}", unknown_protocol(name));
            std::process::exit(2);
        })
    };
    let target = resolve("--target", &target);
    let spec_target = spec_target.map(|t| resolve("--spec", &t));
    let model: Option<FlowModel> = spec_target
        .as_ref()
        .and_then(|(_, built)| built.flow_model());
    if grid {
        let (Some((spec, _)), Some(model)) = (&spec_target, &model) else {
            eprintln!("--grid needs --spec NAME to know which campaign to generate");
            std::process::exit(2);
        };
        let failed = lint_grid(spec, model, &deny, &warn);
        std::process::exit(if failed { 1 } else { 0 });
    }
    if files.is_empty() {
        eprintln!("no input files (see --help)");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let file_failed = if text.starts_with("pfi-repro v1") && kind == Kind::Sniff {
            lint_repro(path, &text, &deny, &warn)
        } else {
            let resolved = match kind {
                Kind::Sniff => sniff(&text),
                k => k,
            };
            match resolved {
                Kind::Schedule => lint_schedule(path, &text, &target, &deny, &warn),
                _ => {
                    let (out, f) = lint_script(path, &text, model.as_ref(), &deny, &warn);
                    if out.is_empty() {
                        println!("{path}: clean");
                    } else {
                        print!("{out}");
                    }
                    f
                }
            }
        };
        failed |= file_failed;
    }
    std::process::exit(if failed { 1 } else { 0 });
}
