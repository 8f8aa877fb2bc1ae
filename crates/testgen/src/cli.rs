//! The command line of `pfi-campaign`, `pfi-serve` and `pfi-lint`: one
//! strict, table-driven flag parser, and the campaign flags the first two
//! share. A campaign reads the same from either front end because both
//! turn their flags into [`CampaignParams`] here.

use std::collections::BTreeMap;

use crate::runner::{unknown_protocol, CampaignParams, BUNDLED};

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: a switch.
    Nothing,
    /// A non-negative integer.
    Number,
    /// Any word that does not begin with `--`.
    Text,
}

/// The flags that describe a campaign ([`Flags::campaign`]), after the
/// protocol name: its target, then the outcome inputs of its exploration.
pub const CAMPAIGN_FLAGS: [(&str, Takes); 8] = [
    ("--buggy", Takes::Nothing),
    ("--fault-secs", Takes::Number),
    ("--seed", Takes::Number),
    ("--budget", Takes::Number),
    ("--max-faults", Takes::Number),
    ("--epoch", Takes::Number),
    ("--step-budget", Takes::Number),
    ("--no-snapshots", Takes::Nothing),
];

/// [`CAMPAIGN_FLAGS`] as both tools' `--help` lists them.
pub const CAMPAIGN_HELP: &str = "\
CAMPAIGN FLAGS (the same for pfi-campaign and pfi-serve submit):
    --buggy           gmp with the paper's seeded implementation bugs
    --fault-secs N    gmp fault-window length in virtual seconds (default 60;
                      5 is the loop-heavy shallow corpus)
    --seed N          exploration RNG seed
    --budget N        exploration mutation budget
    --max-faults N    cap on faults per generated schedule (at least 1)
    --epoch N         candidates per dispatch epoch (at least 1; the
                      determinism unit: outcomes depend on it, never on the
                      worker count; 1 = classic sequential walk)
    --step-budget N   interpreter steps one filter evaluation may take (the
                      budget refills for every message); a script that
                      burns it out reports the run as HUNG
    --no-snapshots    rebuild every candidate's world instead of forking the
                      fault-free world captured once, and drive every one
                      (same digest either way; see pfi-campaign --stats)
";

/// A command line with every argument accounted for.
#[derive(Debug, Default)]
pub struct Flags {
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
    /// Each flag given, with its values in order (none for a switch).
    given: BTreeMap<&'static str, Vec<String>>,
}

impl Flags {
    /// Reads `args` against `table`, refusing what it does not list: an
    /// unknown flag, a flag without its value (a value may not begin with
    /// `--`), a number that does not parse, and a positional argument past
    /// the first `max_positional`. The error names the argument.
    pub fn parse(
        args: &[String],
        table: &[(&'static str, Takes)],
        max_positional: usize,
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if let Some(&(name, takes)) = table.iter().find(|(name, _)| name == arg) {
                let values = flags.given.entry(name).or_default();
                if takes == Takes::Nothing {
                    continue;
                }
                let value = rest
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} needs a value"))?;
                if takes == Takes::Number && value.parse::<u64>().is_err() {
                    return Err(format!(
                        "{name} takes a non-negative integer, not {value:?}"
                    ));
                }
                values.push(value.clone());
            } else if arg.starts_with('-') || flags.positional.len() == max_positional {
                return Err(format!("unrecognised argument {arg:?}"));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    /// Whether the flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// Every value given to the flag `name`, in order.
    pub fn texts(&self, name: &str) -> &[String] {
        self.given.get(name).map_or(&[], Vec::as_slice)
    }

    /// The last value given to the flag `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.texts(name).last().map(String::as_str)
    }

    /// The last value given to the number flag `name`.
    pub fn number(&self, name: &str) -> Option<u64> {
        self.text(name)
            .map(|v| v.parse().expect("checked by parse"))
    }

    /// `--jobs N`, resolved: 0 or no flag at all auto-detects the host's
    /// available parallelism.
    pub fn jobs(&self) -> usize {
        match self.number("--jobs") {
            Some(0) | None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Some(jobs) => jobs as usize,
        }
    }

    /// The campaign the first positional argument (the protocol, default
    /// gmp) and [`CAMPAIGN_FLAGS`] describe. A count that must be at least
    /// one (`--epoch`, `--max-faults`) is raised to one.
    pub fn campaign(&self) -> Result<CampaignParams, String> {
        let mut params = CampaignParams::default();
        if let Some(proto) = self.positional.first() {
            if !BUNDLED.contains(&proto.as_str()) {
                return Err(unknown_protocol(proto));
            }
            params.proto = proto.clone();
        }
        params.buggy = self.has("--buggy");
        params.snapshots = !self.has("--no-snapshots");
        let number = |name, default| self.number(name).unwrap_or(default);
        params.fault_secs = number("--fault-secs", params.fault_secs);
        params.seed = number("--seed", params.seed);
        params.budget = number("--budget", params.budget as u64) as usize;
        params.max_faults = (number("--max-faults", params.max_faults as u64) as usize).max(1);
        params.epoch = (number("--epoch", params.epoch as u64) as usize).max(1);
        params.step_budget = number("--step-budget", params.step_budget);
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Flags, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        let table = [&CAMPAIGN_FLAGS[..], &[("--journal", Takes::Text)]].concat();
        Flags::parse(&args, &table, 1)
    }

    /// Both front ends read one campaign from one command line: the
    /// defaults of [`CampaignParams`], every flag (the last value of a
    /// repeated one), and one clamp rule. The refusals are pinned end to
    /// end, by the `pfi-campaign` and `pfi-serve submit` CLI tests.
    #[test]
    fn campaign_flags_fill_campaign_params() {
        assert_eq!(parse("").unwrap().campaign(), Ok(CampaignParams::default()));
        let flags = parse(
            "--seed 1 gmp --buggy --fault-secs 5 --seed 3 --budget 24 --max-faults 0 \
             --epoch 0 --step-budget 9 --no-snapshots --journal j",
        )
        .unwrap();
        assert_eq!(
            (flags.texts("--seed"), flags.text("--journal")),
            (&["1".to_string(), "3".to_string()][..], Some("j"))
        );
        let want = CampaignParams {
            proto: "gmp".into(),
            buggy: true,
            fault_secs: 5,
            seed: 3,
            budget: 24,
            max_faults: 1,
            epoch: 1,
            snapshots: false,
            step_budget: 9,
            share_corpus: false,
        };
        assert_eq!(flags.campaign(), Ok(want));
        let foo = parse("foo").unwrap().campaign().unwrap_err();
        assert_eq!(foo, unknown_protocol("foo"));
        assert!(parse("gmp tcp").is_err() && parse("gmp --seed -1").is_err());
    }
}
