//! The variables of one scope: a small slot table.
//!
//! A filter holds a handful of counters, read and written on every
//! message. They live in one vector searched front to back — a few short
//! string comparisons, no hashing, nothing to walk. A script that builds a
//! large array (`seen($key)` over many keys) outgrows that, so past
//! [`LINEAR_MAX`] names an ordered index from name to slot takes over and
//! a lookup is logarithmic instead.

use std::collections::BTreeMap;

use crate::value::Value;

/// Names a scope holds before lookups go through the index.
const LINEAR_MAX: usize = 16;

#[derive(Debug, Default, Clone)]
pub(crate) struct Vars {
    slots: Vec<(Box<str>, Value)>,
    /// Name → position in `slots`; empty while `slots` is short enough to
    /// search.
    index: BTreeMap<Box<str>, usize>,
}

impl Vars {
    fn slot(&self, name: &str) -> Option<usize> {
        if self.index.is_empty() {
            self.slots.iter().position(|(n, _)| **n == *name)
        } else {
            self.index.get(name).copied()
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Value> {
        self.slot(name).map(|i| &self.slots[i].1)
    }

    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.slot(name).map(|i| &mut self.slots[i].1)
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.slot(name).is_some()
    }

    /// Sets `name`, creating it if need be; an existing name keeps its slot.
    pub(crate) fn set(&mut self, name: &str, value: Value) {
        if let Some(i) = self.slot(name) {
            self.slots[i].1 = value;
            return;
        }
        self.slots.push((name.into(), value));
        if !self.index.is_empty() {
            self.index.insert(name.into(), self.slots.len() - 1);
        } else if self.slots.len() > LINEAR_MAX {
            self.index = self
                .slots
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (n.clone(), i))
                .collect();
        }
    }

    /// Removes `name`; no-op if unset.
    pub(crate) fn remove(&mut self, name: &str) {
        let Some(i) = self.slot(name) else {
            return;
        };
        self.slots.swap_remove(i);
        if self.slots.len() <= LINEAR_MAX {
            self.index.clear();
        } else {
            self.index.remove(name);
            // The last slot moved into the gap.
            if let Some((moved, _)) = self.slots.get(i) {
                self.index.insert(moved.clone(), i);
            }
        }
    }

    /// Every variable, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.slots.iter().map(|(n, v)| (&**n, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: usize) -> String {
        format!("seen({i})")
    }

    /// The table agrees with a plain map through growth past the linear
    /// bound, overwrites, removals from both ends and the middle, and the
    /// way back down.
    #[test]
    fn behaves_like_a_map_at_every_size() {
        let mut vars = Vars::default();
        let mut model = BTreeMap::new();
        let check = |vars: &Vars, model: &BTreeMap<String, i64>| {
            let mut seen: Vec<_> = vars
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect();
            seen.sort_by(|a, b| a.0.cmp(&b.0));
            let want: Vec<_> = model
                .iter()
                .map(|(n, v)| (n.clone(), Value::Int(*v)))
                .collect();
            assert_eq!(seen, want);
            for (n, v) in model {
                assert_eq!(vars.get(n), Some(&Value::Int(*v)));
                assert!(vars.contains(n));
            }
            assert_eq!(vars.get("never set"), None);
        };
        for i in 0..3 * LINEAR_MAX {
            vars.set(&name(i), Value::Int(i as i64));
            model.insert(name(i), i as i64);
            check(&vars, &model);
        }
        for i in (0..3 * LINEAR_MAX).step_by(5) {
            vars.set(&name(i), Value::Int(-1));
            model.insert(name(i), -1);
            *vars.get_mut(&name(i + 1)).unwrap() = Value::Int(-2);
            model.insert(name(i + 1), -2);
        }
        check(&vars, &model);
        // Out of the middle, the front and the back, down to nothing.
        let order = (LINEAR_MAX..2 * LINEAR_MAX)
            .chain(0..LINEAR_MAX)
            .chain((2 * LINEAR_MAX..3 * LINEAR_MAX).rev());
        for i in order {
            vars.remove(&name(i));
            vars.remove(&name(i));
            model.remove(&name(i));
            check(&vars, &model);
        }
        assert_eq!(vars.iter().count(), 0);
    }
}
