//! The network model connecting node stacks.
//!
//! Links are directional, full-mesh by default, and configurable per pair:
//! base latency, jitter, random loss, administrative up/down (the paper's
//! "unplugged the ethernet" experiment), and partitions (GMP experiment 2).
//! This models only *benign* network behaviour; all targeted misbehaviour is
//! the PFI layer's job.

use std::collections::{HashMap, HashSet};

use crate::ids::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::trace::DropReason;

/// Configuration of one directional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Uniform jitter added on top of the base latency: each transit adds
    /// `uniform(0, jitter)`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently lost.
    pub loss: f64,
    /// Whether the link is up. A downed link drops everything.
    pub up: bool,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            up: true,
        }
    }
}

/// The outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transit {
    /// Deliver after this one-way delay.
    Deliver(SimDuration),
    /// The network dropped the message.
    Drop(DropReason),
}

/// The mesh of links between all nodes in a world.
///
/// # Examples
///
/// ```
/// use pfi_sim::{Network, NodeId, SimDuration};
///
/// let mut net = Network::new();
/// net.link_mut(NodeId::new(0), NodeId::new(1)).latency = SimDuration::from_millis(10);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    default_link: LinkConfig,
    overrides: HashMap<(NodeId, NodeId), LinkConfig>,
    /// Directional pairs blocked by the current partition, if any.
    partition_blocked: HashSet<(NodeId, NodeId)>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            default_link: self.default_link,
            overrides: self.overrides.clone(),
            partition_blocked: self.partition_blocked.clone(),
        }
    }

    /// Field by field, so [`World::restore`](crate::World::restore) keeps
    /// the tables' storage (a derived `clone_from` replaces the value).
    fn clone_from(&mut self, source: &Self) {
        self.default_link = source.default_link;
        self.overrides.clone_from(&source.overrides);
        self.partition_blocked.clone_from(&source.partition_blocked);
    }
}

impl Network {
    /// Creates a network where every pair of nodes is connected with the
    /// default link configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The link configuration used for pairs without an explicit override.
    pub fn default_link_mut(&mut self) -> &mut LinkConfig {
        &mut self.default_link
    }

    /// Mutable access to the directional link `src → dst`, creating an
    /// override from the default if none exists yet.
    pub fn link_mut(&mut self, src: NodeId, dst: NodeId) -> &mut LinkConfig {
        let default = self.default_link;
        self.overrides.entry((src, dst)).or_insert(default)
    }

    /// The effective configuration of the directional link `src → dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Takes both directions of the `a ↔ b` link down (unplugs the cable).
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        self.link_mut(a, b).up = false;
        self.link_mut(b, a).up = false;
    }

    /// Brings both directions of the `a ↔ b` link back up.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.link_mut(a, b).up = true;
        self.link_mut(b, a).up = true;
    }

    /// Isolates `node` from every other node (both directions) by taking
    /// its links down; bring them back with [`rejoin`](Network::rejoin).
    pub fn isolate(&mut self, node: NodeId, all: &[NodeId]) {
        for &other in all {
            if other != node {
                self.set_link_down(node, other);
            }
        }
    }

    /// Re-establishes links between `node` and every node in `all`.
    pub fn rejoin(&mut self, node: NodeId, all: &[NodeId]) {
        for &other in all {
            if other != node {
                self.set_link_up(node, other);
            }
        }
    }

    /// Installs a partition: messages may only flow between nodes in the
    /// same group. Replaces any previous partition. Nodes not listed in any
    /// group can still talk to everyone.
    pub fn set_partition(&mut self, groups: &[&[NodeId]]) {
        self.partition_blocked.clear();
        for (i, ga) in groups.iter().enumerate() {
            for (j, gb) in groups.iter().enumerate() {
                if i == j {
                    continue;
                }
                for &a in ga.iter() {
                    for &b in gb.iter() {
                        self.partition_blocked.insert((a, b));
                    }
                }
            }
        }
    }

    /// Removes the current partition.
    pub fn clear_partition(&mut self) {
        self.partition_blocked.clear();
    }

    /// Whether the pair is currently blocked by a partition.
    pub fn is_partitioned(&self, src: NodeId, dst: NodeId) -> bool {
        self.partition_blocked.contains(&(src, dst))
    }

    /// Feeds the full link configuration into a snapshot digest in a
    /// deterministic order (the override map and partition set are hashed
    /// sorted).
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::Fnv) {
        fn digest_link(h: &mut crate::snapshot::Fnv, l: &LinkConfig) {
            h.write_u64(l.latency.as_micros());
            h.write_u64(l.jitter.as_micros());
            h.write_u64(l.loss.to_bits());
            h.write(&[u8::from(l.up)]);
        }
        digest_link(h, &self.default_link);
        let mut overrides: Vec<(&(NodeId, NodeId), &LinkConfig)> = self.overrides.iter().collect();
        overrides.sort_by_key(|(k, _)| **k);
        h.write_usize(overrides.len());
        for ((src, dst), link) in overrides {
            h.write_u64(u64::from(src.as_u32()));
            h.write_u64(u64::from(dst.as_u32()));
            digest_link(h, link);
        }
        let mut blocked: Vec<(NodeId, NodeId)> = self.partition_blocked.iter().copied().collect();
        blocked.sort();
        h.write_usize(blocked.len());
        for (src, dst) in blocked {
            h.write_u64(u64::from(src.as_u32()));
            h.write_u64(u64::from(dst.as_u32()));
        }
    }

    /// Offers a message to the network and decides its fate.
    pub fn transit(&self, src: NodeId, dst: NodeId, rng: &mut SimRng) -> Transit {
        if self.is_partitioned(src, dst) {
            return Transit::Drop(DropReason::Partitioned);
        }
        let link = self.link(src, dst);
        if !link.up {
            return Transit::Drop(DropReason::LinkDown);
        }
        if link.loss > 0.0 && rng.coin(link.loss) {
            return Transit::Drop(DropReason::RandomLoss);
        }
        let mut delay = link.latency;
        if link.jitter > SimDuration::ZERO {
            let extra = rng.uniform(0.0, link.jitter.as_micros() as f64) as u64;
            delay += SimDuration::from_micros(extra);
        }
        Transit::Deliver(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn default_link_delivers_with_base_latency() {
        let net = Network::new();
        let mut rng = SimRng::seed_from(0);
        match net.transit(NodeId::new(0), NodeId::new(1), &mut rng) {
            Transit::Deliver(d) => assert_eq!(d, SimDuration::from_millis(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn downed_link_drops() {
        let mut net = Network::new();
        let n = ids(2);
        net.set_link_down(n[0], n[1]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            net.transit(n[0], n[1], &mut rng),
            Transit::Drop(DropReason::LinkDown)
        );
        assert_eq!(
            net.transit(n[1], n[0], &mut rng),
            Transit::Drop(DropReason::LinkDown)
        );
        net.set_link_up(n[0], n[1]);
        assert!(matches!(
            net.transit(n[0], n[1], &mut rng),
            Transit::Deliver(_)
        ));
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let mut net = Network::new();
        let n = ids(5);
        net.set_partition(&[&n[0..3], &n[3..5]]);
        let mut rng = SimRng::seed_from(0);
        // Within groups: fine.
        assert!(matches!(
            net.transit(n[0], n[2], &mut rng),
            Transit::Deliver(_)
        ));
        assert!(matches!(
            net.transit(n[3], n[4], &mut rng),
            Transit::Deliver(_)
        ));
        // Across groups: blocked both ways.
        assert_eq!(
            net.transit(n[0], n[4], &mut rng),
            Transit::Drop(DropReason::Partitioned)
        );
        assert_eq!(
            net.transit(n[4], n[0], &mut rng),
            Transit::Drop(DropReason::Partitioned)
        );
        net.clear_partition();
        assert!(matches!(
            net.transit(n[0], n[4], &mut rng),
            Transit::Deliver(_)
        ));
    }

    #[test]
    fn lossy_link_drops_sometimes() {
        let mut net = Network::new();
        let n = ids(2);
        net.link_mut(n[0], n[1]).loss = 0.5;
        let mut rng = SimRng::seed_from(42);
        let drops = (0..1000)
            .filter(|_| matches!(net.transit(n[0], n[1], &mut rng), Transit::Drop(_)))
            .count();
        assert!((400..=600).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn jitter_varies_delay_within_bounds() {
        let mut net = Network::new();
        let n = ids(2);
        {
            let l = net.link_mut(n[0], n[1]);
            l.latency = SimDuration::from_millis(10);
            l.jitter = SimDuration::from_millis(5);
        }
        let mut rng = SimRng::seed_from(1);
        let mut saw_different = false;
        let mut last = None;
        for _ in 0..50 {
            match net.transit(n[0], n[1], &mut rng) {
                Transit::Deliver(d) => {
                    assert!(d >= SimDuration::from_millis(10) && d < SimDuration::from_millis(15));
                    if let Some(prev) = last {
                        if prev != d {
                            saw_different = true;
                        }
                    }
                    last = Some(d);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_different);
    }

    #[test]
    fn isolate_and_rejoin() {
        let mut net = Network::new();
        let n = ids(3);
        net.isolate(n[1], &n);
        let mut rng = SimRng::seed_from(0);
        assert!(matches!(
            net.transit(n[0], n[2], &mut rng),
            Transit::Deliver(_)
        ));
        assert_eq!(
            net.transit(n[0], n[1], &mut rng),
            Transit::Drop(DropReason::LinkDown)
        );
        net.rejoin(n[1], &n);
        assert!(matches!(
            net.transit(n[0], n[1], &mut rng),
            Transit::Deliver(_)
        ));
    }

    #[test]
    fn directional_override_does_not_affect_reverse() {
        let mut net = Network::new();
        let n = ids(2);
        net.link_mut(n[0], n[1]).up = false;
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            net.transit(n[0], n[1], &mut rng),
            Transit::Drop(DropReason::LinkDown)
        );
        assert!(matches!(
            net.transit(n[1], n[0], &mut rng),
            Transit::Deliver(_)
        ));
    }
}
