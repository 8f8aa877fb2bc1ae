//! The network model connecting node stacks.
//!
//! Every directional link carries a message in a fixed one-way
//! [`LATENCY`], unless it is down: the paper's "unplugged the ethernet"
//! experiment. That is all the network does. Loss, delay, reordering and
//! partitions are faults, and faults are the PFI layer's job: the §2.2
//! filters in `pfi_core::faults` (`omission`, `timing`, `drop_all`) or a
//! filter script.

use std::collections::BTreeSet;

use crate::ids::NodeId;
use crate::time::SimDuration;
use crate::trace::DropReason;

/// The one-way delay of every link that is up.
const LATENCY: SimDuration = SimDuration::from_millis(1);

/// The outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transit {
    /// Deliver after this one-way delay.
    Deliver(SimDuration),
    /// The network dropped the message.
    Drop(DropReason),
}

/// The full mesh of links between all nodes in a world: all up, until a
/// cable is unplugged.
///
/// # Examples
///
/// ```
/// use pfi_sim::{Network, NodeId};
///
/// let mut net = Network::new();
/// net.set_link_down(NodeId::new(0), NodeId::new(1));
/// net.set_link_up(NodeId::new(0), NodeId::new(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// The directional links `src → dst` that are down.
    down: BTreeSet<(NodeId, NodeId)>,
}

impl Network {
    /// Creates a network where every pair of nodes is connected.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes both directions of the `a ↔ b` link down (unplugs the cable).
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        self.down.insert((a, b));
        self.down.insert((b, a));
    }

    /// Brings both directions of the `a ↔ b` link back up.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.down.remove(&(a, b));
        self.down.remove(&(b, a));
    }

    /// Isolates `node` from every other node in `all` (both directions) by
    /// taking its links down; bring them back with
    /// [`set_link_up`](Network::set_link_up).
    pub fn isolate(&mut self, node: NodeId, all: &[NodeId]) {
        for &other in all {
            if other != node {
                self.set_link_down(node, other);
            }
        }
    }

    /// Feeds the downed links into a snapshot digest, in order.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::Fnv) {
        h.write_usize(self.down.len());
        for (src, dst) in &self.down {
            h.write_u64(u64::from(src.as_u32()));
            h.write_u64(u64::from(dst.as_u32()));
        }
    }

    /// Offers a message to the network and decides its fate.
    pub fn transit(&self, src: NodeId, dst: NodeId) -> Transit {
        if self.down.contains(&(src, dst)) {
            return Transit::Drop(DropReason::LinkDown);
        }
        Transit::Deliver(LATENCY)
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
        assert_eq!(
            net.transit(NodeId::new(0), NodeId::new(1)),
            Transit::Deliver(SimDuration::from_millis(1))
        );
    }

    #[test]
    fn downed_link_drops() {
        let mut net = Network::new();
        let n = ids(2);
        net.set_link_down(n[0], n[1]);
        assert_eq!(net.transit(n[0], n[1]), Transit::Drop(DropReason::LinkDown));
        assert_eq!(net.transit(n[1], n[0]), Transit::Drop(DropReason::LinkDown));
        net.set_link_up(n[0], n[1]);
        assert_eq!(net.transit(n[0], n[1]), Transit::Deliver(LATENCY));
    }

    /// A partition is the cross pairs' links taken down.
    #[test]
    fn partition_blocks_cross_group_only() {
        let mut net = Network::new();
        let n = ids(5);
        for &a in &n[0..3] {
            for &b in &n[3..5] {
                net.set_link_down(a, b);
            }
        }
        // Within groups: fine.
        assert_eq!(net.transit(n[0], n[2]), Transit::Deliver(LATENCY));
        assert_eq!(net.transit(n[3], n[4]), Transit::Deliver(LATENCY));
        // Across groups: blocked both ways.
        assert_eq!(net.transit(n[0], n[4]), Transit::Drop(DropReason::LinkDown));
        assert_eq!(net.transit(n[4], n[0]), Transit::Drop(DropReason::LinkDown));
        for &a in &n[0..3] {
            for &b in &n[3..5] {
                net.set_link_up(a, b);
            }
        }
        assert_eq!(net.transit(n[0], n[4]), Transit::Deliver(LATENCY));
    }

    #[test]
    fn isolate_and_rejoin() {
        let mut net = Network::new();
        let n = ids(3);
        net.isolate(n[1], &n);
        assert_eq!(net.transit(n[0], n[2]), Transit::Deliver(LATENCY));
        assert_eq!(net.transit(n[0], n[1]), Transit::Drop(DropReason::LinkDown));
        assert_eq!(net.transit(n[1], n[2]), Transit::Drop(DropReason::LinkDown));
        for &other in &[n[0], n[2]] {
            net.set_link_up(n[1], other);
        }
        assert_eq!(net.transit(n[0], n[1]), Transit::Deliver(LATENCY));
        assert_eq!(net.transit(n[2], n[1]), Transit::Deliver(LATENCY));
    }
}
