//! Shared experiment infrastructure: the paper's two testbeds, as
//! drive-and-measure views over the campaign engine's own worlds.
//!
//! **TCP testbed** (paper Figure 3): one *vendor machine* running a vendor
//! TCP talks to the *x-Kernel machine*, whose stack carries the PFI layer
//! directly between TCP and the wire. Connections are opened from the
//! vendor machine to the x-Kernel machine, and filters on the x-Kernel side
//! manipulate what the vendor sees. The world is
//! [`TcpTarget::build`]'s, whose one fault site is the x-Kernel PFI layer.
//!
//! **GMP testbed** (paper Figure 5): `n` group membership daemons, each
//! with a PFI layer between the daemon and its reliable datagram layer,
//! all sharing one blackboard. The world is [`GmpTarget::cluster`]'s.

use pfi_core::{Filter, GlobalBoard, PfiControl, PfiReply};
use pfi_gmp::{GmpBugs, GmpControl, GmpReply, GmpStatusReport};
use pfi_sim::{NodeId, SimDuration, SimTime, World};
use pfi_tcp::{ConnId, TcpControl, TcpEvent, TcpProfile, TcpReply};
use pfi_testgen::{GmpTarget, TcpTarget, TestTarget};

/// The TCP testbed.
#[derive(Debug)]
pub struct TcpTestbed {
    /// The simulation world.
    pub world: World,
    /// The vendor machine (node 0).
    pub vendor: NodeId,
    /// The x-Kernel machine (node 1); layer 0 is TCP.
    pub xk: NodeId,
    /// Stack index of the PFI layer on the x-Kernel machine.
    xk_pfi: usize,
    /// The vendor-side connection handle.
    pub conn: ConnId,
}

/// Stack layer index of TCP on either machine.
pub const TCP: usize = 0;

impl TcpTestbed {
    /// Builds the testbed and opens a connection from the vendor machine
    /// to the x-Kernel machine (completing the handshake).
    pub fn new(vendor_profile: TcpProfile) -> Self {
        let target = TcpTarget {
            profile: vendor_profile,
            ..TcpTarget::default()
        };
        let (mut world, sites) = target.build();
        let vendor = NodeId::new(0);
        let (xk, xk_pfi) = sites[0];
        let conn = world
            .control::<TcpReply>(
                vendor,
                TCP,
                TcpControl::Open {
                    local_port: 0,
                    remote: xk,
                    remote_port: TcpTarget::PORT,
                },
            )
            .expect_conn();
        world.run_for(SimDuration::from_millis(50));
        TcpTestbed {
            world,
            vendor,
            xk,
            xk_pfi,
            conn,
        }
    }

    /// The x-Kernel side's accepted connection.
    pub fn xk_conn(&mut self) -> ConnId {
        match self.world.control::<TcpReply>(
            self.xk,
            TCP,
            TcpControl::AcceptedOn {
                port: TcpTarget::PORT,
            },
        ) {
            TcpReply::MaybeConn(Some(c)) => c,
            other => panic!("handshake did not complete: {other:?}"),
        }
    }

    /// Installs a script as the x-Kernel PFI layer's receive filter.
    pub fn recv_script(&mut self, src: &str) {
        let op = PfiControl::SetRecvFilter(script(src));
        self.world.control::<PfiReply>(self.xk, self.xk_pfi, op);
    }

    /// Installs a script as the x-Kernel PFI layer's send filter.
    pub fn send_script(&mut self, src: &str) {
        let op = PfiControl::SetSendFilter(script(src));
        self.world.control::<PfiReply>(self.xk, self.xk_pfi, op);
    }

    /// Queues a stream of `count` segments of `seg_size` bytes on the
    /// vendor connection, one every `interval` (the driver workload).
    pub fn vendor_stream(&mut self, seg_size: usize, count: u32, interval: SimDuration) {
        let vendor = self.vendor;
        let conn = self.conn;
        for i in 0..count {
            self.world.schedule_in(interval * i as u64, move |w| {
                let data = vec![(i % 251) as u8; seg_size];
                w.control::<TcpReply>(vendor, TCP, TcpControl::Send { conn, data });
            });
        }
    }

    /// Times of every retransmission on the vendor connection.
    pub fn vendor_retransmit_times(&self) -> Vec<SimTime> {
        self.world
            .trace()
            .events_of::<TcpEvent>(Some(self.vendor))
            .into_iter()
            .filter(|(_, e)| matches!(e, TcpEvent::Retransmit { .. }))
            .map(|(t, _)| t)
            .collect()
    }

    /// All TCP events on the vendor node.
    pub fn vendor_events(&self) -> Vec<(SimTime, TcpEvent)> {
        self.world.trace().events_of::<TcpEvent>(Some(self.vendor))
    }

    /// The vendor connection's state name.
    pub fn vendor_state(&mut self) -> &'static str {
        let conn = self.conn;
        self.world
            .control::<TcpReply>(self.vendor, TCP, TcpControl::State { conn })
            .expect_state()
    }
}

/// A filter script, parsed.
///
/// # Panics
///
/// Panics on script parse errors.
fn script(src: &str) -> Filter {
    Filter::script(src).expect("filter script")
}

/// Gaps between consecutive instants, in seconds.
pub fn intervals_secs(times: &[SimTime]) -> Vec<f64> {
    times
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64())
        .collect()
}

/// Whether a series of gaps is (approximately) exponentially increasing
/// until it saturates: every step either roughly doubles or stays at the
/// cap.
pub fn is_exponential_backoff(gaps: &[f64]) -> bool {
    gaps.windows(2).all(|p| {
        let ratio = p[1] / p[0];
        (0.85..=2.3).contains(&ratio)
    }) && gaps.windows(2).all(|p| p[1] >= p[0] * 0.85)
}

/// The GMP testbed.
#[derive(Debug)]
pub struct GmpTestbed {
    /// The simulation world.
    pub world: World,
    /// All daemon nodes in id order.
    pub peers: Vec<NodeId>,
    /// Shared script blackboard across all PFI layers.
    pub board: GlobalBoard,
}

/// Stack layer index of the daemon.
pub const GMD: usize = 0;
/// Stack layer index of the PFI layer on GMP nodes.
pub const GMP_PFI: usize = 1;

impl GmpTestbed {
    /// Builds `n` daemons (not yet started) with the given bugs.
    pub fn new(n: u32, bugs: GmpBugs) -> Self {
        let (world, board) = GmpTarget {
            bugs,
            ..GmpTarget::default()
        }
        .cluster(n);
        GmpTestbed {
            world,
            peers: (0..n).map(NodeId::new).collect(),
            board,
        }
    }

    /// Starts one daemon.
    pub fn start(&mut self, node: NodeId) {
        self.world.control::<GmpReply>(node, GMD, GmpControl::Start);
    }

    /// Starts every daemon.
    pub fn start_all(&mut self) {
        for p in self.peers.clone() {
            self.start(p);
        }
    }

    /// A daemon's current view.
    pub fn view(&mut self, node: NodeId) -> GmpStatusReport {
        self.world
            .control::<GmpReply>(node, GMD, GmpControl::Status)
            .expect_status()
    }

    /// A daemon's member list as raw ids.
    pub fn members(&mut self, node: NodeId) -> Vec<u32> {
        self.view(node)
            .group
            .members
            .iter()
            .map(|m| m.as_u32())
            .collect()
    }

    /// Installs a script as one daemon's PFI send filter.
    pub fn send_script(&mut self, node: NodeId, src: &str) {
        let op = PfiControl::SetSendFilter(script(src));
        self.world.control::<PfiReply>(node, GMP_PFI, op);
    }

    /// Installs a script as one daemon's PFI receive filter.
    pub fn recv_script(&mut self, node: NodeId, src: &str) {
        let op = PfiControl::SetRecvFilter(script(src));
        self.world.control::<PfiReply>(node, GMP_PFI, op);
    }

    /// Runs the world forward.
    pub fn run(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }
}

#[cfg(test)]
impl GmpTestbed {
    /// The campaign engine's GMP oracles this world's trace violates, by
    /// name.
    pub(crate) fn violated_oracles(&self) -> Vec<&'static str> {
        GmpTarget::default()
            .oracles()
            .iter()
            .filter(|o| o.check(self.world.trace()).is_err())
            .map(|o| o.name())
            .collect()
    }
}
