//! Per-layer spans recorded around public calls into the program.
//!
//! The program carries no benchmark instrumentation: each span wraps one
//! call the benchmark makes into a layer (`AppHost::step`, `RelayNode::
//! ingest_upstream`, ...). Spans are accumulated in memory as busy ns per
//! layer and read out when the run ends. With tracing off,
//! [`Probe::time`] is a plain call and reads no clock.

use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AppHost::step`: capture, damage merge, encode, packetize, pace.
    AhStep,
    /// `AppHost::poll_udp` / `poll_tcp`: downstream link delivery.
    AhPoll,
    /// `AppHost::handle_rtcp`: receiver reports, NACK, PLI.
    AhRtcp,
    /// `Participant::handle_datagram` / `handle_stream`.
    Viewer,
    /// `RelayNode::ingest_upstream`.
    RelayIngest,
    /// `RelayNode::step`.
    RelayStep,
    /// `RelayNode::poll_leg`.
    RelayPoll,
    /// `RelayNode::handle_leg_rtcp`.
    RelayRtcp,
    /// Upstream `UdpChannel::send` / `poll` driven by the benchmark.
    Netsim,
}

const LAYERS: usize = 9;

/// Accumulated busy time per [`Layer`].
#[derive(Debug, Clone)]
pub struct Probe {
    on: bool,
    ns: [u64; LAYERS],
}

impl Probe {
    /// A probe that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Probe {
            on,
            ns: [0; LAYERS],
        }
    }

    /// Run `f`, charging its wall time to `layer` when tracing.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns[layer as usize] += t.elapsed().as_nanos() as u64;
        r
    }

    /// Busy milliseconds charged to `layer`.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 / 1e6
    }

    /// Forget everything recorded so far (keeps the on/off setting).
    pub fn clear(&mut self) {
        self.ns = [0; LAYERS];
    }
}
