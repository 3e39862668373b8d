//! The benchmark's own orchestrator for the direct (`office`) and relayed
//! (`broadcast`) workloads: one [`AppHost`], an optional relay tree and N
//! viewers on simulated links, stepped on a virtual clock.
//!
//! It performs the same calls in the same order as `SimSession::step` and
//! `RelaySim::step`, but through the layers' public functions, so each call
//! can be timed as a span of its layer and every byte a viewer receives can
//! be tapped for glass-to-glass samples.

use std::collections::HashMap;

use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::time::us_to_ticks;
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::{Obs, TraceSink};
use adshare_relay::{RelayConfig, RelayNode, RelayStats};
use adshare_rtp::rtcp::{encode_compound, RtcpPacket, SenderReport, SourceDescription};
use adshare_screen::Desktop;
use adshare_sdp::answer::Transport;
use adshare_sdp::SessionDescription;
use adshare_sdp::{build_ah_offer, build_answer, build_relay_offer, OfferParams};
use adshare_session::{AhConfig, AppHost, Layout, Participant, ParticipantHandle};

use crate::check::{G2gTap, Lossy};
use crate::probe::{Layer, Probe};

/// Consecutive stuck steps before a viewer abandons a reorder gap (the
/// value both simulation orchestrators use).
const GAP_TIMEOUT_STEPS: u32 = 40;

/// One capture interval: 30 capture ticks per simulated second.
pub const CAPTURE_US: u64 = 33_333;

#[derive(Debug, Clone, Copy)]
enum Attach {
    Ah {
        handle: ParticipantHandle,
        tcp: bool,
    },
    Leg {
        relay: usize,
        leg: usize,
    },
}

/// A viewer and everything the benchmark keeps about it.
pub struct Viewer {
    /// The program's participant.
    pub p: Participant,
    attach: Attach,
    up: UdpChannel,
    stuck: u32,
    last_held: usize,
    tap: G2gTap,
    /// Relay hops between the AH and this viewer.
    pub hop: usize,
    /// One-way propagation delay of the downstream path (µs).
    pub prop_us: u64,
    /// Glass-to-glass samples (µs), filled by [`World::harvest_g2g`].
    pub g2g: Vec<i64>,
    /// Where this viewer may legitimately hold approximate pixels.
    pub lossy: Lossy,
}

impl Viewer {
    /// The relay leg this viewer hangs off, if relayed.
    pub fn leg(&self) -> Option<(usize, usize)> {
        match self.attach {
            Attach::Leg { relay, leg } => Some((relay, leg)),
            Attach::Ah { .. } => None,
        }
    }
}

struct Relay {
    node: RelayNode,
    handle: Option<ParticipantHandle>,
    parent: Option<(usize, usize)>,
    up: UdpChannel,
    offer: SessionDescription,
    hop: usize,
    prop_us: u64,
    ingested: u64,
}

/// A simulated world: AH, relay tree, viewers.
pub struct World {
    /// The application host.
    pub ah: AppHost,
    relays: Vec<Relay>,
    /// Every viewer, in the order added.
    pub viewers: Vec<Viewer>,
    /// The observability bundle the program reports into.
    pub obs: Obs,
    /// Spans recorded around each layer call.
    pub probe: Probe,
    ah_offer: SessionDescription,
    now_us: u64,
    /// Steps happen at every pending delivery (as under `SimSession`) and,
    /// with `Some(dt)`, also every `dt` µs (relay trees, as `RelaySim`).
    fixed_dt: Option<u64>,
}

impl World {
    /// A world around `desktop` with no viewers yet.
    pub fn new(
        desktop: Desktop,
        cfg: AhConfig,
        seed: u64,
        probe: Probe,
        fixed_dt: Option<u64>,
    ) -> Self {
        let mut obs = Obs::new();
        // Room for every frame trace of a round, so no sample is evicted.
        obs.traces = TraceSink::with_capacity(1 << 16);
        let mut ah = AppHost::new(desktop, cfg, seed);
        ah.attach_obs(obs.clone());
        World {
            ah,
            relays: Vec::new(),
            viewers: Vec::new(),
            obs,
            probe,
            ah_offer: build_ah_offer(&OfferParams::default()),
            now_us: 0,
            fixed_dt,
        }
    }

    /// Negotiate a viewer's transport against `offer` (§10 offer/answer);
    /// returns whether retransmissions were agreed.
    fn negotiate(offer: &SessionDescription, transport: Transport) -> Result<bool, String> {
        let codecs = [adshare_codec::CodecKind::Png, adshare_codec::CodecKind::Dct];
        build_answer(offer, transport, &codecs)
            .map(|n| n.retransmissions)
            .map_err(|e| format!("SDP negotiation failed: {e:?}"))
    }

    /// Add a relay under the AH (`parent` None) or under another relay.
    pub fn add_relay(
        &mut self,
        parent: Option<usize>,
        cfg: RelayConfig,
        down: LinkConfig,
        up: LinkConfig,
        seed: u64,
    ) -> usize {
        let idx = self.relays.len();
        let mut node = RelayNode::new(cfg, idx as u16);
        node.attach_obs(self.obs.clone());
        let (handle, parent_leg, upstream_offer, hop, base) = match parent {
            None => {
                let h = self.ah.attach_udp(0x5200 + idx as u16, down, seed, None);
                (Some(h), None, self.ah_offer.clone(), 1, 0)
            }
            Some(p) => {
                let leg = self.relays[p].node.add_leg_udp(down, seed, None);
                let r = &self.relays[p];
                (None, Some((p, leg)), r.offer.clone(), r.hop + 1, r.prop_us)
            }
        };
        node.subscribe(self.now_us);
        let offer = build_relay_offer(&upstream_offer, &format!("10.82.0.{}", idx + 1));
        self.relays.push(Relay {
            node,
            handle,
            parent: parent_leg,
            up: UdpChannel::new(up, seed ^ 0x7E57),
            offer,
            hop,
            prop_us: base + down.delay_us,
            ingested: 0,
        });
        idx
    }

    fn push_viewer(
        &mut self,
        attach: Attach,
        nack: bool,
        up: LinkConfig,
        seed: u64,
        hop: usize,
        prop_us: u64,
    ) -> usize {
        let idx = self.viewers.len();
        let user_id = idx as u16 + 1;
        let mut p = Participant::new(user_id, Layout::Original, nack, seed ^ 0x9e37);
        p.attach_obs(&self.obs, idx);
        let tcp = matches!(attach, Attach::Ah { tcp: true, .. });
        if !tcp {
            p.request_refresh();
        }
        let stream = matches!(attach, Attach::Ah { tcp: true, .. });
        self.viewers.push(Viewer {
            p,
            attach,
            up: UdpChannel::new(up, seed ^ 0x1234),
            stuck: 0,
            last_held: 0,
            tap: if stream {
                G2gTap::stream()
            } else {
                G2gTap::datagram()
            },
            hop,
            prop_us,
            g2g: Vec::new(),
            lossy: Lossy::default(),
        });
        idx
    }

    /// A UDP viewer attached to the AH, paced at `rate_bps`.
    pub fn add_udp_viewer(
        &mut self,
        down: LinkConfig,
        up: LinkConfig,
        rate_bps: Option<u64>,
        seed: u64,
    ) -> Result<usize, String> {
        let nack =
            Self::negotiate(&self.ah_offer, Transport::Udp)? && self.ah.config().retransmissions;
        let user_id = self.viewers.len() as u16 + 1;
        let prop = down.delay_us;
        let handle = self.ah.attach_udp(user_id, down, seed, rate_bps);
        Ok(self.push_viewer(Attach::Ah { handle, tcp: false }, nack, up, seed, 0, prop))
    }

    /// A TCP (RFC 4571) viewer attached to the AH.
    pub fn add_tcp_viewer(
        &mut self,
        link: TcpConfig,
        up: LinkConfig,
        seed: u64,
    ) -> Result<usize, String> {
        Self::negotiate(&self.ah_offer, Transport::Tcp)?;
        let user_id = self.viewers.len() as u16 + 1;
        let prop = link.delay_us;
        let handle = self.ah.attach_tcp(user_id, link);
        Ok(self.push_viewer(Attach::Ah { handle, tcp: true }, false, up, seed, 0, prop))
    }

    /// A UDP viewer on a leg of `relay`, paced at `rate_bps` by the relay.
    pub fn add_leg_viewer(
        &mut self,
        relay: usize,
        down: LinkConfig,
        up: LinkConfig,
        rate_bps: Option<u64>,
        seed: u64,
    ) -> Result<usize, String> {
        Self::negotiate(&self.relays[relay].offer, Transport::Udp)?;
        let prop = self.relays[relay].prop_us + down.delay_us;
        let hop = self.relays[relay].hop;
        let leg = self.relays[relay].node.add_leg_udp(down, seed, rate_bps);
        Ok(self.push_viewer(Attach::Leg { relay, leg }, true, up, seed, hop, prop))
    }

    /// Replace an AH-attached viewer's downlink from now on.
    pub fn set_downlink(&mut self, viewer: usize, cfg: LinkConfig) {
        if let Attach::Ah { handle, .. } = self.viewers[viewer].attach {
            let step = adshare_netsim::LinkStep {
                at_us: self.now_us,
                cfg,
            };
            self.ah.set_link_schedule(handle, vec![step]);
        }
    }

    /// Advance the whole world to `now`: the AH captures and flushes,
    /// relays ingest and fan out parents-first, viewers apply and feed back.
    pub fn step(&mut self, now: u64) {
        self.now_us = now;
        let ticks = us_to_ticks(now);
        let World {
            ah,
            relays,
            viewers,
            probe,
            ..
        } = self;
        probe.time(Layer::AhStep, || ah.step(now));

        for i in 0..relays.len() {
            let dgs = match relays[i].parent {
                None => {
                    let h = relays[i].handle.expect("AH-attached relay");
                    probe.time(Layer::AhPoll, || ah.poll_udp(h, now))
                }
                Some((p, leg)) => {
                    let parent = &mut relays[p].node;
                    probe.time(Layer::RelayPoll, || parent.poll_leg(leg, now))
                }
            };
            let r = &mut relays[i];
            r.ingested += dgs.len() as u64;
            probe.time(Layer::RelayIngest, || {
                for dg in &dgs {
                    r.node.ingest_upstream(dg, now);
                }
            });
            probe.time(Layer::RelayStep, || r.node.step(now));
            let rtcp = r.node.take_upstream_rtcp();
            let delivered = probe.time(Layer::Netsim, || {
                if let Some(bytes) = rtcp {
                    r.up.send(now, &bytes);
                }
                r.up.poll(now)
            });
            for bytes in delivered {
                match relays[i].parent {
                    None => {
                        let h = relays[i].handle.expect("AH-attached relay");
                        probe.time(Layer::AhRtcp, || ah.handle_rtcp(h, &bytes, now));
                    }
                    Some((p, leg)) => {
                        let parent = &mut relays[p].node;
                        probe.time(Layer::RelayRtcp, || {
                            parent.handle_leg_rtcp(leg, &bytes, now)
                        });
                    }
                }
            }
        }

        for v in viewers.iter_mut() {
            let (dgs, stream) = match v.attach {
                Attach::Ah { handle, tcp: false } => (
                    probe.time(Layer::AhPoll, || ah.poll_udp(handle, now)),
                    false,
                ),
                Attach::Ah { handle, tcp: true } => {
                    let bytes = probe.time(Layer::AhPoll, || ah.poll_tcp(handle, now));
                    let chunks = if bytes.is_empty() {
                        Vec::new()
                    } else {
                        vec![bytes]
                    };
                    (chunks, true)
                }
                Attach::Leg { relay, leg } => {
                    let node = &mut relays[relay].node;
                    (
                        probe.time(Layer::RelayPoll, || node.poll_leg(leg, now)),
                        false,
                    )
                }
            };
            for dg in dgs {
                if stream {
                    v.tap.observe_stream(&dg, now);
                    probe.time(Layer::Viewer, || v.p.handle_stream(&dg, ticks));
                } else {
                    v.tap.observe(&dg);
                    probe.time(Layer::Viewer, || v.p.handle_datagram(&dg, ticks));
                    v.tap.settle(v.p.reorder_held(), now);
                }
            }
            // Gap timeout: a hole never repaired would park the reorder
            // buffer forever; give up on it and fall back to PLI.
            let held = v.p.reorder_held();
            if held > 0 && held == v.last_held {
                v.stuck += 1;
                if v.stuck >= GAP_TIMEOUT_STEPS {
                    v.p.recover_from_gap();
                    v.stuck = 0;
                    v.tap.settle(v.p.reorder_held(), now);
                }
            } else {
                v.stuck = 0;
            }
            v.last_held = v.p.reorder_held();
            v.p.tick(ticks);
            let rtcp = v.p.take_rtcp();
            let up = &mut v.up;
            let delivered = probe.time(Layer::Netsim, || {
                if let Some(bytes) = rtcp {
                    up.send(now, &bytes);
                }
                up.poll(now)
            });
            for bytes in delivered {
                match v.attach {
                    Attach::Ah { handle, .. } => {
                        probe.time(Layer::AhRtcp, || ah.handle_rtcp(handle, &bytes, now))
                    }
                    Attach::Leg { relay, leg } => {
                        let node = &mut relays[relay].node;
                        probe.time(Layer::RelayRtcp, || node.handle_leg_rtcp(leg, &bytes, now));
                    }
                }
            }
        }
    }

    /// Earliest pending delivery anywhere in the world: AH transports,
    /// relay legs and every upstream feedback channel.
    fn next_event(&self) -> Option<u64> {
        let relay_links = self.relays.iter().flat_map(|r| {
            let legs = (0..r.node.leg_count()).filter_map(|l| r.node.leg_link(l));
            legs.chain(std::iter::once(&r.up))
        });
        let viewer_links = self.viewers.iter().map(|v| &v.up);
        relay_links
            .chain(viewer_links)
            .filter_map(UdpChannel::next_delivery_us)
            .chain(self.ah.next_event_us())
            .min()
    }

    /// Run one capture interval `[start, end)`: a step at `start` (the AH
    /// captures what the generators drew), then a step at every pending
    /// delivery and, with a fixed dt, also every dt (relay pacing and gap
    /// timeouts advance per step, as under `RelaySim`).
    pub fn run_interval(&mut self, start: u64, end: u64) {
        self.step(start);
        loop {
            let tick = self.fixed_dt.map(|dt| self.now_us + dt);
            let next = match (tick, self.next_event()) {
                (Some(t), Some(e)) => t.min(e.max(self.now_us + 1)),
                (t, e) => match t.or(e) {
                    Some(n) => n.max(self.now_us + 1),
                    None => break,
                },
            };
            if next >= end {
                break;
            }
            self.step(next);
        }
    }

    /// Fill each viewer's glass-to-glass samples with every message it
    /// applied at or after `from_us` (see `check` for how each kind of
    /// viewer is sampled).
    pub fn harvest_g2g(&mut self, from_us: u64) {
        let traces = self.obs.traces.completed_traces();
        for v in &mut self.viewers {
            let applied = v.tap.applied.iter().filter(|a| a.at_us >= from_us);
            if v.hop > 0 {
                v.g2g
                    .extend(applied.filter_map(|a| a.captured_us.map(|c| a.at_us as i64 - c)));
                continue;
            }
            let at: HashMap<u16, u64> = applied.map(|a| (a.seq, a.at_us)).collect();
            v.g2g.extend(
                traces
                    .iter()
                    .filter(|c| Some(c.ssrc) == v.tap.ssrc)
                    .filter_map(|c| {
                        at.get(&c.seq)
                            .map(|&t| t as i64 - c.trace.damage_at_us as i64)
                    }),
            );
        }
    }

    /// Whether nothing is in flight or queued anywhere the AH can see.
    pub fn idle(&self) -> bool {
        self.next_event().is_none()
    }

    /// Wire digest of everything the AH sent.
    pub fn digest(&self) -> u64 {
        self.ah.wire_digest()
    }

    fn ah_handles(&self) -> impl Iterator<Item = ParticipantHandle> + '_ {
        let viewers = self.viewers.iter().filter_map(|v| match v.attach {
            Attach::Ah { handle, .. } => Some(handle),
            Attach::Leg { .. } => None,
        });
        viewers.chain(self.relays.iter().filter_map(|r| r.handle))
    }

    /// Bytes the AH's downstream links accepted: RTP, RTCP and
    /// retransmissions alike.
    pub fn egress_bytes(&self) -> u64 {
        self.ah_handles()
            .map(|h| self.ah.participant_bytes_sent(h))
            .sum()
    }

    /// AH egress as the AH counts it (RTP incl. retransmissions, plus
    /// sender reports) must equal what the links accepted. Holds once
    /// nothing is queued in front of a TCP link.
    pub fn check_egress(&self) -> Result<(), String> {
        let st = self.ah.stats();
        let tcp_srs: u64 = self
            .viewers
            .iter()
            .filter(|v| matches!(v.attach, Attach::Ah { tcp: true, .. }))
            .map(|v| v.tap.srs)
            .sum();
        let expect = st.bytes_sent + st.sr_sent * sr_compound_len() + 2 * tcp_srs;
        let links = self.egress_bytes();
        if links == expect {
            Ok(())
        } else {
            Err(format!(
                "AH counted {expect} egress bytes, links accepted {links}"
            ))
        }
    }

    /// Counters of every relay.
    pub fn relay_stats(&self) -> Vec<RelayStats> {
        self.relays.iter().map(|r| r.node.stats()).collect()
    }

    /// Datagrams ingested by relays from their upstream hop.
    pub fn relay_ingested(&self) -> u64 {
        self.relays.iter().map(|r| r.ingested).sum()
    }

    /// (tier switches, synthesized messages, synthesized bytes) over all legs.
    pub fn tier_totals(&mut self) -> (u64, u64, u64) {
        let now = self.now_us;
        let mut t = (0, 0, 0);
        for r in &mut self.relays {
            for leg in r.node.tier_stats(now).legs {
                t.0 += leg.switches;
                t.1 += leg.synth_msgs;
                t.2 += leg.synth_bytes;
            }
        }
        t
    }

    /// Active tier of a relay leg.
    pub fn leg_tier(&self, relay: usize, leg: usize) -> Option<adshare_layers::QualityTier> {
        self.relays[relay].node.leg_tier(leg)
    }
}

/// Size of the AH's periodic SR + SDES compound (fixed: no report blocks,
/// constant CNAME), as sent on a datagram transport.
pub fn sr_compound_len() -> u64 {
    let sr = SenderReport {
        ssrc: 0,
        ntp: 0,
        rtp_ts: 0,
        packet_count: 0,
        octet_count: 0,
        reports: vec![],
    };
    let bytes = encode_compound(&[
        RtcpPacket::SenderReport(sr),
        RtcpPacket::Sdes(SourceDescription::cname(0, "ah@adshare")),
    ]);
    bytes.len() as u64
}
