//! Glass-to-glass sampling and the per-viewer correctness checks.
//!
//! [`G2gTap`] watches the bytes the benchmark hands a viewer and notes
//! every remoting message the viewer applies, with the apply instant. It
//! never looks inside the viewer: release from the viewer's reorder buffer
//! is inferred from the public `reorder_held()` count, since the buffer
//! releases in sequence order. A sample is the apply instant minus the
//! instant the AH captured the damage the message carries:
//!
//! * viewers attached to the AH: the AH's own frame trace for the message
//!   (keyed by SSRC and final sequence number) gives the damage instant;
//! * viewers behind relays: the trace key is the relay leg's sequence
//!   number, which need not match the AH's, so the capture tick in the
//!   message's RTP timestamp is used instead, mapped to the AH clock
//!   through the sender reports the relays forward. The AH in that
//!   workload sends without a pacing cap, so damage is sent on the tick it
//!   is captured and the two instants coincide.

use std::collections::BTreeMap;

use adshare_codec::{Image, Rect};
use adshare_rtp::framing::Deframer;
use adshare_rtp::rtcp::{decode_compound, RtcpPacket};
use adshare_screen::Desktop;
use adshare_session::Participant;

/// Slack for the propagation-delay floor: RTP timestamps and the SR anchor
/// are both quantised to the 90 kHz media clock (11.1 µs per tick).
pub const TS_SLACK_US: i64 = 25;

/// Same classifier the participant applies to downstream datagrams.
fn is_rtcp(dg: &[u8]) -> bool {
    dg.len() >= 2 && (200..=206).contains(&dg[1])
}

/// One message a viewer applied.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// Sequence number of the message's final (marker) packet.
    pub seq: u16,
    /// Virtual instant the viewer applied it.
    pub at_us: u64,
    /// Capture tick from its RTP timestamp, once an SR anchor is known.
    pub captured_us: Option<i64>,
}

/// Passive tap on one viewer's downstream.
#[derive(Debug, Default)]
pub struct G2gTap {
    /// Arrived, not yet released: extended seq → (RTP ts, marker).
    held: BTreeMap<u64, (u32, bool)>,
    /// Next extended sequence the viewer will release.
    cursor: Option<u64>,
    /// Highest extended sequence seen (for 16-bit unwrapping).
    top: Option<u64>,
    /// Latest sender-report anchor: (AH clock µs, RTP ts).
    anchor: Option<(u64, u32)>,
    /// TCP viewers only: a private deframer over the same stream bytes.
    deframer: Option<Deframer>,
    /// Sender reports seen (the egress check counts TCP ones).
    pub srs: u64,
    /// SSRC of the media stream this viewer receives.
    pub ssrc: Option<u32>,
    /// Every message applied so far, in apply order.
    pub applied: Vec<Applied>,
}

impl G2gTap {
    /// A tap for a datagram (UDP) viewer.
    pub fn datagram() -> Self {
        G2gTap::default()
    }

    /// A tap for an RFC 4571 stream (TCP) viewer.
    pub fn stream() -> Self {
        G2gTap {
            deframer: Some(Deframer::default()),
            ..G2gTap::default()
        }
    }

    fn note_rtcp(&mut self, dg: &[u8]) {
        if let Ok(pkts) = decode_compound(dg) {
            for p in pkts {
                if let RtcpPacket::SenderReport(sr) = p {
                    self.anchor = Some((sr.ntp, sr.rtp_ts));
                    self.srs += 1;
                }
            }
        }
    }

    fn extend(&mut self, seq: u16) -> u64 {
        let ext = match self.top {
            None => (1u64 << 32) + u64::from(seq),
            Some(top) => {
                let d = i64::from(seq.wrapping_sub(top as u16) as i16);
                (top as i64 + d) as u64
            }
        };
        self.top = Some(self.top.map_or(ext, |t| t.max(ext)));
        ext
    }

    fn apply(&mut self, seq: u16, ts: u32, now_us: u64) {
        let captured_us = self.anchor.map(|(sr_us, sr_ts)| {
            let dt_ticks = i64::from(ts.wrapping_sub(sr_ts) as i32);
            sr_us as i64 + dt_ticks * 100 / 9
        });
        self.applied.push(Applied {
            seq,
            at_us: now_us,
            captured_us,
        });
    }

    /// RTP header fields: (marker, seq, ts, ssrc).
    fn header(pkt: &[u8]) -> Option<(bool, u16, u32, u32)> {
        let h = pkt.get(..12)?;
        Some((
            h[1] & 0x80 != 0,
            u16::from_be_bytes([h[2], h[3]]),
            u32::from_be_bytes([h[4], h[5], h[6], h[7]]),
            u32::from_be_bytes([h[8], h[9], h[10], h[11]]),
        ))
    }

    /// A datagram is about to be handed to the viewer.
    pub fn observe(&mut self, dg: &[u8]) {
        if is_rtcp(dg) {
            self.note_rtcp(dg);
            return;
        }
        let Some((marker, seq, ts, ssrc)) = Self::header(dg) else {
            return;
        };
        self.ssrc = Some(ssrc);
        let ext = self.extend(seq);
        match self.cursor {
            Some(c) if ext < c => return, // too old: the viewer drops it
            None => self.cursor = Some(ext),
            _ => {}
        }
        self.held.insert(ext, (ts, marker));
    }

    /// The viewer now holds `held` packets out of order: everything else
    /// it was given has been released, lowest sequence first. Each released
    /// marker packet completes one applied message.
    pub fn settle(&mut self, held: usize, now_us: u64) {
        let release = self.held.len().saturating_sub(held);
        for _ in 0..release {
            let Some((ext, (ts, marker))) = self.held.pop_first() else {
                break;
            };
            self.cursor = Some(ext + 1);
            if marker {
                self.apply(ext as u16, ts, now_us);
            }
        }
    }

    /// Stream bytes are about to be handed to a TCP viewer, which applies
    /// every complete message at once (ordered, reliable transport).
    pub fn observe_stream(&mut self, bytes: &[u8], now_us: u64) {
        let Some(mut deframer) = self.deframer.take() else {
            return;
        };
        deframer.push(bytes);
        while let Ok(Some(frame)) = deframer.pop() {
            if is_rtcp(&frame) {
                self.note_rtcp(&frame);
            } else if let Some((marker, seq, ts, ssrc)) = Self::header(&frame) {
                self.ssrc = Some(ssrc);
                if marker {
                    self.apply(seq, ts, now_us);
                }
            }
        }
        self.deframer = Some(deframer);
    }
}

/// PSNR floor (dB) for DCT output at `quality` (1..=100). Deliberately
/// loose: it separates "decoded at roughly the configured quality" from
/// "wrong or stale picture" (stale or garbled content sits well below
/// 15 dB), and it stays valid for a relay re-encode of an already lossy
/// picture.
pub fn psnr_floor_db(quality: u8) -> f64 {
    10.0 + f64::from(quality) / 5.0
}

/// Where a viewer may hold approximate pixels.
#[derive(Debug, Clone, Default)]
pub struct Lossy {
    /// Window-local rects sent through DCT, with their PSNR floor.
    pub regions: Vec<(u16, Rect, f64)>,
    /// A floor for whole windows (a subtree re-encoded at a lossy tier).
    pub everywhere: Option<f64>,
}

/// Peak signal-to-noise ratio over RGB, `None` for differing sizes.
fn psnr(a: &Image, b: &Image, rect: Rect) -> f64 {
    let mut se = 0u64;
    let mut n = 0u64;
    for y in rect.top..rect.bottom() {
        let (ra, rb) = (a.row(y), b.row(y));
        for x in rect.left..rect.right() {
            let i = x as usize * 4;
            for c in 0..3 {
                let d = i64::from(ra[i + c]) - i64::from(rb[i + c]);
                se += (d * d) as u64;
            }
            n += 3;
        }
    }
    if se == 0 || n == 0 {
        return f64::INFINITY;
    }
    let mse = se as f64 / n as f64;
    10.0 * (255.0f64 * 255.0 / mse).log10()
}

/// Check a settled viewer against the AH desktop the generators drew:
/// pixel-identical everywhere lossless, above the PSNR floor wherever a
/// lossy codec or tier was in play.
pub fn check_picture(desktop: &Desktop, p: &Participant, lossy: &Lossy) -> Result<(), String> {
    if !p.synced() {
        return Err("never synced".into());
    }
    let records: Vec<_> = desktop.wm().shared_records().collect();
    if records.len() != p.z_order().len() {
        return Err(format!(
            "{} windows shown, {} shared",
            p.z_order().len(),
            records.len()
        ));
    }
    for rec in records {
        let id = rec.id.0;
        let (Some(mine), Some(truth)) = (p.window_content(id), desktop.window_content(rec.id))
        else {
            return Err(format!("window {id} missing"));
        };
        if mine.width() != truth.width() || mine.height() != truth.height() {
            return Err(format!("window {id} has the wrong size"));
        }
        if let Some(floor) = lossy.everywhere {
            let db = psnr(mine, truth, truth.bounds());
            if db < floor {
                return Err(format!("window {id} at {db:.1} dB < {floor:.1} dB"));
            }
            continue;
        }
        let regions: Vec<(Rect, f64)> = lossy
            .regions
            .iter()
            .filter(|(w, _, _)| *w == id)
            .map(|&(_, r, f)| (r, f))
            .collect();
        for &(r, floor) in &regions {
            let db = psnr(mine, truth, r);
            if db < floor {
                return Err(format!(
                    "window {id} lossy region at {db:.1} dB < {floor:.1} dB"
                ));
            }
        }
        for y in 0..truth.height() {
            let (ra, rb) = (mine.row(y), truth.row(y));
            if ra == rb {
                continue;
            }
            let exempt = |x: u32| regions.iter().any(|(r, _)| r.contains(x, y));
            if (0..truth.width()).any(|x| {
                let i = x as usize * 4;
                ra[i..i + 4] != rb[i..i + 4] && !exempt(x)
            }) {
                return Err(format!("window {id} differs at row {y}"));
            }
        }
    }
    Ok(())
}
