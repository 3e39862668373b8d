//! One round of a workload — build the world, sync every viewer, run the
//! measured span, settle, check — and the counters a round reads from the
//! program to fill the per-layer table.

use adshare_obs::{CompletedTrace, Registry};
use adshare_session::app_host::AhStats;
use adshare_session::participant::ParticipantStats;

use crate::probe::{Layer, Probe};
use crate::stats::{median, quantile, sorted};

/// Everything one round measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds from building the world until every viewer first held
    /// a correct picture.
    pub setup_s: f64,
    /// Wall ms per measured capture interval, load generator excluded.
    pub tick_ms: Vec<f64>,
    /// Session-frames processed in the measured span.
    pub frames: u64,
    /// Process CPU seconds over the measured span, generator excluded.
    pub cpu_s: f64,
    /// Simulated seconds of the measured span.
    pub sim_s: f64,
    /// AH wire bytes the links accepted during the measured span.
    pub egress_bytes: u64,
    /// Glass-to-glass samples (ms) of every applied update at every viewer.
    pub g2g_ms: Vec<f64>,
    /// Viewers checked (one operation each) and how many failed.
    pub checked: u64,
    /// Viewers that failed a check.
    pub failed: u64,
    /// Why each failed viewer failed.
    pub failures: Vec<String>,
    /// Violated session-level invariants (the run is then incorrect).
    pub errors: Vec<String>,
    /// Wire digest of each session's AH, in session order.
    pub digests: Vec<u64>,
    /// Per-layer metrics of this round (traced rounds only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Program counters the per-layer table is derived from; summed over
/// sessions, differenced over the measured span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub tiles: u64,
    pub hits: u64,
    pub misses: u64,
    pub encode_cpu_us: u64,
    pub png_cpu_us: u64,
    pub png_bytes: u64,
    pub dct_cpu_us: u64,
    pub dct_bytes: u64,
    pub rtp_packets: u64,
    pub retransmits: u64,
    pub full_refreshes: u64,
    pub nacks: u64,
    pub plis: u64,
}

impl Tally {
    /// Add one session's AH-side registry and stats.
    pub fn add_ah(&mut self, reg: &Registry, st: &AhStats) {
        let c = |n: &str| reg.counter_value(n).unwrap_or(0);
        self.tiles += c("ah.encode.tiles");
        self.hits += c("ah.encode.cache.hits");
        self.misses += c("ah.encode.cache.misses");
        self.encode_cpu_us += c("ah.encode.cpu_us_total");
        self.png_cpu_us += c("codec.png.cpu_us_total");
        self.png_bytes += c("codec.png.bytes");
        self.dct_cpu_us += c("codec.dct.cpu_us_total");
        self.dct_bytes += c("codec.dct.bytes");
        self.rtp_packets += st.rtp_packets;
        self.retransmits += st.retransmits;
        self.full_refreshes += st.full_refreshes;
    }

    /// Add one viewer's feedback counters.
    pub fn add_viewer(&mut self, st: &ParticipantStats) {
        self.nacks += st.nacks_sent;
        self.plis += st.plis_sent;
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            tiles: self.tiles - earlier.tiles,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            encode_cpu_us: self.encode_cpu_us - earlier.encode_cpu_us,
            png_cpu_us: self.png_cpu_us - earlier.png_cpu_us,
            png_bytes: self.png_bytes - earlier.png_bytes,
            dct_cpu_us: self.dct_cpu_us - earlier.dct_cpu_us,
            dct_bytes: self.dct_bytes - earlier.dct_bytes,
            rtp_packets: self.rtp_packets - earlier.rtp_packets,
            retransmits: self.retransmits - earlier.retransmits,
            full_refreshes: self.full_refreshes - earlier.full_refreshes,
            nacks: self.nacks - earlier.nacks,
            plis: self.plis - earlier.plis,
        }
    }
}

/// `num / den`, 0 when the denominator is 0 (a layer the workload does
/// not exercise reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer rows every workload reports from its counters, spans
/// and samples. Relay, tier and host rows are appended by the workloads
/// that have those layers; the rest read 0.
pub fn common_layers(
    t: &Tally,
    probe: &Probe,
    round: &Round,
    gen_s: f64,
    traces: &[CompletedTrace],
    hop_g2g: [&[f64]; 3],
) -> Vec<(&'static str, f64)> {
    let frames = round.frames as f64;
    // Damage observed → update sent, per traced RegionUpdate (simulated).
    let queue_ms: Vec<f64> = traces
        .iter()
        .map(|c| c.trace.sent_at_us.saturating_sub(c.trace.damage_at_us) as f64 / 1e3)
        .collect();
    let fragments: u64 = traces.iter().map(|c| u64::from(c.trace.fragments)).sum();
    let per_frame = |layer| ratio(probe.ms(layer), frames);
    // Output megabytes per CPU second spent in the codec.
    let mb_per_s = |bytes: u64, cpu_us: u64| ratio(bytes as f64, cpu_us as f64);
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    vec![
        ("session.ah_step_ms_per_frame", per_frame(Layer::AhStep)),
        ("session.ah_poll_ms_per_frame", per_frame(Layer::AhPoll)),
        ("session.ah_rtcp_ms_per_frame", per_frame(Layer::AhRtcp)),
        ("session.viewer_ms_per_frame", per_frame(Layer::Viewer)),
        ("session.queue_ms_p50", p50(&queue_ms)),
        ("session.full_refreshes", t.full_refreshes as f64),
        ("encode.tiles_per_frame", ratio(t.tiles as f64, frames)),
        (
            "encode.hit_ratio",
            ratio(t.hits as f64, (t.hits + t.misses) as f64),
        ),
        (
            "encode.cpu_ms_per_frame",
            ratio(t.encode_cpu_us as f64 / 1e3, frames),
        ),
        (
            "codec.png.ms_per_frame",
            ratio(t.png_cpu_us as f64 / 1e3, frames),
        ),
        ("codec.png.mb_per_s", mb_per_s(t.png_bytes, t.png_cpu_us)),
        (
            "codec.png.bytes_per_frame",
            ratio(t.png_bytes as f64, frames),
        ),
        (
            "codec.dct.ms_per_frame",
            ratio(t.dct_cpu_us as f64 / 1e3, frames),
        ),
        ("codec.dct.mb_per_s", mb_per_s(t.dct_bytes, t.dct_cpu_us)),
        (
            "codec.dct.bytes_per_frame",
            ratio(t.dct_bytes as f64, frames),
        ),
        (
            "remoting.fragments_per_update",
            ratio(fragments as f64, traces.len() as f64),
        ),
        ("rtp.packets_per_frame", ratio(t.rtp_packets as f64, frames)),
        (
            "rtp.retx_ratio",
            ratio(t.retransmits as f64, t.rtp_packets as f64),
        ),
        ("rtp.nacks_per_s", ratio(t.nacks as f64, round.sim_s)),
        ("rtp.plis_per_s", ratio(t.plis as f64, round.sim_s)),
        ("g2g.hop0_ms_p50", p50(hop_g2g[0])),
        ("g2g.hop1_ms_p50", p50(hop_g2g[1])),
        ("g2g.hop2_ms_p50", p50(hop_g2g[2])),
        ("netsim.ms_per_frame", per_frame(Layer::Netsim)),
        ("screen.generate_ms_per_frame", ratio(gen_s * 1e3, frames)),
        (
            "trace.tick_ms_p50",
            quantile(&sorted(&round.tick_ms), 0.5).unwrap_or(0.0),
        ),
    ]
}
