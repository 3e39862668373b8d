//! The `hosted` workload: 48 small single-window sessions in one
//! `MultiHost`, sharing encoded content through the host's shared cache
//! and worker pool, each watched by one UDP viewer on a 1%-loss link.
//!
//! Sessions come in four kinds that repeat across the host — a blinking
//! status area, a slideshow, typing and terminal output — so most encodes
//! are cross-session cache hits and the host's event loop, not the codecs,
//! carries the work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adshare_host::{run_standalone, CacheSharing, HostConfig, MultiHost};
use adshare_netsim::udp::LinkConfig;
use adshare_screen::workload::{PingPong, Slideshow, Terminal, Typing, Workload};
use adshare_screen::{Desktop, Rect, WindowId};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::TS_SLACK_US;
use crate::probe::Probe;
use crate::round::{common_layers, ratio, Round, Tally};
use crate::sys::{cpu_seconds, nproc};
use crate::world::{sr_compound_len, CAPTURE_US};

/// Sessions in the host.
pub const SESSIONS: usize = 48;
/// Measured capture intervals (8 simulated seconds).
const ACTIVE_TICKS: u64 = 240;
/// The measured span starts here; initial sync must be done by then.
const ACTIVE_FROM_US: u64 = 90 * CAPTURE_US;
/// Settling time after the generators stop, before checking: several
/// 2 s receiver-report periods, since the AH repairs a lost tail only when
/// a report shows it, and the repair itself can be lost (a 3 s settle left
/// about one viewer in 1500 still repairing).
const SETTLE_US: u64 = 300 * CAPTURE_US;
/// Downstream one-way delay of a viewer link: 24 ms plus up to 2 ms,
/// drawn per session from its seed (a fixed delay would make every
/// unqueued sample, and so the median, read the same on every run).
const DELAY_US: u64 = 24_000;
const DELAY_SPAN_US: u64 = 2_000;
/// Sessions rerun standalone per round for the wire-parity check.
const PARITY_SAMPLES: usize = 2;

const PAPER: [u8; 4] = [250, 250, 250, 255];
const SLATE: [u8; 4] = [40, 44, 52, 255];

/// The session that reproduces fault (e) on every run: its inputs never
/// depend on `--seed`, and its application ends after the measured span.
const FAULT_SESSION: usize = SESSIONS - 1;
/// Seed and kind of the fault session (a typing session whose last
/// packets are lost on the way to its viewer).
const FAULT_SEED: u64 = 12;
const FAULT_INDEX: usize = 26;

/// One hosted session's inputs.
#[derive(Debug, Clone, Copy)]
struct Spec {
    /// Which application (0 status blink, 1 slideshow, 2 typing, 3 terminal).
    kind: usize,
    seed: u64,
    /// Whether the application exits after the measured span. Others stay
    /// open and idle, as a shared application normally does.
    app_ends: bool,
}

/// Deterministic per-session seed.
fn session_seed(seed: u64, i: usize) -> u64 {
    (seed ^ 0x4057_ed00)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

fn spec(seed: u64, i: usize) -> Spec {
    if i == FAULT_SESSION {
        Spec {
            kind: FAULT_INDEX % 4,
            seed: session_seed(FAULT_SEED, FAULT_INDEX),
            app_ends: true,
        }
    } else {
        Spec {
            kind: i % 4,
            seed: session_seed(seed, i),
            app_ends: false,
        }
    }
}

fn desktop(kind: usize) -> (Desktop, WindowId) {
    let mut d = Desktop::new(640, 480);
    let fill = if kind == 3 { SLATE } else { PAPER };
    let w = d.create_window(1, Rect::new(40, 40, 400, 300), fill);
    (d, w)
}

fn generator(kind: usize, w: WindowId) -> Box<dyn Workload + Send> {
    match kind {
        0 => Box::new(PingPong::new(w, Rect::new(0, 276, 160, 24))),
        1 => Box::new(Slideshow::new(w, 45)),
        2 => Box::new(Typing::new(w, 2)),
        _ => Box::new(Terminal::new(w, 20, 6)),
    }
}

fn delay_us(seed: u64) -> u64 {
    DELAY_US + (seed >> 17) % DELAY_SPAN_US
}

fn down_link(seed: u64) -> LinkConfig {
    LinkConfig {
        delay_us: delay_us(seed),
        loss: 0.01,
        ..LinkConfig::default()
    }
}

fn up_link(seed: u64) -> LinkConfig {
    LinkConfig {
        delay_us: delay_us(seed),
        ..LinkConfig::default()
    }
}

/// The session's application: idle until the measured span, then its
/// generator once per capture tick, then idle again (or, if `app_ends`,
/// gone). Generator time is added to `gen_ns` so it can be kept out of
/// the program's figures.
fn workload(
    spec: Spec,
    w: WindowId,
    gen_ns: Arc<AtomicU64>,
) -> impl FnMut(&mut SimSession, u64) -> bool + Send + 'static {
    let mut gen = generator(spec.kind, w);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e4e);
    let end = ACTIVE_FROM_US + ACTIVE_TICKS * CAPTURE_US;
    move |sess: &mut SimSession, now: u64| {
        if now >= end {
            return !spec.app_ends;
        }
        if now >= ACTIVE_FROM_US {
            let t = Instant::now();
            gen.tick(sess.ah.desktop_mut(), &mut rng);
            gen_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        true
    }
}

/// A session exactly as the host builds it, minus the shared pipeline.
fn add_viewer(sess: &mut SimSession, seed: u64) {
    sess.add_udp_participant(
        Layout::Original,
        down_link(seed),
        up_link(seed),
        Some(8_000_000),
        seed ^ 0x5eed,
    );
}

fn tally(host: &MultiHost) -> Tally {
    let mut t = Tally::default();
    for i in 0..host.session_count() {
        let s = host.session(i);
        t.add_ah(&s.obs().registry, &s.ah.stats());
        t.add_viewer(&s.participant(0).stats());
    }
    t
}

fn egress(host: &MultiHost) -> u64 {
    (0..host.session_count())
        .map(|i| {
            let s = host.session(i);
            s.ah.participant_bytes_sent(s.handle(0))
        })
        .sum()
}

/// Why a settled viewer is not pixel-identical, with the state that
/// shows whether it knows it is behind.
fn divergence_report(s: &SimSession) -> String {
    let p = s.participant(0);
    let st = p.stats();
    format!(
        "not pixel-identical (synced {}, held {}, plis {}, nacks {}, decode errors {})",
        p.synced(),
        p.reorder_held(),
        st.plis_sent,
        st.nacks_sent,
        st.decode_errors
    )
}

/// One round of `hosted`; `round_no` picks the sessions rerun standalone.
pub fn round(seed: u64, trace: bool, round_no: usize) -> Round {
    let mut out = Round::default();
    let gen_ns = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut host = MultiHost::new(HostConfig {
        capture_interval_us: CAPTURE_US,
        pool_workers: nproc(),
        ..HostConfig::default()
    });
    for i in 0..SESSIONS {
        let sp = spec(seed, i);
        let (d, w) = desktop(sp.kind);
        let idx = host.add_session(d, AhConfig::default(), sp.seed, CacheSharing::Shared);
        add_viewer(host.session_mut(idx), sp.seed);
        host.set_workload(idx, workload(sp, w, Arc::clone(&gen_ns)));
    }
    // Set-up: until every viewer holds the initial picture.
    let mut t = 0;
    let mut synced = false;
    while t < ACTIVE_FROM_US {
        t += CAPTURE_US;
        host.run_until(t);
        if (0..SESSIONS).all(|i| host.session(i).converged(0)) {
            synced = true;
            break;
        }
    }
    out.setup_s = started.elapsed().as_secs_f64();
    if !synced {
        out.errors
            .push("viewers did not reach an initial picture".into());
    }
    host.run_until(ACTIVE_FROM_US);

    // Measured span.
    let before = tally(&host);
    let stats0 = host.stats();
    let egress0 = egress(&host);
    let gen0 = gen_ns.load(Ordering::Relaxed);
    let cpu0 = cpu_seconds();
    let mut host_ms = 0.0;
    for k in 1..=ACTIVE_TICKS {
        let g = gen_ns.load(Ordering::Relaxed);
        let w = Instant::now();
        host.run_until(ACTIVE_FROM_US + k * CAPTURE_US);
        let wall = w.elapsed().as_secs_f64() * 1e3;
        let gen = (gen_ns.load(Ordering::Relaxed) - g) as f64 / 1e6;
        host_ms += wall;
        out.tick_ms.push(wall - gen);
    }
    let gen_s = (gen_ns.load(Ordering::Relaxed) - gen0) as f64 / 1e9;
    out.cpu_s = (cpu_seconds() - cpu0 - gen_s).max(0.0);
    out.frames = ACTIVE_TICKS * SESSIONS as u64;
    out.sim_s = (ACTIVE_TICKS * CAPTURE_US) as f64 / 1e6;
    out.egress_bytes = egress(&host) - egress0;
    let spent = tally(&host).since(&before);
    let stats1 = host.stats();
    host_ms -= gen_s * 1e3;

    let t_end = ACTIVE_FROM_US + ACTIVE_TICKS * CAPTURE_US + SETTLE_US;
    host.run_until(t_end);

    // Checks: one operation per viewer, plus session-level invariants.
    let sr_len = sr_compound_len();
    let mut traces = Vec::new();
    for i in 0..SESSIONS {
        let s = host.session(i);
        let sp = spec(seed, i);
        out.digests.push(s.wire_digest());
        let st = s.ah.stats();
        let links = s.ah.participant_bytes_sent(s.handle(0));
        if links != st.bytes_sent + st.sr_sent * sr_len {
            out.errors
                .push(format!("session {i}: AH egress does not match its link"));
        }
        let mut g2g = Vec::new();
        for c in s.obs().traces.completed_traces() {
            if c.delivered_at_us >= ACTIVE_FROM_US {
                g2g.push(c.delivered_at_us as i64 - c.trace.damage_at_us as i64);
                traces.push(c);
            }
        }
        out.checked += 1;
        let verdict = if !s.converged(0) {
            Err(divergence_report(s))
        } else if g2g.is_empty() {
            Err("no update applied in the measured span".into())
        } else if let Some(low) = g2g
            .iter()
            .min()
            .filter(|&&m| m < delay_us(sp.seed) as i64 - TS_SLACK_US)
        {
            Err(format!(
                "g2g {low} us below the {} us path delay",
                delay_us(sp.seed)
            ))
        } else {
            Ok(())
        };
        if let Err(e) = verdict {
            out.failed += 1;
            out.failures.push(format!("session {i}: {e}"));
        }
        out.g2g_ms.extend(g2g.iter().map(|&s| s as f64 / 1e3));
    }

    // Wire parity: sampled sessions rerun standalone must send the same bytes.
    for k in 0..PARITY_SAMPLES {
        let i = (round_no * PARITY_SAMPLES + k) % SESSIONS;
        let sp = spec(seed, i);
        let (d, w) = desktop(sp.kind);
        let mut alone = SimSession::new(d, AhConfig::default(), sp.seed);
        add_viewer(&mut alone, sp.seed);
        let wl = workload(sp, w, Arc::new(AtomicU64::new(0)));
        run_standalone(&mut alone, CAPTURE_US, t_end, Some(Box::new(wl)));
        if alone.wire_digest() != out.digests[i] {
            out.errors.push(format!(
                "session {i}: hosted and standalone wire digests differ"
            ));
        }
    }

    if trace {
        let hop0 = out.g2g_ms.clone();
        out.layers = common_layers(
            &spent,
            &Probe::new(false),
            &out,
            gen_s,
            &traces,
            [&hop0, &[], &[]],
        );
        let services = (stats1.services - stats0.services) as f64;
        let hits = (stats1.cache_hits - stats0.cache_hits) as f64;
        let misses = (stats1.cache_misses - stats0.cache_misses) as f64;
        out.layers.extend([
            ("host.ms_per_service", ratio(host_ms, services)),
            (
                "host.services_per_frame",
                ratio(services, out.frames as f64),
            ),
            ("host.cache_hit_ratio", ratio(hits, hits + misses)),
            (
                "host.inline_fallbacks",
                (stats1.pool_inline_fallbacks - stats0.pool_inline_fallbacks) as f64,
            ),
        ]);
    }
    out
}
