//! The `office` and `broadcast` workloads, both driven through [`World`].
//!
//! * `office` — the paper's core case: three shared windows (an editor
//!   being typed into, a terminal with bursty output, a scrolling
//!   document) shown at 0 hops to three jittered UDP viewers and one TCP
//!   viewer, with the default `AhConfig` (lossless PNG, MoveRectangle,
//!   fixed pacing, per-session encode cache).
//! * `broadcast` — one presenter window (video region through the adaptive
//!   DCT codec, typing, a blinking status area) reaching seven viewers
//!   through a two-level relay tree with layers on; leaf links carry
//!   jitter and one subtree is too slow for the upstream tier, so its
//!   relay re-encodes. Leaf links carry no loss: relay legs have no
//!   receiver-report tail repair, so a viewer that loses the last packets
//!   before the presenter goes idle stays diverged, on some seeds only
//!   (README, fault f).
//!
//! Three more scenarios reproduce known faults (README ledger); they are
//! not benchmark workloads: `fault-c` (lossless photo slides over jittered
//! UDP and over TCP), `fault-d` (adaptive rate, a lossy tier, then
//! scrolling) and `fault-f` (`broadcast` with 1% loss on the leaf links).

use std::time::Instant;

use adshare_layers::{LayersConfig, QualityTier, RateConfig};
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_relay::RelayConfig;
use adshare_screen::workload::{PingPong, Scrolling, Slideshow, Terminal, Typing, Video, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::AhConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{check_picture, psnr_floor_db, TS_SLACK_US};
use crate::probe::{Layer, Probe};
use crate::round::{common_layers, ratio, Round, Tally};
use crate::sys::cpu_seconds;
use crate::world::{World, CAPTURE_US};

/// Measured span: 8 simulated seconds of activity.
const ACTIVE_TICKS: u64 = 240;
/// Idle capture intervals after the generators stop, before checking.
const SETTLE_TICKS: u64 = 90;
/// Extra idle intervals allowed for in-flight data to drain.
const DRAIN_TICKS: u64 = 90;
/// Initial sync must finish within this many capture intervals (10 s).
const SETUP_TICKS: u64 = 300;
/// DCT quality of the AH's adaptive codec (the codec registry default).
const AH_DCT_QUALITY: u8 = 75;

const PAPER: [u8; 4] = [250, 250, 250, 255];
const SLATE: [u8; 4] = [40, 44, 52, 255];

fn link(delay_ms: u64, jitter_ms: u64, loss: f64) -> LinkConfig {
    LinkConfig {
        delay_us: delay_ms * 1000,
        jitter_us: jitter_ms * 1000,
        loss,
        ..LinkConfig::default()
    }
}

/// What a round of this module runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The `office` workload.
    Office,
    /// The `broadcast` workload.
    Broadcast,
    /// Fault (c): lossless photo slides to jittered UDP and to TCP viewers.
    PhotoJitter,
    /// Fault (d): adaptive rate on a thin link, photos, then scrolling.
    AdaptiveScroll,
    /// Fault (f): `broadcast` with 1% loss on the leaf links.
    RelayLoss,
}

/// A built world plus the generators that animate it.
struct Scene {
    world: World,
    gens: Vec<Box<dyn Workload>>,
    rng: StdRng,
    /// Downlinks to replace when the generators stop: (viewer, new link).
    relief: Vec<(usize, LinkConfig)>,
}

fn office(seed: u64, probe: Probe) -> Result<Scene, String> {
    let mut d = Desktop::new(1280, 800);
    let edit = d.create_window(1, Rect::new(40, 40, 480, 336), PAPER);
    let term = d.create_window(2, Rect::new(560, 40, 560, 364), SLATE);
    let doc = d.create_window(3, Rect::new(240, 420, 640, 350), PAPER);
    let mut world = World::new(d, AhConfig::default(), seed, probe, None);
    for (i, (delay, jitter)) in [(20, 6), (30, 10), (45, 15)].into_iter().enumerate() {
        world.add_udp_viewer(
            link(delay, jitter, 0.0),
            link(delay, 0, 0.0),
            Some(16_000_000),
            seed ^ (0x100 + i as u64),
        )?;
    }
    let tcp = TcpConfig {
        rate_bps: 8_000_000,
        delay_us: 35_000,
        send_buf: 64 * 1024,
    };
    world.add_tcp_viewer(tcp, link(35, 0, 0.0), seed ^ 0x200)?;
    let gens: Vec<Box<dyn Workload>> = vec![
        Box::new(Typing::new(edit, 2)),
        Box::new(Terminal::new(term, 12, 8)),
        Box::new(Scrolling::new(doc, 1)),
    ];
    Ok(Scene {
        world,
        gens,
        rng: StdRng::seed_from_u64(seed ^ 0x0ff1ce),
        relief: Vec::new(),
    })
}

/// Window-local rects of the broadcast window that carry photographic
/// content (sent through DCT by the adaptive codec).
const VIDEO: Rect = Rect {
    left: 420,
    top: 300,
    width: 160,
    height: 120,
};
const STATUS: Rect = Rect {
    left: 0,
    top: 448,
    width: 192,
    height: 24,
};

fn broadcast(seed: u64, probe: Probe, leaf_loss: f64) -> Result<Scene, String> {
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(120, 100, 640, 480), PAPER);
    let cfg = AhConfig {
        adaptive_codec: true,
        ..AhConfig::default()
    };
    // Relays step on a fixed dt, as `RelaySim` does: 8 steps per capture.
    let mut world = World::new(d, cfg, seed, probe, Some(CAPTURE_US / 8));
    let relay_cfg = || RelayConfig {
        layers: Some(LayersConfig::default()),
        ..RelayConfig::default()
    };
    let r0 = world.add_relay(
        None,
        relay_cfg(),
        link(10, 0, 0.0),
        link(10, 0, 0.0),
        seed ^ 0x10,
    );
    let r1 = world.add_relay(
        Some(r0),
        relay_cfg(),
        link(8, 0, 0.0),
        link(8, 0, 0.0),
        seed ^ 0x11,
    );
    let r2 = world.add_relay(
        Some(r0),
        relay_cfg(),
        link(12, 0, 0.0),
        link(12, 0, 0.0),
        seed ^ 0x12,
    );
    // Fast leaves pace at 20 Mb/s; the r2 subtree at 1.2 Mb/s, below what
    // the video needs, so r2 must re-encode at a lossier tier.
    let leaves = [(r0, 2, 20_000_000), (r1, 3, 20_000_000), (r2, 2, 1_200_000)];
    let mut n = 0u64;
    for (relay, count, rate) in leaves {
        for _ in 0..count {
            world.add_leg_viewer(
                relay,
                link(15, 4, leaf_loss),
                link(15, 0, 0.0),
                Some(rate),
                seed ^ (0x300 + n),
            )?;
            n += 1;
        }
    }
    let floor = psnr_floor_db(AH_DCT_QUALITY);
    for v in &mut world.viewers {
        v.lossy.regions = vec![(win.0, VIDEO, floor), (win.0, STATUS, floor)];
    }
    let gens: Vec<Box<dyn Workload>> = vec![
        Box::new(Video::new(win, VIDEO)),
        Box::new(Typing::new(win, 2)),
        Box::new(PingPong::new(win, STATUS)),
    ];
    Ok(Scene {
        world,
        gens,
        rng: StdRng::seed_from_u64(seed ^ 0xb0ad),
        relief: Vec::new(),
    })
}

/// Fault (c): a full-window photo slide every second, lossless, to two
/// UDP viewers on jittered (loss-free) links and one TCP viewer.
fn photo_jitter(seed: u64, probe: Probe) -> Result<Scene, String> {
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(120, 100, 640, 480), PAPER);
    let mut world = World::new(d, AhConfig::default(), seed, probe, None);
    for i in 0..2 {
        world.add_udp_viewer(
            link(25, 10, 0.0),
            link(25, 0, 0.0),
            Some(16_000_000),
            seed ^ (0x100 + i),
        )?;
    }
    let tcp = TcpConfig {
        rate_bps: 16_000_000,
        delay_us: 25_000,
        send_buf: 256 * 1024,
    };
    world.add_tcp_viewer(tcp, link(25, 0, 0.0), seed ^ 0x200)?;
    Ok(Scene {
        world,
        gens: vec![Box::new(Slideshow::new(win, 30))],
        rng: StdRng::seed_from_u64(seed ^ 0xc),
        relief: Vec::new(),
    })
}

/// Fault (d): adaptive rate on a 1 Mb/s link pushes photos out at a lossy
/// tier while the window scrolls them with MoveRectangle; when the
/// generators stop the link opens up and the AH owes a lossless repair.
fn adaptive_scroll(seed: u64, probe: Probe) -> Result<Scene, String> {
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(120, 100, 640, 480), PAPER);
    let cfg = AhConfig {
        adaptive_rate: Some(RateConfig::default()),
        ..AhConfig::default()
    };
    let mut world = World::new(d, cfg, seed, probe, None);
    let thin = LinkConfig {
        rate_bps: Some(1_000_000),
        ..link(20, 0, 0.0)
    };
    let v = world.add_udp_viewer(thin, link(20, 0, 0.0), None, seed ^ 0x100)?;
    Ok(Scene {
        world,
        gens: vec![
            Box::new(Slideshow::new(win, 20)),
            Box::new(Scrolling::new(win, 1)),
        ],
        rng: StdRng::seed_from_u64(seed ^ 0xd),
        relief: vec![(v, link(20, 0, 0.0))],
    })
}

/// Snapshot of the counters behind the per-layer table.
fn tally(world: &World) -> Tally {
    let mut t = Tally::default();
    t.add_ah(&world.obs.registry, &world.ah.stats());
    for v in &world.viewers {
        t.add_viewer(&v.p.stats());
    }
    t
}

/// Whether every viewer holds a correct picture right now.
fn all_correct(world: &World) -> bool {
    let desktop = world.ah.desktop();
    world
        .viewers
        .iter()
        .all(|v| check_picture(desktop, &v.p, &v.lossy).is_ok())
}

/// A subtree whose leg ended at a lossy tier may hold approximate pixels
/// anywhere in the window.
fn note_leg_tiers(world: &mut World) {
    let floor = psnr_floor_db(QualityTier::Economy.dct_quality().unwrap_or(1));
    for i in 0..world.viewers.len() {
        if let Some((relay, leg)) = world.viewers[i].leg() {
            let lossy = world.leg_tier(relay, leg).is_some_and(|t| t.is_lossy());
            world.viewers[i].lossy.everywhere = lossy.then_some(floor);
        }
    }
}

/// One round of `scenario`.
pub fn round(seed: u64, trace: bool, scenario: Scenario) -> Round {
    let mut out = Round::default();
    let started = Instant::now();
    let probe = Probe::new(trace);
    let built = match scenario {
        Scenario::Office => office(seed, probe),
        Scenario::Broadcast => broadcast(seed, probe, 0.0),
        Scenario::PhotoJitter => photo_jitter(seed, probe),
        Scenario::AdaptiveScroll => adaptive_scroll(seed, probe),
        Scenario::RelayLoss => broadcast(seed, probe, 0.01),
    };
    let mut scene = match built {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let world = &mut scene.world;

    // Set-up: step idle capture intervals until every viewer is correct.
    let mut t = 0;
    let mut synced = false;
    for _ in 0..SETUP_TICKS {
        world.run_interval(t, t + CAPTURE_US);
        t += CAPTURE_US;
        note_leg_tiers(world);
        if all_correct(world) {
            synced = true;
            break;
        }
    }
    out.setup_s = started.elapsed().as_secs_f64();
    if !synced {
        let desktop = world.ah.desktop();
        for (i, v) in world.viewers.iter().enumerate() {
            if let Err(e) = check_picture(desktop, &v.p, &v.lossy) {
                let st = v.p.stats();
                out.errors.push(format!(
                    "viewer {i} never held a correct picture: {e} (held {}, nacks {}, plis {})",
                    v.p.reorder_held(),
                    st.nacks_sent,
                    st.plis_sent
                ));
            }
        }
    }

    // Measured span.
    world.probe.clear();
    let active_from = t;
    let before = tally(world);
    let egress0 = world.egress_bytes();
    let relay0 = world.relay_stats();
    let ingested0 = world.relay_ingested();
    let tiers0 = world.tier_totals();
    let mut gen_s = 0.0;
    let cpu0 = cpu_seconds();
    for _ in 0..ACTIVE_TICKS {
        let g = Instant::now();
        for gen in &mut scene.gens {
            gen.tick(world.ah.desktop_mut(), &mut scene.rng);
        }
        gen_s += g.elapsed().as_secs_f64();
        let w = Instant::now();
        world.run_interval(t, t + CAPTURE_US);
        out.tick_ms.push(w.elapsed().as_secs_f64() * 1e3);
        t += CAPTURE_US;
    }
    out.cpu_s = (cpu_seconds() - cpu0 - gen_s).max(0.0);
    out.frames = ACTIVE_TICKS;
    out.sim_s = (ACTIVE_TICKS * CAPTURE_US) as f64 / 1e6;
    out.egress_bytes = world.egress_bytes() - egress0;
    let probe = world.probe.clone();
    let spent = tally(world).since(&before);
    let relay1 = world.relay_stats();
    let ingested = world.relay_ingested() - ingested0;
    let tiers = world.tier_totals();

    // Settle, then drain whatever is still in flight.
    for (v, cfg) in &scene.relief {
        world.set_downlink(*v, *cfg);
    }
    for i in 0..SETTLE_TICKS + DRAIN_TICKS {
        if i >= SETTLE_TICKS && world.idle() {
            break;
        }
        world.run_interval(t, t + CAPTURE_US);
        t += CAPTURE_US;
    }
    world.harvest_g2g(active_from);

    // Checks: one operation per viewer.
    if let Err(e) = world.check_egress() {
        out.errors.push(e);
    }
    note_leg_tiers(world);
    let desktop = world.ah.desktop();
    let mut hop_g2g: [Vec<f64>; 3] = Default::default();
    for (i, v) in world.viewers.iter().enumerate() {
        out.checked += 1;
        let mut verdict = check_picture(desktop, &v.p, &v.lossy);
        let floor = v.prop_us as i64 - TS_SLACK_US;
        if verdict.is_ok() {
            if v.g2g.is_empty() {
                verdict = Err("no update applied in the measured span".into());
            } else if let Some(&low) = v.g2g.iter().min().filter(|&&m| m < floor) {
                verdict = Err(format!(
                    "g2g {low} us below the {} us path delay",
                    v.prop_us
                ));
            }
        }
        if let Err(e) = verdict {
            out.failed += 1;
            out.failures.push(format!("viewer {i}: {e}"));
        }
        for &s in &v.g2g {
            let ms = s as f64 / 1e3;
            out.g2g_ms.push(ms);
            hop_g2g[v.hop.min(2)].push(ms);
        }
    }
    out.digests.push(world.digest());

    if trace {
        let traces = world.obs.traces.completed_traces();
        let hops = [&hop_g2g[0][..], &hop_g2g[1][..], &hop_g2g[2][..]];
        out.layers = common_layers(&spent, &probe, &out, gen_s, &traces, hops);
        let frames = out.frames as f64;
        let sum = |f: fn(&adshare_relay::RelayStats) -> u64| -> f64 {
            relay1.iter().map(f).sum::<u64>() as f64 - relay0.iter().map(f).sum::<u64>() as f64
        };
        let absorbed = sum(|s| s.nacks_absorbed_seqs);
        let escalated = sum(|s| s.seqs_escalated);
        let relay_bytes =
            sum(|s| s.forwarded_bytes + s.catchup_bytes) + (tiers.2 - tiers0.2) as f64;
        out.layers.extend([
            (
                "rate.superseded_per_s",
                ratio(sum(|s| s.superseded_msgs), out.sim_s),
            ),
            (
                "relay.ingest_us_per_packet",
                ratio(probe.ms(Layer::RelayIngest) * 1e3, ingested as f64),
            ),
            (
                "relay.step_ms_per_frame",
                ratio(probe.ms(Layer::RelayStep), frames),
            ),
            (
                "relay.poll_ms_per_frame",
                ratio(probe.ms(Layer::RelayPoll), frames),
            ),
            (
                "relay.rtcp_ms_per_frame",
                ratio(probe.ms(Layer::RelayRtcp), frames),
            ),
            (
                "relay.nack_absorb_ratio",
                ratio(absorbed, absorbed + escalated),
            ),
            (
                "relay.egress_kbps",
                ratio(relay_bytes * 8.0 / 1e3, out.sim_s),
            ),
            ("layers.tier_switches", (tiers.0 - tiers0.0) as f64),
            (
                "layers.synth_msgs_per_s",
                ratio((tiers.1 - tiers0.1) as f64, out.sim_s),
            ),
        ]);
    }
    out
}
