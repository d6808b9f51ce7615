//! EIFS: after sensing an undecodable frame, the next deferral uses the
//! extended inter-frame space instead of DIFS.

use ezflow_mac::{Mac, MacConfig, MacInput, MacOutput};
use ezflow_phy::{Frame, FrameArena};
use ezflow_sim::{SimRng, Time};

const DIFS: u64 = 50;
const EIFS: u64 = 10 + 304 + 50; // SIFS + ACK air + DIFS = 364

fn t(us: u64) -> Time {
    Time::from_micros(us)
}

fn mac_with_eifs(enabled: bool) -> (Mac, SimRng, FrameArena) {
    let cfg = MacConfig {
        eifs: enabled,
        ..MacConfig::default()
    };
    let mut mac = Mac::new(0, cfg);
    mac.set_cw_min(1);
    (mac, SimRng::new(7), FrameArena::new())
}

/// Feeds one input through [`Mac::input_into`], reusing `buf` (cleared
/// first), and returns the outputs it provoked.
fn feed<'a>(
    mac: &mut Mac,
    now: Time,
    input: MacInput,
    rng: &mut SimRng,
    arena: &mut FrameArena,
    buf: &'a mut Vec<MacOutput>,
) -> &'a [MacOutput] {
    buf.clear();
    mac.input_into(now, input, rng, arena, buf);
    buf
}

/// The busy -> idle transition at `now`: the countdown it arms, in µs.
fn resume(mac: &mut Mac, now: Time) -> u64 {
    let after = mac.medium_idle(now).expect("tx-path timer");
    after.as_micros()
}

fn data(seq: u64) -> Frame {
    let mut f = Frame::data(seq, 0, 0, 2, 1000, Time::ZERO);
    f.src = 0;
    f.dst = 1;
    f
}

#[test]
fn eifs_extends_the_next_deferral_only() {
    let (mut mac, mut rng, mut arena) = mac_with_eifs(true);
    let mut buf = Vec::new();
    // Contend while busy (an undecodable frame is on the air).
    mac.medium_busy(t(0));
    let out = feed(
        &mut mac,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.is_empty());
    // The frame ends dirty: EIFS mark, then idle.
    mac.eifs_mark();
    assert_eq!(resume(&mut mac, t(1000)), EIFS, "first resume uses EIFS");

    // Interrupt and resume again without a new mark: back to DIFS.
    mac.medium_busy(t(1100));
    assert_eq!(resume(&mut mac, t(2000)), DIFS, "EIFS is one-shot");
}

#[test]
fn eifs_mark_is_ignored_when_disabled() {
    let (mut mac, mut rng, mut arena) = mac_with_eifs(false);
    let mut buf = Vec::new();
    mac.medium_busy(t(0));
    feed(
        &mut mac,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    mac.eifs_mark();
    assert_eq!(resume(&mut mac, t(1000)), DIFS);
}

#[test]
fn eifs_slot_consumption_uses_the_extended_space() {
    // With a countdown started under EIFS, a freeze before EIFS elapses
    // must consume no slots.
    let mut mac = Mac::new(
        0,
        MacConfig {
            eifs: true,
            ..MacConfig::default()
        },
    );
    let mut rng = SimRng::new(3);
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    mac.set_cw_min(16);
    mac.medium_busy(t(0));
    feed(
        &mut mac,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    mac.eifs_mark();
    let total = resume(&mut mac, t(500));
    let slots = (total - EIFS) / 20;
    // Freeze inside the EIFS window (after DIFS would already have
    // elapsed): nothing may be consumed.
    mac.medium_busy(t(500 + DIFS + 40));
    let resumed = resume(&mut mac, t(5_000));
    assert_eq!(
        (resumed - DIFS) / 20,
        slots,
        "no slots elapsed during the EIFS window"
    );
}
