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

fn timer_delay(out: &[MacOutput]) -> u64 {
    out.iter()
        .find_map(|o| match o {
            MacOutput::SetTimerTxPath { after, .. } => Some(after.as_micros()),
            _ => None,
        })
        .expect("tx-path timer")
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
    // Contend while busy (an undecodable frame is on the air).
    mac.input(t(0), MacInput::MediumBusy, &mut rng, &mut arena);
    let out = mac.input(
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
            queue: 0,
        },
        &mut rng,
        &mut arena,
    );
    assert!(out.is_empty());
    // The frame ends dirty: EIFS mark, then idle.
    mac.input(t(1000), MacInput::EifsMark, &mut rng, &mut arena);
    let out = mac.input(t(1000), MacInput::MediumIdle, &mut rng, &mut arena);
    assert_eq!(timer_delay(&out), EIFS, "first resume uses EIFS");

    // Interrupt and resume again without a new mark: back to DIFS.
    mac.input(t(1100), MacInput::MediumBusy, &mut rng, &mut arena);
    let out = mac.input(t(2000), MacInput::MediumIdle, &mut rng, &mut arena);
    assert_eq!(timer_delay(&out), DIFS, "EIFS is one-shot");
}

#[test]
fn eifs_mark_is_ignored_when_disabled() {
    let (mut mac, mut rng, mut arena) = mac_with_eifs(false);
    mac.input(t(0), MacInput::MediumBusy, &mut rng, &mut arena);
    mac.input(
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
            queue: 0,
        },
        &mut rng,
        &mut arena,
    );
    mac.input(t(1000), MacInput::EifsMark, &mut rng, &mut arena);
    let out = mac.input(t(1000), MacInput::MediumIdle, &mut rng, &mut arena);
    assert_eq!(timer_delay(&out), DIFS);
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
    mac.set_cw_min(16);
    mac.input(t(0), MacInput::MediumBusy, &mut rng, &mut arena);
    mac.input(
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(1)),
            queue: 0,
        },
        &mut rng,
        &mut arena,
    );
    mac.input(t(500), MacInput::EifsMark, &mut rng, &mut arena);
    let out = mac.input(t(500), MacInput::MediumIdle, &mut rng, &mut arena);
    let total = timer_delay(&out);
    let slots = (total - EIFS) / 20;
    // Freeze inside the EIFS window (after DIFS would already have
    // elapsed): nothing may be consumed.
    mac.input(
        t(500 + DIFS + 40),
        MacInput::MediumBusy,
        &mut rng,
        &mut arena,
    );
    let out = mac.input(t(5_000), MacInput::MediumIdle, &mut rng, &mut arena);
    let resumed = timer_delay(&out);
    assert_eq!(
        (resumed - DIFS) / 20,
        slots,
        "no slots elapsed during the EIFS window"
    );
}
