//! RTS/CTS handshake tests: the full four-way exchange, CTS timeouts, and
//! NAV (virtual carrier sense) deference.

use ezflow_mac::{Mac, MacConfig, MacInput, MacOutput};
use ezflow_phy::{Frame, FrameArena, FrameId, FrameKind};
use ezflow_sim::{Duration, SimRng, Time};

const SIFS: u64 = 10;
const DIFS: u64 = 50;
const SLOT: u64 = 20;
const RTS_AIR: u64 = 192 + 160; // 20 B
const CTS_AIR: u64 = 192 + 112; // 14 B
const DATA_AIR: u64 = 8416;
const ACK_AIR: u64 = 304;

fn t(us: u64) -> Time {
    Time::from_micros(us)
}

fn rts_mac(node: usize) -> (Mac, SimRng) {
    let cfg = MacConfig {
        rts_cts: true,
        ..MacConfig::default()
    };
    let mut mac = Mac::new(node, cfg);
    mac.set_cw_min(1);
    (mac, SimRng::new(7))
}

fn data(seq: u64, src: usize, dst: usize) -> Frame {
    let mut f = Frame::data(seq, 0, src, dst, 1000, Time::ZERO);
    f.src = src;
    f.dst = dst;
    f
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

fn tx_timer(out: &[MacOutput]) -> Duration {
    out.iter()
        .find_map(|o| match o {
            MacOutput::SetTimerTxPath { after } => Some(*after),
            _ => None,
        })
        .expect("tx-path timer")
}

fn started(out: &[MacOutput]) -> FrameId {
    out.iter()
        .find_map(|o| match o {
            MacOutput::StartTx { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("StartTx")
}

#[test]
fn full_four_way_handshake() {
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut snd, mut rng) = rts_mac(0);
    let (mut rcv, mut rng2) = rts_mac(1);

    // Sender contends, then emits an RTS instead of data.
    let out = feed(
        &mut snd,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(5, 0, 1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    assert_eq!(after.as_micros(), DIFS);
    let out = feed(
        &mut snd,
        t(DIFS),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let rts = started(out);
    let rtsf = *arena.get(rts);
    assert_eq!(rtsf.kind, FrameKind::Rts);
    assert_eq!(rtsf.seq, 5);
    assert_eq!(
        rtsf.nav_micros,
        3 * SIFS + CTS_AIR + DATA_AIR + ACK_AIR,
        "RTS reserves CTS+DATA+ACK"
    );
    let rts_end = DIFS + RTS_AIR;
    let out = feed(
        &mut snd,
        t(rts_end),
        MacInput::TxEnded,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let cts_to = tx_timer(out);
    assert_eq!(cts_to.as_micros(), SIFS + CTS_AIR + SLOT);

    // Receiver answers with a CTS after SIFS.
    let out = feed(
        &mut rcv,
        t(rts_end),
        MacInput::Rx { frame: rts },
        &mut rng2,
        &mut arena,
        &mut buf,
    );
    let cts_after = out
        .iter()
        .find_map(|o| match o {
            MacOutput::SetTimerAckJob { after } => Some(*after),
            _ => None,
        })
        .expect("cts job");
    assert_eq!(cts_after.as_micros(), SIFS);
    let out = feed(
        &mut rcv,
        t(rts_end + SIFS),
        MacInput::TimerAckJob,
        &mut rng2,
        &mut arena,
        &mut buf,
    );
    let cts = started(out);
    let ctsf = *arena.get(cts);
    assert_eq!(ctsf.kind, FrameKind::Cts);
    assert_eq!(ctsf.dst, 0);
    assert_eq!(ctsf.nav_micros, 2 * SIFS + DATA_AIR + ACK_AIR);
    let cts_end = rts_end + SIFS + CTS_AIR;
    feed(
        &mut rcv,
        t(cts_end),
        MacInput::TxEnded,
        &mut rng2,
        &mut arena,
        &mut buf,
    );

    // Sender gets the CTS, waits SIFS, sends the data.
    let out = feed(
        &mut snd,
        t(cts_end),
        MacInput::Rx { frame: cts },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let sifs_wait = tx_timer(out);
    assert_eq!(sifs_wait.as_micros(), SIFS);
    let out = feed(
        &mut snd,
        t(cts_end + SIFS),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let d = started(out);
    let df = *arena.get(d);
    assert_eq!(df.kind, FrameKind::Data);
    let data_end = cts_end + SIFS + DATA_AIR;
    let out = feed(
        &mut snd,
        t(data_end),
        MacInput::TxEnded,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let ack_to = tx_timer(out);
    assert_eq!(ack_to.as_micros(), SIFS + ACK_AIR + SLOT);

    // Receiver delivers and ACKs; sender completes.
    let out = feed(
        &mut rcv,
        t(data_end),
        MacInput::Rx { frame: d },
        &mut rng2,
        &mut arena,
        &mut buf,
    );
    assert!(out.iter().any(|o| matches!(o, MacOutput::Deliver { .. })));
    let ack = arena.alloc(Frame::ack_for(&df));
    let out = feed(
        &mut snd,
        t(data_end + SIFS + ACK_AIR),
        MacInput::Rx { frame: ack },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out
        .iter()
        .any(|o| matches!(o, MacOutput::TxSuccess { attempts: 1, .. })));
    assert_eq!(snd.stats().rts_sent, 1);
    assert_eq!(snd.stats().tx_success, 1);
    assert_eq!(rcv.stats().cts_sent, 1);
}

#[test]
fn cts_timeout_retries_the_rts() {
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut snd, mut rng) = rts_mac(0);
    let out = feed(
        &mut snd,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(5, 0, 1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    let mut now = after.as_micros();
    let out = feed(
        &mut snd,
        t(now),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert_eq!(arena.get(started(out)).kind, FrameKind::Rts);
    now += RTS_AIR;
    let out = feed(
        &mut snd,
        t(now),
        MacInput::TxEnded,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let to = tx_timer(out);
    now += to.as_micros();
    // No CTS arrives: timeout -> back to contention with attempt 2.
    let out = feed(
        &mut snd,
        t(now),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let re = tx_timer(out);
    assert_eq!(snd.stats().cts_timeouts, 1);
    assert_eq!(snd.stats().retries, 1);
    now += re.as_micros();
    let out = feed(
        &mut snd,
        t(now),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let rts = *arena.get(started(out));
    assert_eq!(rts.kind, FrameKind::Rts, "the retry re-issues an RTS");
    assert!(rts.retry);
}

#[test]
fn nav_defers_bystanders() {
    // A bystander in contention overhears a CTS and must stay silent for
    // the announced reservation even though the medium is physically idle.
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut by, mut rng) = rts_mac(2);
    let out = feed(
        &mut by,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(9, 2, 3)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    tx_timer(out);

    // NAV lands mid-DIFS.
    let until = t(20 + 5_000);
    let out = feed(
        &mut by,
        t(20),
        MacInput::NavSet { until },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(
        out.iter()
            .any(|o| matches!(o, MacOutput::SetTimerNav { after } if after.as_micros() == 5_000)),
        "a NAV wakeup must be armed"
    );
    // The NAV froze the countdown, so the MAC no longer owes its timer:
    // one that fires anyway is ignored and counted.
    assert!(!by.tx_timer_pending());
    let out = feed(
        &mut by,
        t(DIFS),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.is_empty(), "must not transmit during NAV");
    assert_eq!(by.stats().stale_timers, 1);
    // Medium-idle reports during NAV do not restart the countdown.
    assert_eq!(by.medium_idle(t(100)), None);
    // NAV expiry resumes: fresh DIFS + remaining slots.
    let out = feed(
        &mut by,
        t(5_020),
        MacInput::TimerNav,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    assert_eq!(after.as_micros(), DIFS);
    let out = feed(
        &mut by,
        t(5_020 + DIFS),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert_eq!(arena.get(started(out)).kind, FrameKind::Rts);
}

#[test]
fn nav_extension_wins_over_stale_wakeup() {
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut by, mut rng) = rts_mac(2);
    feed(
        &mut by,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(9, 2, 3)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    feed(
        &mut by,
        t(10),
        MacInput::NavSet { until: t(1_000) },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    // Extended before expiry.
    feed(
        &mut by,
        t(500),
        MacInput::NavSet { until: t(8_000) },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    // The first wakeup fires but the NAV is still set: nothing happens.
    let out = feed(
        &mut by,
        t(1_000),
        MacInput::TimerNav,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.is_empty(), "stale NAV wakeup must re-check");
    // The second wakeup resumes.
    let out = feed(
        &mut by,
        t(8_000),
        MacInput::TimerNav,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    assert_eq!(after.as_micros(), DIFS);
}

#[test]
fn nav_blocks_immediate_access_on_enqueue() {
    // A NAV set while idle must deny the immediate-access shortcut: the
    // enqueue draws a random backoff and waits for the NAV wakeup.
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut mac, mut rng) = rts_mac(2);
    feed(
        &mut mac,
        t(0),
        MacInput::NavSet { until: t(5_000) },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let out = feed(
        &mut mac,
        t(100),
        MacInput::Enqueue {
            frame: arena.alloc(data(3, 2, 3)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(
        out.is_empty(),
        "no countdown may start during a NAV reservation: {out:?}"
    );
    let out = feed(
        &mut mac,
        t(5_000),
        MacInput::TimerNav,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    assert!(after.as_micros() >= DIFS);
}

#[test]
fn rx_data_while_waiting_for_cts_is_served() {
    // A relay mid-handshake as a *sender* can still receive data and must
    // schedule the ACK for it.
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut snd, mut rng) = rts_mac(1);
    let out = feed(
        &mut snd,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(5, 1, 2)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let after = tx_timer(out);
    let mut now = after.as_micros();
    feed(
        &mut snd,
        t(now),
        MacInput::TimerTxPath,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    now += RTS_AIR;
    feed(
        &mut snd,
        t(now),
        MacInput::TxEnded,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    // While waiting for the CTS, a data frame from node 0 arrives.
    let out = feed(
        &mut snd,
        t(now + 2),
        MacInput::Rx {
            frame: arena.alloc(data(9, 0, 1)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.iter().any(|o| matches!(o, MacOutput::Deliver { .. })));
    assert!(out
        .iter()
        .any(|o| matches!(o, MacOutput::SetTimerAckJob { .. })));
}

#[test]
fn shorter_nav_does_not_shrink_reservation() {
    let mut arena = FrameArena::new();
    let mut buf = Vec::new();
    let (mut by, mut rng) = rts_mac(2);
    feed(
        &mut by,
        t(0),
        MacInput::Enqueue {
            frame: arena.alloc(data(9, 2, 3)),
        },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    feed(
        &mut by,
        t(0),
        MacInput::NavSet { until: t(9_000) },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    let out = feed(
        &mut by,
        t(100),
        MacInput::NavSet { until: t(500) },
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.is_empty(), "shorter overlapping NAV is absorbed");
    let out = feed(
        &mut by,
        t(500),
        MacInput::TimerNav,
        &mut rng,
        &mut arena,
        &mut buf,
    );
    assert!(out.is_empty(), "still reserved until 9ms");
}
