//! Stochastic link-loss models.
//!
//! Two distinct uses, same mechanism:
//!
//! * **Fault injection** (smoltcp-style `--drop-chance`): a uniform
//!   Bernoulli loss on every link stresses MAC retransmission and the BOE's
//!   tolerance to missed overhearings.
//! * **Testbed calibration**: the paper's campus deployment (Fig. 3 /
//!   Table 1) has links of very different quality — 845 kb/s down to
//!   408 kb/s on the bottleneck `l2`. We reproduce those capacities by
//!   assigning each *directed* link a packet-error rate, so that the
//!   isolated saturation throughput of the simulated link matches the
//!   measured one.
//!
//! A [`LossModel`] is configuration only: a default and per-link
//! overrides, keyed by node pair. The channel resolves it once, when it is
//! built, into `LinkLosses` — per directed decode link, the index of its
//! process and its Gilbert–Elliott state in one 4-byte word — so a
//! reception samples its link by position, never through a hashed map.
//! An ideal model resolves to nothing at all.

use std::collections::HashMap;

use ezflow_sim::{Duration, SimRng, Time};

use crate::geom::Neighbors;

/// A two-state Gilbert-Elliott burst-loss process: the channel alternates
/// between a Good state (loss `p_good`, usually ~0) and a Bad state (loss
/// `p_bad`, large), with geometric sojourn times. Fades on real links are
/// *bursty* — consecutive frames die together — which stresses the BOE
/// much harder than independent (Bernoulli) loss: whole runs of
/// overhearings disappear at once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// P(Good -> Bad) per frame.
    pub p_g2b: f64,
    /// P(Bad -> Good) per frame.
    pub p_b2g: f64,
    /// Loss probability while Good.
    pub p_good: f64,
    /// Loss probability while Bad.
    pub p_bad: f64,
}

impl GilbertElliott {
    /// A classic bursty profile: ~2% of frames enter a fade that lasts
    /// ~10 frames and kills ~80% of them. Long-run loss ≈ 13%.
    pub fn classic() -> Self {
        GilbertElliott {
            p_g2b: 0.02,
            p_b2g: 0.1,
            p_good: 0.0,
            p_bad: 0.8,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_g2b / (self.p_g2b + self.p_b2g)
    }

    /// Long-run average loss rate.
    pub fn mean_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        (1.0 - bad) * self.p_good + bad * self.p_bad
    }
}

/// A deterministic link up/down schedule: the link repeats `up` of
/// service then `down` of outage, the first up period starting at
/// `phase`. While down, every frame on the link is destroyed — an
/// interface reset, a duty-cycled radio, a periodic deep fade. Purely a
/// function of simulated time, so it consumes no RNG draws and cannot
/// perturb the random stream of any coexisting loss process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnWindow {
    /// Length of each up (serving) interval.
    pub up: Duration,
    /// Length of each down (outage) interval.
    pub down: Duration,
    /// Offset of the first up interval's start within the cycle.
    pub phase: Duration,
}

impl ChurnWindow {
    /// An alternating schedule starting up at `phase`.
    pub fn new(up: Duration, down: Duration, phase: Duration) -> Self {
        assert!(
            up.as_micros() + down.as_micros() > 0,
            "churn cycle must be nonzero"
        );
        ChurnWindow { up, down, phase }
    }

    /// Whether the link is in an outage at `now`.
    pub fn is_down(&self, now: Time) -> bool {
        let cycle = self.up.as_micros() + self.down.as_micros();
        if cycle == 0 {
            return false;
        }
        // Position within the cycle, shifted so the cycle starts at
        // `phase` (modular, so instants before the phase wrap correctly).
        let pos = (now.as_micros() + cycle - (self.phase.as_micros() % cycle)) % cycle;
        pos >= self.up.as_micros()
    }
}

/// Packet-error process applied to otherwise-successful receptions:
/// configuration only (see the module docs for where its state lives).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LossModel {
    /// Loss probability applied to every (src, dst) pair not listed in
    /// `per_link`.
    pub default_per: f64,
    /// Per-directed-link loss probability overrides.
    pub per_link: HashMap<(usize, usize), f64>,
    /// Optional burst-loss overlay applied to every link on top of the
    /// Bernoulli process. Each directed link runs its own chain.
    pub burst: Option<GilbertElliott>,
    /// Per-directed-link Gilbert-Elliott overrides: links listed here run
    /// their own burst parameters instead of the global `burst` overlay.
    pub burst_link: HashMap<(usize, usize), GilbertElliott>,
    /// Per-directed-link deterministic up/down schedules; a frame sent
    /// while its link is down is destroyed outright (no RNG consumed).
    pub churn: HashMap<(usize, usize), ChurnWindow>,
}

impl LossModel {
    /// No loss at all (ns-2 style ideal links).
    pub fn ideal() -> Self {
        LossModel::default()
    }

    /// Uniform loss probability on all links.
    pub fn uniform(per: f64) -> Self {
        assert!((0.0..=1.0).contains(&per), "loss probability out of range");
        LossModel {
            default_per: per,
            ..LossModel::default()
        }
    }

    /// Sets the loss probability of the directed link `src -> dst`.
    pub fn set_link(&mut self, src: usize, dst: usize, per: f64) {
        assert!((0.0..=1.0).contains(&per), "loss probability out of range");
        self.per_link.insert((src, dst), per);
    }

    /// Sets the loss probability of both directions of a link.
    pub fn set_link_symmetric(&mut self, a: usize, b: usize, per: f64) {
        self.set_link(a, b, per);
        self.set_link(b, a, per);
    }

    /// Loss probability for `src -> dst`.
    pub fn loss_prob(&self, src: usize, dst: usize) -> f64 {
        *self.per_link.get(&(src, dst)).unwrap_or(&self.default_per)
    }

    /// Enables the Gilbert-Elliott burst overlay on every link.
    pub fn with_burst(mut self, ge: GilbertElliott) -> Self {
        self.burst = Some(ge);
        self
    }

    /// Gives the directed link `src -> dst` its own Gilbert-Elliott burst
    /// process, overriding the global `burst` overlay on that link.
    pub fn set_link_burst(&mut self, src: usize, dst: usize, ge: GilbertElliott) {
        self.burst_link.insert((src, dst), ge);
    }

    /// Gives both directions of a link their own burst process.
    pub fn set_link_burst_symmetric(&mut self, a: usize, b: usize, ge: GilbertElliott) {
        self.set_link_burst(a, b, ge);
        self.set_link_burst(b, a, ge);
    }

    /// Puts the directed link `src -> dst` on an up/down schedule.
    pub fn set_link_churn(&mut self, src: usize, dst: usize, w: ChurnWindow) {
        self.churn.insert((src, dst), w);
    }

    /// Puts both directions of a link on the same up/down schedule.
    pub fn set_link_churn_symmetric(&mut self, a: usize, b: usize, w: ChurnWindow) {
        self.set_link_churn(a, b, w);
        self.set_link_churn(b, a, w);
    }

    /// Whether no link can ever lose a frame: no default PER, no burst
    /// overlay, no override of any kind.
    fn is_ideal(&self) -> bool {
        self.default_per == 0.0
            && self.burst.is_none()
            && self.per_link.is_empty()
            && self.burst_link.is_empty()
            && self.churn.is_empty()
    }

    /// The process of the directed link `src -> dst` — its PER, its burst
    /// chain's parameters and its schedule, overrides applied — if any
    /// override names the link; `None` means it runs the default process.
    fn overridden(&self, src: usize, dst: usize) -> Option<LinkProcess> {
        let link = (src, dst);
        let listed = self.per_link.contains_key(&link)
            || self.burst_link.contains_key(&link)
            || self.churn.contains_key(&link);
        listed.then(|| LinkProcess {
            per: self.loss_prob(src, dst),
            burst: self.burst_link.get(&link).copied().or(self.burst),
            churn: self.churn.get(&link).copied(),
        })
    }
}

/// One directed link's loss process, resolved from a [`LossModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct LinkProcess {
    per: f64,
    burst: Option<GilbertElliott>,
    churn: Option<ChurnWindow>,
}

impl LinkProcess {
    /// Samples the process for one frame at `now`: true means the frame is
    /// destroyed. `bad` is the link's Gilbert–Elliott state, advanced in
    /// place.
    ///
    /// A down link kills the frame before any stochastic process runs;
    /// the schedule is time-driven, so no RNG draw is consumed and the
    /// streams of the processes below stay aligned with a churn-free
    /// model. Then, in this order: one Bernoulli draw if the PER is
    /// positive, and with a burst chain one draw to advance it and one
    /// for the new state's loss if that is positive.
    fn drops(&self, now: Time, bad: &mut bool, rng: &mut SimRng) -> bool {
        if self.churn.is_some_and(|w| w.is_down(now)) {
            return true;
        }
        let bernoulli = self.per > 0.0 && rng.gen_bool(self.per);
        let bursty = match self.burst {
            None => false,
            Some(ge) => {
                let flip = if *bad { ge.p_b2g } else { ge.p_g2b };
                if rng.gen_bool(flip) {
                    *bad = !*bad;
                }
                let p = if *bad { ge.p_bad } else { ge.p_good };
                p > 0.0 && rng.gen_bool(p)
            }
        };
        bernoulli || bursty
    }
}

/// The loss processes of a channel's decode links, resolved once from a
/// [`LossModel`]: a table of processes — the default first, then one per
/// overridden link — and per directed decode link, in decode-row order,
/// one word: the index of its process above a Gilbert–Elliott state bit
/// (set = Bad).
pub(crate) struct LinkLosses {
    processes: Vec<LinkProcess>,
    links: Vec<u32>,
}

impl LinkLosses {
    /// Resolves `model` over the decode rows `decode`; `None` for an ideal
    /// model, which can drop nothing and so keeps no state.
    pub(crate) fn resolve(model: &LossModel, decode: &Neighbors) -> Option<LinkLosses> {
        if model.is_ideal() {
            return None;
        }
        let mut processes = vec![LinkProcess {
            per: model.default_per,
            burst: model.burst,
            churn: None,
        }];
        let mut links = Vec::with_capacity(decode.row_start(decode.len()));
        for src in 0..decode.len() {
            for &dst in decode.row(src) {
                let index = match model.overridden(src, dst as usize) {
                    Some(process) => {
                        processes.push(process);
                        processes.len() - 1
                    }
                    None => 0,
                };
                let word = u32::try_from(index << 1).expect("under 2^31 overridden links");
                links.push(word);
            }
        }
        Some(LinkLosses { processes, links })
    }

    /// Samples the loss process of decode link `link` (its position across
    /// the decode rows) for one frame at `now`: true means the frame is
    /// destroyed.
    pub(crate) fn drops(&mut self, link: usize, now: Time, rng: &mut SimRng) -> bool {
        let word = &mut self.links[link];
        let mut bad = *word & 1 == 1;
        let dropped = self.processes[(*word >> 1) as usize].drops(now, &mut bad, rng);
        *word = (*word & !1) | u32::from(bad);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nodes in the tests' decode graph: every ordered pair is a link.
    const NODES: usize = 4;

    /// `m` as a channel resolves it over a 4-node clique.
    fn resolved(m: &LossModel) -> Option<LinkLosses> {
        let rows: Vec<Vec<u32>> = (0..NODES as u32)
            .map(|s| (0..NODES as u32).filter(|&r| r != s).collect())
            .collect();
        LinkLosses::resolve(m, &Neighbors::from_rows(&rows))
    }

    /// Samples `src -> dst` in `links` (rows are ascending, sender left
    /// out, so `dst`'s place in `src`'s row is `dst` less one past `src`).
    fn drops(links: &mut LinkLosses, now: Time, src: usize, dst: usize, rng: &mut SimRng) -> bool {
        let link = src * (NODES - 1) + dst - usize::from(dst > src);
        links.drops(link, now, rng)
    }

    #[test]
    fn ideal_never_drops() {
        assert!(resolved(&LossModel::ideal()).is_none(), "no state at all");
        // A non-ideal model whose links are all lossless draws nothing.
        let mut m = LossModel::ideal();
        m.set_link(0, 1, 0.0);
        let mut links = resolved(&m).expect("an override resolves");
        let mut rng = SimRng::new(1);
        let before = rng.clone().next_u64();
        assert!((0..1000).all(|_| !drops(&mut links, Time::ZERO, 0, 1, &mut rng)));
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn gilbert_elliott_long_run_rate_and_burstiness() {
        let ge = GilbertElliott::classic();
        let mut links = resolved(&LossModel::ideal().with_burst(ge)).unwrap();
        let mut rng = SimRng::new(9);
        let n = 200_000;
        let outcomes: Vec<bool> = (0..n)
            .map(|_| drops(&mut links, Time::ZERO, 0, 1, &mut rng))
            .collect();
        let losses = outcomes.iter().filter(|&&d| d).count() as f64;
        let expect = ge.mean_loss();
        assert!(
            (losses / n as f64 - expect).abs() < 0.02,
            "long-run rate {} vs {expect}",
            losses / n as f64
        );
        // Burstiness: P(loss | previous loss) must far exceed the
        // unconditional rate.
        let mut cond = 0usize;
        let mut prev_losses = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                prev_losses += 1;
                if w[1] {
                    cond += 1;
                }
            }
        }
        let p_cond = cond as f64 / prev_losses as f64;
        assert!(
            p_cond > 2.0 * expect,
            "losses should cluster: P(loss|loss) = {p_cond:.2} vs rate {expect:.2}"
        );
    }

    #[test]
    fn gilbert_elliott_chains_are_per_link() {
        // Enters Bad on its first frame, never leaves, always drops there.
        let sticky = GilbertElliott {
            p_g2b: 1.0,
            p_b2g: 0.0,
            p_good: 0.0,
            p_bad: 1.0,
        };
        // Flips state on every frame: drops exactly on odd frames.
        let flipping = GilbertElliott {
            p_g2b: 1.0,
            p_b2g: 1.0,
            p_good: 0.0,
            p_bad: 1.0,
        };
        let mut m = LossModel::ideal().with_burst(flipping);
        m.set_link_burst(2, 3, sticky);
        let mut links = resolved(&m).unwrap();
        let mut rng = SimRng::new(2);
        let mut at = |src, dst| drops(&mut links, Time::ZERO, src, dst, &mut rng);
        // Each directed link keeps its own chain, however the frames of
        // different links interleave: (0,1) alternates, (1,0) alternates
        // on its own count, (2,3) stays Bad.
        assert!(at(0, 1), "(0,1) frame 1: Bad");
        assert!(at(2, 3));
        assert!(!at(0, 1), "(0,1) frame 2: Good again");
        assert!(at(1, 0), "(1,0) frame 1: its own chain starts Good");
        assert!(at(2, 3));
        assert!(at(0, 1), "(0,1) frame 3: Bad");
        assert!(!at(1, 0));
        assert!(at(2, 3));
    }

    #[test]
    fn uniform_rate_is_respected() {
        let mut links = resolved(&LossModel::uniform(0.25)).unwrap();
        let mut rng = SimRng::new(2);
        let dropped = (0..100_000)
            .filter(|_| drops(&mut links, Time::ZERO, 3, 2, &mut rng))
            .count();
        assert!((24_000..26_000).contains(&dropped), "drops {dropped}");
    }

    #[test]
    fn per_link_overrides_default() {
        let mut m = LossModel::uniform(0.5);
        m.set_link(0, 1, 0.0);
        assert_eq!(m.loss_prob(0, 1), 0.0);
        assert_eq!(m.loss_prob(1, 0), 0.5);
        m.set_link_symmetric(1, 2, 0.1);
        assert_eq!(m.loss_prob(1, 2), 0.1);
        assert_eq!(m.loss_prob(2, 1), 0.1);
        // Resolved: the overridden link never drops, the default one does.
        let mut links = resolved(&m).unwrap();
        let mut rng = SimRng::new(3);
        assert!((0..200).all(|_| !drops(&mut links, Time::ZERO, 0, 1, &mut rng)));
        assert!((0..200).any(|_| drops(&mut links, Time::ZERO, 1, 0, &mut rng)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_probability() {
        LossModel::uniform(1.5);
    }

    #[test]
    fn churn_window_schedule() {
        let w = ChurnWindow::new(
            Duration::from_secs(5),
            Duration::from_secs(2),
            Duration::from_secs(1),
        );
        // Cycle: up over [1, 6), down over [6, 8), repeating.
        assert!(!w.is_down(Time::from_secs(1)));
        assert!(!w.is_down(Time::from_micros(5_999_999)));
        assert!(w.is_down(Time::from_secs(6)));
        assert!(w.is_down(Time::from_micros(7_999_999)));
        assert!(!w.is_down(Time::from_secs(8)));
        assert!(w.is_down(Time::from_secs(13)), "repeats every 7 s");
        // Before the first phase instant the schedule wraps: t = 0 sits
        // 1 s before the up start, i.e. at the tail (down) end of a cycle.
        assert!(w.is_down(Time::ZERO));
    }

    #[test]
    fn churned_link_drops_exactly_while_down_without_rng() {
        let mut m = LossModel::ideal();
        m.set_link_churn(
            0,
            1,
            ChurnWindow::new(
                Duration::from_secs(1),
                Duration::from_secs(1),
                Duration::ZERO,
            ),
        );
        let mut links = resolved(&m).unwrap();
        let mut rng = SimRng::new(4);
        let before = rng.clone().next_u64();
        assert!(!drops(&mut links, Time::from_millis(500), 0, 1, &mut rng));
        assert!(drops(&mut links, Time::from_millis(1500), 0, 1, &mut rng));
        // Other links are untouched by the schedule.
        assert!(!drops(&mut links, Time::from_millis(1500), 1, 2, &mut rng));
        assert_eq!(
            rng.next_u64(),
            before,
            "churn-only model must not consume RNG draws"
        );
    }

    #[test]
    fn per_link_burst_overrides_global() {
        let always_bad = GilbertElliott {
            p_g2b: 1.0,
            p_b2g: 0.0,
            p_good: 0.0,
            p_bad: 1.0,
        };
        // No global overlay: only the listed link fades.
        let mut m = LossModel::ideal();
        m.set_link_burst(0, 1, always_bad);
        let mut links = resolved(&m).unwrap();
        let mut rng = SimRng::new(6);
        assert!(drops(&mut links, Time::ZERO, 0, 1, &mut rng));
        assert!(!drops(&mut links, Time::ZERO, 1, 2, &mut rng));
        // With a global overlay, the per-link entry still wins on its link.
        let never_bad = GilbertElliott {
            p_g2b: 0.0,
            p_b2g: 1.0,
            p_good: 0.0,
            p_bad: 1.0,
        };
        let mut m = LossModel::ideal().with_burst(never_bad);
        m.set_link_burst(0, 1, always_bad);
        let mut links = resolved(&m).unwrap();
        assert!(drops(&mut links, Time::ZERO, 0, 1, &mut rng));
        assert!(!drops(&mut links, Time::ZERO, 1, 2, &mut rng));
    }
}
