//! The pluggable routing-policy interface and its implementations.
//!
//! A [`PathPolicy`] turns a (source router, destination router) pair
//! into a channel sequence by generating candidate paths and scoring them
//! over a [`ChannelView`] — the policy's window onto the network's queue
//! state. The [`Routing`](crate::Routing) enum stays the config-level
//! selector (`Copy`/`Eq`/`Hash` for grids and labels); each variant
//! instantiates one of the policies here, and the labels on these types
//! are the single source for config nomenclature and CSV headers.
//!
//! The three historical policies — [`MinimalPolicy`], [`ValiantPolicy`],
//! [`UgalLocal`] — consume their RNG stream in exactly the order the
//! pre-trait `RouteComputer` match did, so default-config runs stay byte
//! identical (pinned by `tests/refactor_equivalence.rs` and the golden
//! figure suite). The two new policies extend the zoo:
//!
//! * [`UgalGlobal`] — UGAL-G: same candidate structure as UGAL-L, but
//!   scored with global queue knowledge (the summed occupancy of *every*
//!   hop on the candidate), the idealized variant simulators use as the
//!   upper bound for adaptive routing.
//! * [`Progressive`] — PAR: a UGAL-L decision at the source, re-evaluated
//!   at the source group's gateway; if the planned global channel looks
//!   congested against a sibling global channel of the same gateway
//!   router, the packet is diverted through that channel's group instead.

use crate::params::NetworkParams;
use dfly_engine::{Bytes, Xoshiro256};
use dfly_obs::RouteStats;
use dfly_topology::paths::{self, MinimalPlan};
use dfly_topology::{ChannelClass, ChannelId, RouterId, Topology};

/// A policy's read-only window onto per-channel queue state.
///
/// UGAL-L's hardware-faithful signal is the occupancy of a candidate's
/// *first* hop (the source router's output port); UGAL-G's idealized
/// signal sums the whole path. Both are expressed over this view, so a
/// policy never touches the network's internals directly.
pub struct ChannelView<'a> {
    occ: &'a dyn Fn(ChannelId) -> Bytes,
}

impl<'a> ChannelView<'a> {
    /// Wrap an occupancy lookup.
    pub fn new(occ: &'a dyn Fn(ChannelId) -> Bytes) -> ChannelView<'a> {
        ChannelView { occ }
    }

    /// Total queued bytes currently held at a channel.
    #[inline]
    pub fn occupancy(&self, c: ChannelId) -> Bytes {
        (self.occ)(c)
    }

    /// Summed queued bytes over a whole candidate path (UGAL-G's signal).
    #[inline]
    pub fn path_occupancy(&self, path: &[ChannelId]) -> Bytes {
        path.iter()
            .fold(0u64, |acc, &c| acc.saturating_add(self.occupancy(c)))
    }
}

/// Mutable routing state a policy borrows for one decision: the topology,
/// parameters, the policy RNG stream, the two persistent path buffers
/// (no allocation on the per-packet hot path), and the optional
/// UGAL telemetry ledger.
pub struct RouteCtx<'a> {
    /// The machine.
    pub topo: &'a Topology,
    /// Packet/buffer/bias parameters.
    pub params: &'a NetworkParams,
    /// The routing RNG stream (owned by the `RouteComputer`).
    pub rng: &'a mut Xoshiro256,
    /// Scratch path buffer (UGAL-G builds each candidate here to sum
    /// its queues; PAR builds its diverted path here).
    pub scratch: &'a mut Vec<ChannelId>,
    /// Built-winner buffer (PAR builds its stage-one winner here).
    pub best: &'a mut Vec<ChannelId>,
    /// UGAL decision counters, recorded only when telemetry is on.
    pub stats: Option<&'a mut RouteStats>,
}

/// A routing policy: candidate generation + scoring over a
/// [`ChannelView`]. Implementations append the chosen router-to-router
/// channel sequence to `out` (terminal channels are the caller's job).
pub trait PathPolicy {
    /// Short label used in config nomenclature and CSV headers. The
    /// [`Routing`](crate::Routing) enum's `label()` reads these same
    /// constants, so a policy's name exists in exactly one place.
    fn label(&self) -> &'static str;

    /// Compute one route from `src` to `dst`.
    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    );
}

// ---------------------------------------------------------------------------
// Minimal
// ---------------------------------------------------------------------------

/// Always take a minimal path (random gateway / intermediate draws).
pub struct MinimalPolicy;

impl MinimalPolicy {
    /// Nomenclature label.
    pub const LABEL: &'static str = "min";
}

impl PathPolicy for MinimalPolicy {
    fn label(&self) -> &'static str {
        Self::LABEL
    }

    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        _view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    ) {
        paths::push_minimal(ctx.topo, src, dst, ctx.rng, out);
    }
}

// ---------------------------------------------------------------------------
// Valiant
// ---------------------------------------------------------------------------

/// Always route through a uniformly random intermediate router (Valiant
/// load balancing) — the traffic-balancing extreme, used as an ablation
/// baseline.
pub struct ValiantPolicy;

impl ValiantPolicy {
    /// Nomenclature label.
    pub const LABEL: &'static str = "val";
}

impl PathPolicy for ValiantPolicy {
    fn label(&self) -> &'static str {
        Self::LABEL
    }

    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        _view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    ) {
        // Retry until the detour fits the VC budget (a random
        // intermediate can make the concatenation exceed the 10-hop
        // bound only in degenerate gateway layouts).
        loop {
            if let Some(detour) = Candidate::detour(ctx.topo, src, dst, ctx.rng) {
                detour.push(ctx.topo, out);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared UGAL candidate loop
// ---------------------------------------------------------------------------

/// How a UGAL-family policy scores a candidate.
#[derive(Clone, Copy)]
enum UgalSignal {
    /// First-hop queue x hop count (UGAL-L, as on Aries hardware).
    Local,
    /// Summed queue over every hop (UGAL-G, idealized global knowledge).
    Global,
}

/// A routing candidate, drawn but not built: a minimal path, or a
/// Valiant detour through a random intermediate router.
#[derive(Clone, Copy)]
enum Candidate {
    Minimal(MinimalPlan),
    Detour(MinimalPlan, MinimalPlan),
}

impl Candidate {
    /// Draw a detour from `src` to `dst` through a random intermediate
    /// router, or `None` when it exceeds the 10-hop VC budget. Consumes
    /// the RNG the same way either way.
    fn detour(
        topo: &Topology,
        src: RouterId,
        dst: RouterId,
        rng: &mut Xoshiro256,
    ) -> Option<Candidate> {
        let inter = paths::random_intermediate(topo, rng);
        let to = MinimalPlan::draw(topo, src, inter, rng);
        let from = MinimalPlan::draw(topo, inter, dst, rng);
        (to.hops() + from.hops() <= paths::MAX_ROUTER_HOPS).then_some(Candidate::Detour(to, from))
    }

    /// Append the candidate's channels onto `out`.
    fn push(&self, topo: &Topology, out: &mut Vec<ChannelId>) {
        match self {
            Candidate::Minimal(path) => path.push(topo, out),
            Candidate::Detour(to, from) => {
                to.push(topo, out);
                from.push(topo, out);
            }
        }
    }

    /// The candidate's score under `signal`, `bias` included. UGAL-L
    /// reads only the hop count and first channel, which the plans hold;
    /// UGAL-G builds the candidate in `scratch` to sum its queues.
    fn score(
        &self,
        signal: UgalSignal,
        bias: u64,
        topo: &Topology,
        view: &ChannelView<'_>,
        scratch: &mut Vec<ChannelId>,
    ) -> u64 {
        match signal {
            UgalSignal::Local => {
                let (hops, first) = match self {
                    Candidate::Minimal(path) => (path.hops(), path.first(topo)),
                    Candidate::Detour(to, from) => (
                        to.hops() + from.hops(),
                        to.first(topo).or_else(|| from.first(topo)),
                    ),
                };
                let first = first.map_or(0, |c| view.occupancy(c));
                first.saturating_mul(hops as u64).saturating_add(bias)
            }
            UgalSignal::Global => {
                scratch.clear();
                self.push(topo, scratch);
                view.path_occupancy(scratch).saturating_add(bias)
            }
        }
    }
}

/// The outcome of the UGAL candidate loop: the winner (`None` only if
/// every score saturated), and the best minimal and best non-minimal
/// scores for telemetry and PAR.
struct UgalChoice {
    winner: Option<Candidate>,
    best_minimal: u64,
    best_nonminimal: u64,
}

impl UgalChoice {
    /// Append the winner's channels onto `out`.
    fn push(&self, topo: &Topology, out: &mut Vec<ChannelId>) {
        if let Some(winner) = &self.winner {
            winner.push(topo, out);
        }
    }
}

/// The UGAL candidate loop shared by UGAL-L, UGAL-G, and PAR's first
/// stage: two minimal candidates, then two non-minimal candidates through
/// random intermediates, lowest score wins with ties to the earliest.
/// Candidates are scored from their plans; only the caller builds one.
///
/// RNG consumption order is the byte-identity contract: exactly the
/// pre-trait `compute_adaptive` sequence.
fn ugal_select(
    signal: UgalSignal,
    ctx: &mut RouteCtx<'_>,
    src: RouterId,
    dst: RouterId,
    view: &ChannelView<'_>,
) -> UgalChoice {
    let mut best_score = u64::MAX;
    let mut choice = UgalChoice {
        winner: None,
        best_minimal: u64::MAX,
        best_nonminimal: u64::MAX,
    };
    // Two minimal candidates (different random gateway / intermediate
    // choices).
    for _ in 0..2 {
        let candidate = Candidate::Minimal(MinimalPlan::draw(ctx.topo, src, dst, ctx.rng));
        let score = candidate.score(signal, 0, ctx.topo, view, ctx.scratch);
        choice.best_minimal = choice.best_minimal.min(score);
        if score < best_score {
            best_score = score;
            choice.winner = Some(candidate);
        }
    }
    // Two non-minimal candidates through random intermediate routers.
    for _ in 0..2 {
        if let Some(candidate) = Candidate::detour(ctx.topo, src, dst, ctx.rng) {
            let bias = ctx.params.adaptive_bias_bytes;
            let score = candidate.score(signal, bias, ctx.topo, view, ctx.scratch);
            choice.best_nonminimal = choice.best_nonminimal.min(score);
            if score < best_score {
                best_score = score;
                choice.winner = Some(candidate);
            }
        }
    }
    choice
}

/// Record a UGAL decision on the ledger (shared tie/walkover semantics:
/// ties go to the earliest candidate and minimal candidates run first, so
/// a tie is a minimal decision; a missing non-minimal candidate is a
/// walkover with margin 0, not a win).
fn record_ugal(stats: &mut Option<&mut RouteStats>, best_minimal: u64, best_nonminimal: u64) {
    if let Some(stats) = stats {
        let took_nonminimal = best_nonminimal < best_minimal;
        let margin = if best_nonminimal == u64::MAX {
            0
        } else if took_nonminimal {
            best_minimal - best_nonminimal
        } else {
            best_nonminimal - best_minimal
        };
        stats.record(took_nonminimal, margin);
    }
}

// ---------------------------------------------------------------------------
// UGAL-L
// ---------------------------------------------------------------------------

/// UGAL with local knowledge (paper Section III-C "adaptive"), as on
/// Aries hardware: the only congestion signal is the queue at the
/// candidate's first router-to-router channel. Credit back-pressure
/// propagates downstream congestion into that queue over time, so the
/// signal is real but local — adaptive routing can misjudge, which is
/// exactly the behaviour the paper's trade-off hinges on.
pub struct UgalLocal;

impl UgalLocal {
    /// Nomenclature label (the paper calls this configuration "adp").
    pub const LABEL: &'static str = "adp";
}

impl PathPolicy for UgalLocal {
    fn label(&self) -> &'static str {
        Self::LABEL
    }

    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    ) {
        let choice = ugal_select(UgalSignal::Local, ctx, src, dst, view);
        choice.push(ctx.topo, out);
        record_ugal(&mut ctx.stats, choice.best_minimal, choice.best_nonminimal);
    }
}

// ---------------------------------------------------------------------------
// UGAL-G
// ---------------------------------------------------------------------------

/// UGAL with global knowledge: the same 2-minimal + 2-non-minimal
/// candidate structure as UGAL-L, but each candidate scored by the summed
/// occupancy of *every* channel on it (plus the non-minimal bias). An
/// idealized oracle no hardware has — the standard upper bound adaptive
/// routing is compared against.
///
/// Under group-sharded PDES a replica only sees its own group's queues
/// (remote channels read as empty), so UGAL-G degrades toward UGAL-L
/// there; runs stay deterministic per worker count either way.
pub struct UgalGlobal;

impl UgalGlobal {
    /// Nomenclature label.
    pub const LABEL: &'static str = "ugalg";
}

impl PathPolicy for UgalGlobal {
    fn label(&self) -> &'static str {
        Self::LABEL
    }

    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    ) {
        let choice = ugal_select(UgalSignal::Global, ctx, src, dst, view);
        choice.push(ctx.topo, out);
        record_ugal(&mut ctx.stats, choice.best_minimal, choice.best_nonminimal);
    }
}

// ---------------------------------------------------------------------------
// PAR (progressive adaptive)
// ---------------------------------------------------------------------------

/// Progressive adaptive routing: a UGAL-L decision at the source, then —
/// when that decision was *minimal* and the packet must leave the group —
/// a second look at the source group's gateway. If the planned global
/// channel is congested relative to a sibling global channel of the same
/// gateway router (non-minimal bias included), the packet diverts through
/// that sibling's group and continues minimally from there.
///
/// The diverted path is `src -> gateway` (unchanged prefix), the sibling
/// global hop, then minimal routing from the sibling's far end to the
/// destination: at most 2 + 1 + 5 = 8 hops, inside the 10-hop VC budget.
/// On the ledger a diversion counts as a non-minimal decision, so the
/// obs UGAL ledger's `nonminimal_fraction` is PAR's divert rate.
pub struct Progressive;

impl Progressive {
    /// Nomenclature label.
    pub const LABEL: &'static str = "par";
}

impl PathPolicy for Progressive {
    fn label(&self) -> &'static str {
        Self::LABEL
    }

    fn route(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        src: RouterId,
        dst: RouterId,
        view: &ChannelView<'_>,
        out: &mut Vec<ChannelId>,
    ) {
        // Stage 1: UGAL-L at the source.
        let choice = ugal_select(UgalSignal::Local, ctx, src, dst, view);
        let (best_min, best_non) = (choice.best_minimal, choice.best_nonminimal);
        ctx.best.clear();
        choice.push(ctx.topo, ctx.best);
        let took_nonminimal = best_non < best_min;
        let sg = ctx.topo.router_group(src);
        let dg = ctx.topo.router_group(dst);
        if took_nonminimal || sg == dg {
            out.extend_from_slice(ctx.best);
            record_ugal(&mut ctx.stats, best_min, best_non);
            return;
        }

        // Stage 2: the minimal winner crosses groups — re-evaluate at its
        // gateway. Find the global hop and the router holding it.
        let global_at = ctx
            .best
            .iter()
            .position(|&c| ctx.topo.channel_class(c) == ChannelClass::Global)
            .expect("inter-group minimal path has a global hop");
        let planned = ctx.best[global_at];
        let gateway = ctx.topo.channel_owner(planned);

        // The least-occupied sibling global channel of the same gateway
        // router (deterministic scan, ties to the first).
        let mut alt: Option<(ChannelId, Bytes)> = None;
        for &(ch, dst_group) in ctx.topo.router_global_channels(gateway) {
            if ch == planned || dst_group == dg || dst_group == sg {
                continue;
            }
            let occ = view.occupancy(ch);
            if alt.map_or(true, |(_, best)| occ < best) {
                alt = Some((ch, occ));
            }
        }
        let Some((alt_ch, alt_occ)) = alt else {
            out.extend_from_slice(ctx.best);
            record_ugal(&mut ctx.stats, best_min, best_non);
            return;
        };

        // Compare remaining cost from the gateway onward: planned global
        // queue x remaining minimal hops, vs the sibling's queue x its
        // detour tail (built below) + the non-minimal bias.
        let planned_remaining = (ctx.best.len() - global_at) as u64;
        let planned_cost = view.occupancy(planned).saturating_mul(planned_remaining);

        // Build the diverted tail: sibling hop, then minimal from its far
        // end. (RNG is consumed only when stage 2 actually evaluates a
        // divert — PAR is a new policy with no byte-identity contract.)
        ctx.scratch.clear();
        ctx.scratch.extend_from_slice(&ctx.best[..global_at]);
        ctx.scratch.push(alt_ch);
        let entry = ctx
            .topo
            .channel(alt_ch)
            .dst
            .router()
            .expect("global channel ends at a router");
        paths::push_minimal(ctx.topo, entry, dst, ctx.rng, ctx.scratch);

        let divert_remaining = (ctx.scratch.len() - global_at) as u64;
        let divert_cost = alt_occ
            .saturating_mul(divert_remaining)
            .saturating_add(ctx.params.adaptive_bias_bytes);

        if divert_cost < planned_cost && ctx.scratch.len() <= paths::MAX_ROUTER_HOPS {
            out.extend_from_slice(ctx.scratch);
            if let Some(stats) = &mut ctx.stats {
                stats.record(true, planned_cost - divert_cost);
            }
        } else {
            out.extend_from_slice(ctx.best);
            record_ugal(&mut ctx.stats, best_min, best_non);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_live_in_one_place_and_do_not_collide() {
        // The satellite contract: every policy label is defined once (the
        // consts here), distinct, and distinct from any existing golden
        // filename fragment.
        let labels = [
            MinimalPolicy::LABEL,
            UgalLocal::LABEL,
            ValiantPolicy::LABEL,
            UgalGlobal::LABEL,
            Progressive::LABEL,
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len(), "policy labels must be unique");
        for new in [UgalGlobal::LABEL, Progressive::LABEL] {
            for old in ["min", "adp", "val"] {
                assert_ne!(new, old, "new policy label collides with a golden name");
            }
        }
    }

    #[test]
    fn channel_view_sums_paths() {
        let occ = |c: ChannelId| c.0 as u64 * 10;
        let view = ChannelView::new(&occ);
        assert_eq!(view.occupancy(ChannelId(3)), 30);
        assert_eq!(
            view.path_occupancy(&[ChannelId(1), ChannelId(2), ChannelId(4)]),
            70
        );
        assert_eq!(view.path_occupancy(&[]), 0);
    }
}
