//! Network model parameters (Section II of the paper).

use dfly_engine::kv::{kv, ToKv};
use dfly_engine::Bytes;
use dfly_topology::ChannelClass;

/// Tunable parameters of the packet-level model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkParams {
    /// Maximum packet payload; messages are segmented into packets of this
    /// size (last packet may be smaller).
    pub packet_size: u32,
    /// Buffer capacity of each compute-node (terminal) virtual channel.
    pub terminal_vc_bytes: Bytes,
    /// Buffer capacity of each local virtual channel.
    pub local_vc_bytes: Bytes,
    /// Buffer capacity of each global virtual channel.
    pub global_vc_bytes: Bytes,
    /// UGAL minimal-path bias, in score units (first-hop queued bytes x
    /// path hops): a non-minimal candidate's score pays this on top, so a
    /// detour is only taken when the minimal first hop is genuinely backed
    /// up (default 32 KiB ~ a full local VC x 4 hops). Larger values make
    /// adaptive routing behave more minimally.
    pub adaptive_bias_bytes: u64,
    /// Enable the shadow-accounting audit layer (see
    /// [`crate::audit`]): every event cross-checks the engine's
    /// occupancy/list/waitlist/saturation counters against an independent
    /// ledger. Auditing observes only — results are bit-identical either
    /// way — but costs time, so it defaults to on in debug builds and off
    /// in release builds.
    pub audit: bool,
    /// Enable the telemetry layer (see `dfly-obs`): event-loop profiling,
    /// periodic per-class utilization/occupancy samples, and UGAL decision
    /// counters. Like auditing, telemetry observes only — obs-on and
    /// obs-off runs are bit-identical in every simulation output — but it
    /// costs time per event, so it defaults to off everywhere. Samples
    /// are taken every 50 µs unless
    /// [`Network::set_obs_interval`](crate::Network::set_obs_interval)
    /// picks another interval.
    pub obs: bool,
    /// Telemetry timing stride: with obs on, every event is counted but
    /// only every Nth event per kind has its handler wall-clock measured,
    /// so the obs-on path does O(1/N) timestamp reads. Stride 1 restores
    /// exhaustive timing; the default (64) keeps per-kind means within a
    /// few percent of exhaustive on quick-scale runs while cutting the
    /// timing cost to noise. Must be at least 1. Ignored when `obs` is
    /// off.
    pub obs_stride: u32,
    /// Use Linux's `CLOCK_MONOTONIC_COARSE` for telemetry timing instead
    /// of the precise monotonic clock. Reads cost a few ns but resolve
    /// only to the kernel tick (1–4 ms), so this is for aggregate timing
    /// over very long instrumented runs; per-kind means need event counts
    /// far above the tick/handler-cost ratio to converge. Falls back to
    /// the precise clock off Linux. Ignored when `obs` is off.
    pub obs_coarse_clock: bool,
}

impl Default for NetworkParams {
    /// The paper's Theta parameters: 8 KiB node VC, 8 KiB local VC,
    /// 16 KiB global VC; 4 KiB packets (Aries-like maximum request size).
    fn default() -> NetworkParams {
        NetworkParams {
            packet_size: 4096,
            terminal_vc_bytes: 8 * 1024,
            local_vc_bytes: 8 * 1024,
            global_vc_bytes: 16 * 1024,
            adaptive_bias_bytes: 32768,
            audit: cfg!(debug_assertions),
            obs: false,
            obs_stride: 64,
            obs_coarse_clock: false,
        }
    }
}

impl NetworkParams {
    /// VC buffer capacity for a channel class.
    pub fn vc_capacity(&self, class: ChannelClass) -> Bytes {
        match class {
            ChannelClass::TerminalUp | ChannelClass::TerminalDown => self.terminal_vc_bytes,
            ChannelClass::LocalRow | ChannelClass::LocalCol => self.local_vc_bytes,
            ChannelClass::Global => self.global_vc_bytes,
        }
    }

    /// Number of packets a message of `bytes` is segmented into
    /// (a zero-byte message still sends one packet, carrying the header).
    pub fn packets_for(&self, bytes: Bytes) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.packet_size as u64)
        }
    }

    /// Validate: every buffer must hold at least one full packet, or the
    /// network could never forward a full-size packet.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_size == 0 {
            return Err("packet_size must be positive".into());
        }
        if self.obs_stride == 0 {
            return Err("obs_stride must be at least 1 (1 = exhaustive timing)".into());
        }
        for (name, cap) in [
            ("terminal", self.terminal_vc_bytes),
            ("local", self.local_vc_bytes),
            ("global", self.global_vc_bytes),
        ] {
            if cap < self.packet_size as u64 {
                return Err(format!(
                    "{name} VC capacity {cap} cannot hold one packet of {}",
                    self.packet_size
                ));
            }
        }
        Ok(())
    }
}

impl ToKv for NetworkParams {
    fn to_kv(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        kv(&mut out, "packet_size", self.packet_size);
        kv(&mut out, "terminal_vc_bytes", self.terminal_vc_bytes);
        kv(&mut out, "local_vc_bytes", self.local_vc_bytes);
        kv(&mut out, "global_vc_bytes", self.global_vc_bytes);
        kv(&mut out, "adaptive_bias_bytes", self.adaptive_bias_bytes);
        kv(&mut out, "audit", self.audit);
        kv(&mut out, "obs", self.obs);
        kv(&mut out, "obs_stride", self.obs_stride);
        kv(&mut out, "obs_coarse_clock", self.obs_coarse_clock);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let p = NetworkParams::default();
        assert_eq!(p.packet_size, 4096);
        assert_eq!(p.vc_capacity(ChannelClass::TerminalUp), 8 * 1024);
        assert_eq!(p.vc_capacity(ChannelClass::LocalRow), 8 * 1024);
        assert_eq!(p.vc_capacity(ChannelClass::LocalCol), 8 * 1024);
        assert_eq!(p.vc_capacity(ChannelClass::Global), 16 * 1024);
        assert_eq!(p.audit, cfg!(debug_assertions));
        assert!(!p.obs, "telemetry must be opt-in in every build profile");
        assert_eq!(p.obs_stride, 64);
        assert!(!p.obs_coarse_clock);
        p.validate().unwrap();
    }

    #[test]
    fn packet_segmentation() {
        let p = NetworkParams::default();
        assert_eq!(p.packets_for(0), 1);
        assert_eq!(p.packets_for(1), 1);
        assert_eq!(p.packets_for(4096), 1);
        assert_eq!(p.packets_for(4097), 2);
        assert_eq!(p.packets_for(190 * 1024), 48); // CR's ~190 KB message
    }

    #[test]
    fn validate_rejects_small_buffers() {
        let mut p = NetworkParams::default();
        p.local_vc_bytes = 1024;
        assert!(p.validate().is_err());
        let mut p = NetworkParams::default();
        p.packet_size = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_stride() {
        let mut p = NetworkParams::default();
        p.obs_stride = 0;
        assert!(p.validate().is_err());
        p.obs_stride = 1;
        p.validate().unwrap();
    }
}
