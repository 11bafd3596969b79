//! The audit log: a structured record of everything the datacenter did.
//!
//! Debugging a scheduling policy from aggregate numbers alone is
//! miserable; the audit log captures every consequential transition —
//! arrivals, placements, migrations, completions, power transitions,
//! failures, λ adjustments — with its timestamp, so a run can be replayed,
//! diffed, or rendered as a timeline (see the `datacenter_timeline`
//! example).
//!
//! The log is also the runner's trace taxonomy: every runner transition
//! the observability ring records is [`AuditKind::trace_event`] of the
//! transition's audit entry, so the two records cannot drift apart.

use eards_model::{HostId, VmId};
use eards_obs::{FaultKind, Obs, ObsEvent, PowerFlipKind, RecoveryKind};
use eards_sim::{Persist, PersistError, Reader, SimTime, Writer};

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditKind {
    /// A job entered the virtual-host queue.
    JobArrived {
        /// The VM wrapping it.
        vm: VmId,
    },
    /// VM creation started on a host.
    CreationStarted {
        /// The VM.
        vm: VmId,
        /// Target host.
        host: HostId,
    },
    /// Creation finished; the job began executing.
    VmStarted {
        /// The VM.
        vm: VmId,
        /// Its host.
        host: HostId,
    },
    /// A live migration started.
    MigrationStarted {
        /// The VM.
        vm: VmId,
        /// Source host.
        from: HostId,
        /// Destination host.
        to: HostId,
    },
    /// A live migration completed.
    MigrationFinished {
        /// The VM.
        vm: VmId,
        /// The host it left.
        from: HostId,
        /// The new host.
        to: HostId,
    },
    /// The job finished and its VM was destroyed.
    JobCompleted {
        /// The VM.
        vm: VmId,
        /// Client satisfaction earned.
        satisfaction: f64,
    },
    /// A checkpoint of the VM completed.
    CheckpointTaken {
        /// The VM.
        vm: VmId,
    },
    /// A host began booting.
    HostPoweringOn {
        /// The host.
        host: HostId,
    },
    /// A host finished booting.
    HostOn {
        /// The host.
        host: HostId,
    },
    /// A host began shutting down.
    HostPoweringOff {
        /// The host.
        host: HostId,
    },
    /// A host finished shutting down.
    HostOff {
        /// The host.
        host: HostId,
    },
    /// A VM creation aborted (dom0 failure); the VM returned to the queue.
    CreationFailed {
        /// The VM.
        vm: VmId,
        /// The host it was being created on.
        host: HostId,
    },
    /// A live migration aborted; the VM stayed on the source.
    MigrationAborted {
        /// The VM.
        vm: VmId,
        /// The host it stayed on.
        from: HostId,
        /// The destination whose reservation was released.
        to: HostId,
    },
    /// A host crashed.
    HostFailed {
        /// The host.
        host: HostId,
        /// VMs displaced back to the queue.
        displaced: usize,
    },
    /// A host boot failed; the host must be repaired before retrying.
    BootFailed {
        /// The host.
        host: HostId,
    },
    /// A transient slowdown episode began on a host.
    SlowdownStarted {
        /// The host.
        host: HostId,
        /// Effective-capacity multiplier during the episode.
        factor: f64,
    },
    /// A slowdown episode ended; the host is back to nominal capacity.
    SlowdownEnded {
        /// The host.
        host: HostId,
    },
    /// A correlated rack outage struck every powered host of one rack.
    RackOutage {
        /// The rack index (hosts `rack·size .. (rack+1)·size`).
        rack: usize,
        /// Hosts actually taken down (off hosts are unaffected).
        failed: usize,
    },
    /// A flapping host was blacklisted (reliability penalty applied).
    HostBlacklisted {
        /// The host.
        host: HostId,
        /// Crashes it has accumulated.
        crashes: u32,
    },
    /// A failed host became bootable again.
    HostRepaired {
        /// The host.
        host: HostId,
    },
    /// The adaptive controller moved λ_min.
    LambdaAdjusted {
        /// The new λ_min.
        lambda_min: f64,
    },
    /// Backpressure parked a flapping VM (retry attempts passed the cap).
    VmParked {
        /// The parked VM.
        vm: VmId,
        /// Retry attempts when parked.
        attempts: u32,
    },
    /// A parked VM re-entered admission (flapping blacklist cleared).
    VmUnparked {
        /// The released VM.
        vm: VmId,
    },
    /// Degrade mode lifted a repaired host's flapping blacklist.
    BlacklistCleared {
        /// The host.
        host: HostId,
    },
    /// A displaced or failed VM came up again; its recovery interval
    /// closed.
    VmRecovered {
        /// The VM.
        vm: VmId,
    },
}

impl AuditKind {
    /// Records [`AuditKind::trace_event`] into `obs` at `at`, if `obs` is
    /// enabled and the kind has a trace event.
    #[inline]
    pub fn trace(&self, obs: &Obs, at: SimTime) {
        if obs.is_enabled() {
            if let Some(event) = self.trace_event() {
                obs.record(at, event);
            }
        }
    }

    /// The trace event this transition records when observability is on,
    /// or `None` for transitions the trace does not carry (arrivals,
    /// operation starts, checkpoints, blacklist bookkeeping, λ moves).
    #[inline]
    pub fn trace_event(&self) -> Option<ObsEvent> {
        let fault = |kind, host: HostId| ObsEvent::Fault {
            kind,
            host: host.raw(),
        };
        let flip = |host: HostId, state| ObsEvent::PowerFlip {
            host: host.raw(),
            state,
        };
        Some(match *self {
            AuditKind::VmStarted { vm, host } => ObsEvent::Creation {
                vm: vm.raw(),
                host: host.raw(),
            },
            AuditKind::MigrationFinished { vm, from, to } => ObsEvent::Migration {
                vm: vm.raw(),
                from: from.raw(),
                to: to.raw(),
            },
            AuditKind::HostPoweringOn { host } => flip(host, PowerFlipKind::Booting),
            AuditKind::HostOn { host } => flip(host, PowerFlipKind::On),
            AuditKind::HostPoweringOff { host } => flip(host, PowerFlipKind::ShuttingDown),
            AuditKind::HostOff { host } => flip(host, PowerFlipKind::Off),
            AuditKind::CreationFailed { host, .. } => fault(FaultKind::CreationAbort, host),
            // An aborted migration is charged to its destination.
            AuditKind::MigrationAborted { to, .. } => fault(FaultKind::MigrationAbort, to),
            AuditKind::HostFailed { host, .. } => fault(FaultKind::Crash, host),
            AuditKind::BootFailed { host } => fault(FaultKind::BootFailure, host),
            AuditKind::SlowdownStarted { host, .. } => fault(FaultKind::SlowdownStart, host),
            AuditKind::SlowdownEnded { host } => fault(FaultKind::SlowdownEnd, host),
            // For rack outages the `host` field carries the rack index
            // (the per-host crashes record themselves).
            AuditKind::RackOutage { rack, .. } => ObsEvent::Fault {
                kind: FaultKind::RackOutage,
                host: rack as u32,
            },
            AuditKind::HostRepaired { host } => ObsEvent::Recovery {
                kind: RecoveryKind::HostRepaired,
                id: u64::from(host.raw()),
            },
            AuditKind::VmRecovered { vm } => ObsEvent::Recovery {
                kind: RecoveryKind::VmRecovered,
                id: vm.raw(),
            },
            AuditKind::VmParked { vm, attempts } => ObsEvent::VmParked {
                vm: vm.raw(),
                attempts,
            },
            AuditKind::JobArrived { .. }
            | AuditKind::CreationStarted { .. }
            | AuditKind::MigrationStarted { .. }
            | AuditKind::JobCompleted { .. }
            | AuditKind::CheckpointTaken { .. }
            | AuditKind::HostBlacklisted { .. }
            | AuditKind::LambdaAdjusted { .. }
            | AuditKind::VmUnparked { .. }
            | AuditKind::BlacklistCleared { .. } => return None,
        })
    }
}

/// One timestamped audit entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: AuditKind,
}

impl AuditEvent {
    /// Renders the entry as one log line.
    pub fn to_line(&self) -> String {
        let body = match &self.kind {
            AuditKind::JobArrived { vm } => format!("{vm} arrived"),
            AuditKind::CreationStarted { vm, host } => format!("{vm} creating on {host}"),
            AuditKind::VmStarted { vm, host } => format!("{vm} running on {host}"),
            AuditKind::MigrationStarted { vm, from, to } => {
                format!("{vm} migrating {from} → {to}")
            }
            AuditKind::MigrationFinished { vm, from, to } => {
                format!("{vm} moved {from} → {to}")
            }
            AuditKind::JobCompleted { vm, satisfaction } => {
                format!("{vm} completed (S = {satisfaction:.0}%)")
            }
            AuditKind::CheckpointTaken { vm } => format!("{vm} checkpointed"),
            AuditKind::HostPoweringOn { host } => format!("{host} booting"),
            AuditKind::HostOn { host } => format!("{host} online"),
            AuditKind::HostPoweringOff { host } => format!("{host} shutting down"),
            AuditKind::HostOff { host } => format!("{host} off"),
            AuditKind::CreationFailed { vm, host } => {
                format!("{vm} creation FAILED on {host}")
            }
            AuditKind::MigrationAborted { vm, from, to } => {
                format!("{vm} migration {from} → {to} ABORTED")
            }
            AuditKind::HostFailed { host, displaced } => {
                format!("{host} FAILED ({displaced} VMs displaced)")
            }
            AuditKind::BootFailed { host } => format!("{host} boot FAILED"),
            AuditKind::SlowdownStarted { host, factor } => {
                format!("{host} slowed to {:.0}% capacity", factor * 100.0)
            }
            AuditKind::SlowdownEnded { host } => format!("{host} back to full speed"),
            AuditKind::RackOutage { rack, failed } => {
                format!("rack {rack} OUTAGE ({failed} hosts down)")
            }
            AuditKind::HostBlacklisted { host, crashes } => {
                format!("{host} blacklisted after {crashes} crashes")
            }
            AuditKind::HostRepaired { host } => format!("{host} repaired"),
            AuditKind::LambdaAdjusted { lambda_min } => {
                format!("λ_min adjusted to {lambda_min:.2}")
            }
            AuditKind::VmParked { vm, attempts } => {
                format!("{vm} PARKED after {attempts} retries")
            }
            AuditKind::VmUnparked { vm } => format!("{vm} unparked"),
            AuditKind::BlacklistCleared { host } => format!("{host} blacklist cleared"),
            AuditKind::VmRecovered { vm } => format!("{vm} recovered"),
        };
        format!("[{}] {}", self.at, body)
    }
}

impl Persist for AuditKind {
    /// The tag byte, then the variant's fields in order.
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match *self {
            AuditKind::JobArrived { vm } => (0u8, vm).persist(w),
            AuditKind::CreationStarted { vm, host } => (1u8, (vm, host)).persist(w),
            AuditKind::VmStarted { vm, host } => (2u8, (vm, host)).persist(w),
            AuditKind::MigrationStarted { vm, from, to } => (3u8, (vm, (from, to))).persist(w),
            AuditKind::JobCompleted { vm, satisfaction } => (5u8, (vm, satisfaction)).persist(w),
            AuditKind::CheckpointTaken { vm } => (6u8, vm).persist(w),
            AuditKind::HostPoweringOn { host } => (7u8, host).persist(w),
            AuditKind::HostOn { host } => (8u8, host).persist(w),
            AuditKind::HostPoweringOff { host } => (9u8, host).persist(w),
            AuditKind::CreationFailed { vm, host } => (10u8, (vm, host)).persist(w),
            AuditKind::MigrationAborted { vm, from, to } => (11u8, (vm, (from, to))).persist(w),
            AuditKind::HostFailed { host, displaced } => (12u8, (host, displaced)).persist(w),
            AuditKind::BootFailed { host } => (13u8, host).persist(w),
            AuditKind::SlowdownStarted { host, factor } => (14u8, (host, factor)).persist(w),
            AuditKind::SlowdownEnded { host } => (15u8, host).persist(w),
            AuditKind::RackOutage { rack, failed } => (16u8, (rack, failed)).persist(w),
            AuditKind::HostBlacklisted { host, crashes } => (17u8, (host, crashes)).persist(w),
            AuditKind::HostRepaired { host } => (18u8, host).persist(w),
            AuditKind::LambdaAdjusted { lambda_min } => (19u8, lambda_min).persist(w),
            AuditKind::VmParked { vm, attempts } => (20u8, (vm, attempts)).persist(w),
            AuditKind::VmUnparked { vm } => (21u8, vm).persist(w),
            AuditKind::BlacklistCleared { host } => (22u8, host).persist(w),
            // Tag 4 carried a `MigrationFinished` without `from`; it is
            // retired, never reused.
            AuditKind::MigrationFinished { vm, from, to } => (23u8, (vm, (from, to))).persist(w),
            AuditKind::HostOff { host } => (24u8, host).persist(w),
            AuditKind::VmRecovered { vm } => (25u8, vm).persist(w),
        }
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => AuditKind::JobArrived {
                vm: VmId::restore(r)?,
            },
            1 => AuditKind::CreationStarted {
                vm: VmId::restore(r)?,
                host: HostId::restore(r)?,
            },
            2 => AuditKind::VmStarted {
                vm: VmId::restore(r)?,
                host: HostId::restore(r)?,
            },
            3 => AuditKind::MigrationStarted {
                vm: VmId::restore(r)?,
                from: HostId::restore(r)?,
                to: HostId::restore(r)?,
            },
            5 => AuditKind::JobCompleted {
                vm: VmId::restore(r)?,
                satisfaction: r.get_f64()?,
            },
            6 => AuditKind::CheckpointTaken {
                vm: VmId::restore(r)?,
            },
            7 => AuditKind::HostPoweringOn {
                host: HostId::restore(r)?,
            },
            8 => AuditKind::HostOn {
                host: HostId::restore(r)?,
            },
            9 => AuditKind::HostPoweringOff {
                host: HostId::restore(r)?,
            },
            10 => AuditKind::CreationFailed {
                vm: VmId::restore(r)?,
                host: HostId::restore(r)?,
            },
            11 => AuditKind::MigrationAborted {
                vm: VmId::restore(r)?,
                from: HostId::restore(r)?,
                to: HostId::restore(r)?,
            },
            12 => AuditKind::HostFailed {
                host: HostId::restore(r)?,
                displaced: r.get_usize()?,
            },
            13 => AuditKind::BootFailed {
                host: HostId::restore(r)?,
            },
            14 => AuditKind::SlowdownStarted {
                host: HostId::restore(r)?,
                factor: r.get_f64()?,
            },
            15 => AuditKind::SlowdownEnded {
                host: HostId::restore(r)?,
            },
            16 => AuditKind::RackOutage {
                rack: r.get_usize()?,
                failed: r.get_usize()?,
            },
            17 => AuditKind::HostBlacklisted {
                host: HostId::restore(r)?,
                crashes: r.get_u32()?,
            },
            18 => AuditKind::HostRepaired {
                host: HostId::restore(r)?,
            },
            19 => AuditKind::LambdaAdjusted {
                lambda_min: r.get_f64()?,
            },
            20 => AuditKind::VmParked {
                vm: VmId::restore(r)?,
                attempts: r.get_u32()?,
            },
            21 => AuditKind::VmUnparked {
                vm: VmId::restore(r)?,
            },
            22 => AuditKind::BlacklistCleared {
                host: HostId::restore(r)?,
            },
            // Retired tag 4 falls through to the error arm below.
            23 => AuditKind::MigrationFinished {
                vm: VmId::restore(r)?,
                from: HostId::restore(r)?,
                to: HostId::restore(r)?,
            },
            24 => AuditKind::HostOff {
                host: HostId::restore(r)?,
            },
            25 => AuditKind::VmRecovered {
                vm: VmId::restore(r)?,
            },
            t => return Err(PersistError::Corrupt(format!("bad AuditKind tag {t}"))),
        })
    }
}

impl Persist for AuditEvent {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.at.persist(w);
        self.kind.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(AuditEvent {
            at: SimTime::restore(r)?,
            kind: AuditKind::restore(r)?,
        })
    }
}

/// Renders a whole log, one line per event.
pub fn render_log(events: &[AuditEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_human_readable() {
        let e = AuditEvent {
            at: SimTime::from_secs(90),
            kind: AuditKind::MigrationStarted {
                vm: VmId(3),
                from: HostId(0),
                to: HostId(2),
            },
        };
        assert_eq!(e.to_line(), "[1:30.000] vm3 migrating h0 → h2");
        let log = render_log(&[e]);
        assert_eq!(log.lines().count(), 1);
    }

    #[test]
    fn fault_lines_are_human_readable() {
        let line = |kind| {
            AuditEvent {
                at: SimTime::ZERO,
                kind,
            }
            .to_line()
        };
        assert!(line(AuditKind::CreationFailed {
            vm: VmId(1),
            host: HostId(2),
        })
        .contains("vm1 creation FAILED on h2"));
        assert!(line(AuditKind::MigrationAborted {
            vm: VmId(1),
            from: HostId(0),
            to: HostId(3),
        })
        .contains("migration h0 → h3 ABORTED"));
        assert!(line(AuditKind::BootFailed { host: HostId(4) }).contains("h4 boot FAILED"));
        assert!(line(AuditKind::SlowdownStarted {
            host: HostId(5),
            factor: 0.5,
        })
        .contains("h5 slowed to 50% capacity"));
        assert!(line(AuditKind::RackOutage { rack: 2, failed: 6 }).contains("rack 2 OUTAGE"));
        assert!(line(AuditKind::HostBlacklisted {
            host: HostId(9),
            crashes: 3,
        })
        .contains("h9 blacklisted after 3 crashes"));
    }

    #[test]
    fn new_kinds_round_trip_and_retired_tag_is_corrupt() {
        let kinds = [
            AuditKind::MigrationFinished {
                vm: VmId(3),
                from: HostId(1),
                to: HostId(2),
            },
            AuditKind::HostOff { host: HostId(4) },
            AuditKind::VmRecovered { vm: VmId(9) },
        ];
        for kind in kinds {
            let mut w = Writer::new();
            kind.persist(&mut w);
            let bytes = w.into_bytes().unwrap();
            let mut r = Reader::new(&bytes);
            assert_eq!(AuditKind::restore(&mut r).unwrap(), kind);
            r.finish().unwrap();
        }
        // Tag 4 held `MigrationFinished` without `from`: refused, not
        // misread as the new layout.
        let mut w = Writer::new();
        w.put_u8(4);
        VmId(3).persist(&mut w);
        HostId(2).persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        assert!(matches!(
            AuditKind::restore(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn failure_line_counts_displaced() {
        let e = AuditEvent {
            at: SimTime::ZERO,
            kind: AuditKind::HostFailed {
                host: HostId(7),
                displaced: 3,
            },
        };
        assert!(e.to_line().contains("h7 FAILED (3 VMs displaced)"));
    }
}
