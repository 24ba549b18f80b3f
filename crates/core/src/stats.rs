//! Instrumentation: the efficiency factors the paper names (§2.1) —
//! latency exposure, overhead, starvation — made measurable.
//!
//! Every locality keeps lock-free counters updated by its workers; a
//! [`StatsSnapshot`] is a consistent-enough copy for experiment output
//! (individual counters are exact; cross-counter skew is bounded by the
//! snapshot interval, which is fine for the ratios the experiments report).

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-locality counters (all monotone).
#[derive(Debug, Default)]
pub struct LocalityCounters {
    /// Parcels sent from this locality (including forwarded ones).
    pub parcels_sent: AtomicU64,
    /// Parcels received and executed here.
    pub parcels_recv: AtomicU64,
    /// Parcels that arrived here but had to be forwarded after migration.
    pub parcels_forwarded: AtomicU64,
    /// Payload + header bytes sent. On the batched path this includes
    /// each record's length prefix (what the wire delay model charges);
    /// only the fixed per-frame header is unattributed.
    pub bytes_sent: AtomicU64,
    /// PX-threads executed (fresh threads + parcel-spawned threads).
    pub threads_executed: AtomicU64,
    /// Depleted threads resumed (suspensions that completed).
    pub resumes: AtomicU64,
    /// Tasks stolen from a sibling worker within the locality.
    pub steals: AtomicU64,
    /// Times a worker went to sleep with no work (starvation events).
    pub parks: AtomicU64,
    /// Nanoseconds workers spent executing tasks.
    pub busy_ns: AtomicU64,
    /// Nanoseconds workers spent idle (searching or parked).
    pub idle_ns: AtomicU64,
    /// LCO events processed (triggers, contributions, slot fills).
    pub lco_events: AtomicU64,
    /// Percolated (prestaged) tasks executed.
    pub staged_executed: AtomicU64,
    /// AGAS resolutions served from the local cache.
    pub agas_cache_hits: AtomicU64,
    /// AGAS resolutions *not* served from the local cache (directory
    /// lookups plus birthplace fallbacks).
    pub agas_cache_misses: AtomicU64,
    /// AGAS resolutions that consulted the directory.
    pub agas_directory_lookups: AtomicU64,
    /// Parcel frames flushed toward this locality by the coalescing ports
    /// (sender side, aggregated over all senders).
    pub frames_sent: AtomicU64,
    /// Parcel frames received and executed here.
    pub frames_recv: AtomicU64,
    /// Parcels that shared a port frame with at least one earlier parcel
    /// (destination-attributed; the batching win in message counts).
    pub coalesced_parcels: AtomicU64,
    /// Frames flushed because they hit `max_batch_parcels`/`max_batch_bytes`.
    pub batch_flush_full: AtomicU64,
    /// Frames shipped before they were full: the sending worker went
    /// idle or held them for `flush_interval`, a non-worker push woke a
    /// worker to sweep the ports, or shutdown drained them.
    pub batch_flush_timer: AtomicU64,
    /// Parcels that died, all causes (the sum of the five by-cause
    /// counters below). Every death also raises a fault delivered to the
    /// parcel's continuation — see the "Failure semantics" README section.
    pub dead_parcels: AtomicU64,
    /// Deaths: forwarding/retry hop budget exhausted (migration storm or
    /// freed object).
    pub dead_hop_cap: AtomicU64,
    /// Deaths: action absent from the registry.
    pub dead_unknown_action: AtomicU64,
    /// Deaths: handler returned an error (including LCO protocol
    /// violations such as double-triggering).
    pub dead_handler_error: AtomicU64,
    /// Deaths: action handler panicked.
    pub dead_panic: AtomicU64,
    /// Deaths: undecodable parcel, frame record, or payload.
    pub dead_decode: AtomicU64,
    /// Deaths: parcel belonged to a cancelled parallel process and was
    /// killed at dispatch.
    pub dead_cancelled: AtomicU64,
    /// Deaths: the transport could not deliver (peer connection dropped,
    /// or a closure task addressed across an OS-process boundary).
    pub dead_transport: AtomicU64,
    /// Closure/resume PX-thread tasks dropped because their owning
    /// process was cancelled (not parcels, so not in `dead_parcels`;
    /// mirrors how thread panics live beside the parcel death counters).
    pub tasks_cancelled: AtomicU64,
    /// PX-threads that panicked (isolated; the worker survives).
    pub panics: AtomicU64,
    /// Balancer rounds in which this locality was sampled and gossiped.
    pub gossip_rounds: AtomicU64,
    /// Gossip parcels received and merged here.
    pub gossip_parcels: AtomicU64,
    /// Queued tasks shed from here to a less-loaded peer (work diffusion).
    pub tasks_shed: AtomicU64,
    /// Objects migrated *to* here by the balancer (heat-driven pulls).
    pub balance_pulls: AtomicU64,
    /// Hops accumulated by parcels that ultimately executed here — both
    /// forward hops after a stale resolution and owner-but-absent retry
    /// hops during a migration window (every hop is a routing cost paid
    /// to find the object). AGAS chase length numerator; divide by
    /// [`LocalityStats::chased_parcels`].
    pub chase_hops_total: AtomicU64,
    /// Parcels executed here after at least one forward or retry hop.
    pub chased_parcels: AtomicU64,
    /// Parcels killed here by the forwarding hop cap (chase budget
    /// exhausted: migration storm or a freed object).
    pub chase_cap_violations: AtomicU64,
    /// Causal-trace events recorded into this locality's ring (zero
    /// unless `Config::trace` is enabled).
    pub trace_events_recorded: AtomicU64,
    /// Trace events lost to ring overwrite — a non-zero value means the
    /// ring is too small for the sampling rate and dump cadence.
    pub trace_events_dropped: AtomicU64,
    /// Directory lookups answered by this rank's own home shards (the
    /// queried GID was born here, so no wire round-trip was needed).
    pub dir_lookups_local: AtomicU64,
    /// Directory lookups sent to a remote home rank as `__sys/dir_lookup`
    /// parcels (request counted at the asking rank).
    pub dir_lookups_remote: AtomicU64,
    /// Parcels forwarded because the local resolution named a rank that
    /// was not this one (the cross-rank share of `parcels_forwarded`).
    pub dir_forwards: AtomicU64,
    /// Cache-repair hints applied here (`__sys/dir_repair` deliveries
    /// plus in-process chase repairs).
    pub dir_repairs: AtomicU64,
}

macro_rules! bump {
    ($field:expr) => {{
        // Relaxed: every bump! target is a monotonic stats counter,
        // never a synchronization point.
        let _ = $field.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
    }};
    ($field:expr, $n:expr) => {{
        // Relaxed: see the single-increment arm above — counters only.
        let _ = $field.fetch_add($n, ::std::sync::atomic::Ordering::Relaxed);
    }};
}
pub(crate) use bump;

impl LocalityCounters {
    /// Count one parcel death: the total plus its by-cause counter
    /// (mirroring the AGAS migrations-by-cause breakdown).
    pub(crate) fn count_death(&self, cause: crate::error::FaultCause, n: u64) {
        use crate::error::FaultCause;
        bump!(self.dead_parcels, n);
        match cause {
            FaultCause::HopCap => bump!(self.dead_hop_cap, n),
            FaultCause::UnknownAction => bump!(self.dead_unknown_action, n),
            FaultCause::HandlerError => bump!(self.dead_handler_error, n),
            FaultCause::Panic => bump!(self.dead_panic, n),
            FaultCause::Decode => bump!(self.dead_decode, n),
            FaultCause::Cancelled => bump!(self.dead_cancelled, n),
            FaultCause::Transport => bump!(self.dead_transport, n),
        }
    }

    /// Copy current values.
    pub fn snapshot(&self) -> LocalityStats {
        LocalityStats {
            parcels_sent: self.parcels_sent.load(Ordering::Relaxed),
            parcels_recv: self.parcels_recv.load(Ordering::Relaxed),
            parcels_forwarded: self.parcels_forwarded.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            threads_executed: self.threads_executed.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            lco_events: self.lco_events.load(Ordering::Relaxed),
            staged_executed: self.staged_executed.load(Ordering::Relaxed),
            agas_cache_hits: self.agas_cache_hits.load(Ordering::Relaxed),
            agas_cache_misses: self.agas_cache_misses.load(Ordering::Relaxed),
            agas_directory_lookups: self.agas_directory_lookups.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            coalesced_parcels: self.coalesced_parcels.load(Ordering::Relaxed),
            batch_flush_full: self.batch_flush_full.load(Ordering::Relaxed),
            batch_flush_timer: self.batch_flush_timer.load(Ordering::Relaxed),
            dead_parcels: self.dead_parcels.load(Ordering::Relaxed),
            dead_hop_cap: self.dead_hop_cap.load(Ordering::Relaxed),
            dead_unknown_action: self.dead_unknown_action.load(Ordering::Relaxed),
            dead_handler_error: self.dead_handler_error.load(Ordering::Relaxed),
            dead_panic: self.dead_panic.load(Ordering::Relaxed),
            dead_decode: self.dead_decode.load(Ordering::Relaxed),
            dead_cancelled: self.dead_cancelled.load(Ordering::Relaxed),
            dead_transport: self.dead_transport.load(Ordering::Relaxed),
            tasks_cancelled: self.tasks_cancelled.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            gossip_rounds: self.gossip_rounds.load(Ordering::Relaxed),
            gossip_parcels: self.gossip_parcels.load(Ordering::Relaxed),
            tasks_shed: self.tasks_shed.load(Ordering::Relaxed),
            balance_pulls: self.balance_pulls.load(Ordering::Relaxed),
            chase_hops_total: self.chase_hops_total.load(Ordering::Relaxed),
            chased_parcels: self.chased_parcels.load(Ordering::Relaxed),
            chase_cap_violations: self.chase_cap_violations.load(Ordering::Relaxed),
            trace_events_recorded: self.trace_events_recorded.load(Ordering::Relaxed),
            trace_events_dropped: self.trace_events_dropped.load(Ordering::Relaxed),
            dir_lookups_local: self.dir_lookups_local.load(Ordering::Relaxed),
            dir_lookups_remote: self.dir_lookups_remote.load(Ordering::Relaxed),
            dir_forwards: self.dir_forwards.load(Ordering::Relaxed),
            dir_repairs: self.dir_repairs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of [`LocalityCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)]
pub struct LocalityStats {
    pub parcels_sent: u64,
    pub parcels_recv: u64,
    pub parcels_forwarded: u64,
    pub bytes_sent: u64,
    pub threads_executed: u64,
    pub resumes: u64,
    pub steals: u64,
    pub parks: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub lco_events: u64,
    pub staged_executed: u64,
    pub agas_cache_hits: u64,
    pub agas_cache_misses: u64,
    pub agas_directory_lookups: u64,
    pub frames_sent: u64,
    pub frames_recv: u64,
    pub coalesced_parcels: u64,
    pub batch_flush_full: u64,
    pub batch_flush_timer: u64,
    pub dead_parcels: u64,
    pub dead_hop_cap: u64,
    pub dead_unknown_action: u64,
    pub dead_handler_error: u64,
    pub dead_panic: u64,
    pub dead_decode: u64,
    pub dead_cancelled: u64,
    pub dead_transport: u64,
    pub tasks_cancelled: u64,
    pub panics: u64,
    pub gossip_rounds: u64,
    pub gossip_parcels: u64,
    pub tasks_shed: u64,
    pub balance_pulls: u64,
    pub chase_hops_total: u64,
    pub chased_parcels: u64,
    pub chase_cap_violations: u64,
    pub trace_events_recorded: u64,
    pub trace_events_dropped: u64,
    pub dir_lookups_local: u64,
    pub dir_lookups_remote: u64,
    pub dir_forwards: u64,
    pub dir_repairs: u64,
}

impl LocalityStats {
    /// Parcel deaths summed over the by-cause counters. Always equals
    /// [`LocalityStats::dead_parcels`] (the invariant tested in the
    /// fault integration suite).
    pub fn deaths_by_cause_total(&self) -> u64 {
        self.dead_hop_cap
            + self.dead_unknown_action
            + self.dead_handler_error
            + self.dead_panic
            + self.dead_decode
            + self.dead_cancelled
            + self.dead_transport
    }

    /// Fraction of worker time spent executing (1.0 = no starvation).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// Mean parcels per flushed frame (1.0 = no coalescing benefit).
    /// Computed from the send-side counters, which advance together under
    /// the port lock, so the ratio is consistent even while frames are in
    /// flight.
    pub fn parcels_per_frame(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            // Frames carry coalesced parcels plus each frame's opener.
            (self.coalesced_parcels + self.frames_sent) as f64 / self.frames_sent as f64
        }
    }

    /// Mean forward hops per chased parcel (0.0 when nothing chased). A
    /// rising mean under a migration-heavy policy means senders' caches
    /// are staying stale longer than the repair hints can fix.
    pub fn mean_chase_len(&self) -> f64 {
        if self.chased_parcels == 0 {
            0.0
        } else {
            self.chase_hops_total as f64 / self.chased_parcels as f64
        }
    }

    /// Fraction of AGAS resolutions served from the local cache.
    pub fn agas_hit_rate(&self) -> f64 {
        let total = self.agas_cache_hits + self.agas_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.agas_cache_hits as f64 / total as f64
        }
    }

    /// Element-wise difference (for interval measurements).
    pub fn delta_from(&self, earlier: &LocalityStats) -> LocalityStats {
        LocalityStats {
            parcels_sent: self.parcels_sent - earlier.parcels_sent,
            parcels_recv: self.parcels_recv - earlier.parcels_recv,
            parcels_forwarded: self.parcels_forwarded - earlier.parcels_forwarded,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            threads_executed: self.threads_executed - earlier.threads_executed,
            resumes: self.resumes - earlier.resumes,
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            busy_ns: self.busy_ns - earlier.busy_ns,
            idle_ns: self.idle_ns - earlier.idle_ns,
            lco_events: self.lco_events - earlier.lco_events,
            staged_executed: self.staged_executed - earlier.staged_executed,
            agas_cache_hits: self.agas_cache_hits - earlier.agas_cache_hits,
            agas_cache_misses: self.agas_cache_misses - earlier.agas_cache_misses,
            agas_directory_lookups: self.agas_directory_lookups - earlier.agas_directory_lookups,
            frames_sent: self.frames_sent - earlier.frames_sent,
            frames_recv: self.frames_recv - earlier.frames_recv,
            coalesced_parcels: self.coalesced_parcels - earlier.coalesced_parcels,
            batch_flush_full: self.batch_flush_full - earlier.batch_flush_full,
            batch_flush_timer: self.batch_flush_timer - earlier.batch_flush_timer,
            dead_parcels: self.dead_parcels - earlier.dead_parcels,
            dead_hop_cap: self.dead_hop_cap - earlier.dead_hop_cap,
            dead_unknown_action: self.dead_unknown_action - earlier.dead_unknown_action,
            dead_handler_error: self.dead_handler_error - earlier.dead_handler_error,
            dead_panic: self.dead_panic - earlier.dead_panic,
            dead_decode: self.dead_decode - earlier.dead_decode,
            dead_cancelled: self.dead_cancelled - earlier.dead_cancelled,
            dead_transport: self.dead_transport - earlier.dead_transport,
            tasks_cancelled: self.tasks_cancelled - earlier.tasks_cancelled,
            panics: self.panics - earlier.panics,
            gossip_rounds: self.gossip_rounds - earlier.gossip_rounds,
            gossip_parcels: self.gossip_parcels - earlier.gossip_parcels,
            tasks_shed: self.tasks_shed - earlier.tasks_shed,
            balance_pulls: self.balance_pulls - earlier.balance_pulls,
            chase_hops_total: self.chase_hops_total - earlier.chase_hops_total,
            chased_parcels: self.chased_parcels - earlier.chased_parcels,
            chase_cap_violations: self.chase_cap_violations - earlier.chase_cap_violations,
            trace_events_recorded: self.trace_events_recorded - earlier.trace_events_recorded,
            trace_events_dropped: self.trace_events_dropped - earlier.trace_events_dropped,
            dir_lookups_local: self.dir_lookups_local - earlier.dir_lookups_local,
            dir_lookups_remote: self.dir_lookups_remote - earlier.dir_lookups_remote,
            dir_forwards: self.dir_forwards - earlier.dir_forwards,
            dir_repairs: self.dir_repairs - earlier.dir_repairs,
        }
    }
}

/// Send/receive accounting for one TCP peer (all zeros for the
/// in-process transport, which has no peers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PeerStats {
    /// The peer's locality id.
    pub peer: u16,
    /// Stream messages written toward the peer (parcels + frames +
    /// control).
    pub msgs_sent: u64,
    /// Bytes written toward the peer (bodies + stream headers).
    pub bytes_sent: u64,
    /// Multi-parcel frames among `msgs_sent`.
    pub frames_sent: u64,
    /// Stream messages received from the peer.
    pub msgs_recv: u64,
    /// Raw bytes read from the peer's connection.
    pub bytes_recv: u64,
    /// Times the outgoing connection to the peer was re-established
    /// after a write failure.
    pub reconnects: u64,
    /// Messages currently waiting in the peer's outbound send queue —
    /// a *gauge*, sampled at snapshot time (deltas keep the newer
    /// sample). A persistently high depth means the peer reads slower
    /// than this rank sends: backpressure is imminent.
    pub queue_depth: u64,
    /// High-watermark of bytes ever queued toward the peer at once — a
    /// *gauge* (deltas keep the newer sample). Compare against the
    /// transport's queue bound to see how close a slow peer has come to
    /// stalling this rank's senders.
    pub queue_bytes_hwm: u64,
}

/// Transport-level statistics: one entry per TCP peer; empty for the
/// in-process backend.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Per-peer counters, ascending by peer id (the own locality is
    /// absent — a process does not peer with itself).
    pub peers: Vec<PeerStats>,
}

/// Runtime-wide snapshot: one entry per locality plus totals.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Per-locality stats, indexed by locality id.
    pub localities: Vec<LocalityStats>,
    /// AGAS migrations recorded by explicit [`crate::runtime::Runtime::migrate_data`] calls.
    pub migrations_manual: u64,
    /// AGAS migrations initiated by the balancer (heat-driven pulls).
    pub migrations_balancer: u64,
    /// Parallel processes created over the runtime's lifetime (roots and
    /// subprocesses).
    pub processes_created: u64,
    /// Parallel processes cancelled (each subtree member counts once).
    pub processes_cancelled: u64,
    /// Exited-and-unreferenced process records reaped from the process
    /// table (the process-table GC).
    pub processes_reaped: u64,
    /// Per-peer transport counters (TCP backend only).
    pub transport: TransportStats,
}

impl StatsSnapshot {
    /// Sum across localities.
    pub fn total(&self) -> LocalityStats {
        let mut t = LocalityStats::default();
        for l in &self.localities {
            t.parcels_sent += l.parcels_sent;
            t.parcels_recv += l.parcels_recv;
            t.parcels_forwarded += l.parcels_forwarded;
            t.bytes_sent += l.bytes_sent;
            t.threads_executed += l.threads_executed;
            t.resumes += l.resumes;
            t.steals += l.steals;
            t.parks += l.parks;
            t.busy_ns += l.busy_ns;
            t.idle_ns += l.idle_ns;
            t.lco_events += l.lco_events;
            t.staged_executed += l.staged_executed;
            t.agas_cache_hits += l.agas_cache_hits;
            t.agas_cache_misses += l.agas_cache_misses;
            t.agas_directory_lookups += l.agas_directory_lookups;
            t.frames_sent += l.frames_sent;
            t.frames_recv += l.frames_recv;
            t.coalesced_parcels += l.coalesced_parcels;
            t.batch_flush_full += l.batch_flush_full;
            t.batch_flush_timer += l.batch_flush_timer;
            t.dead_parcels += l.dead_parcels;
            t.dead_hop_cap += l.dead_hop_cap;
            t.dead_unknown_action += l.dead_unknown_action;
            t.dead_handler_error += l.dead_handler_error;
            t.dead_panic += l.dead_panic;
            t.dead_decode += l.dead_decode;
            t.dead_cancelled += l.dead_cancelled;
            t.dead_transport += l.dead_transport;
            t.tasks_cancelled += l.tasks_cancelled;
            t.panics += l.panics;
            t.gossip_rounds += l.gossip_rounds;
            t.gossip_parcels += l.gossip_parcels;
            t.tasks_shed += l.tasks_shed;
            t.balance_pulls += l.balance_pulls;
            t.chase_hops_total += l.chase_hops_total;
            t.chased_parcels += l.chased_parcels;
            t.chase_cap_violations += l.chase_cap_violations;
            t.trace_events_recorded += l.trace_events_recorded;
            t.trace_events_dropped += l.trace_events_dropped;
            t.dir_lookups_local += l.dir_lookups_local;
            t.dir_lookups_remote += l.dir_lookups_remote;
            t.dir_forwards += l.dir_forwards;
            t.dir_repairs += l.dir_repairs;
        }
        t
    }

    /// Mean busy fraction across localities (unweighted).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.localities.is_empty() {
            return 0.0;
        }
        self.localities
            .iter()
            .map(LocalityStats::busy_fraction)
            .sum::<f64>()
            / self.localities.len() as f64
    }

    /// Interval delta against an earlier snapshot.
    pub fn delta_from(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            localities: self
                .localities
                .iter()
                .zip(earlier.localities.iter())
                .map(|(now, then)| now.delta_from(then))
                .collect(),
            migrations_manual: self.migrations_manual - earlier.migrations_manual,
            migrations_balancer: self.migrations_balancer - earlier.migrations_balancer,
            processes_created: self.processes_created - earlier.processes_created,
            processes_cancelled: self.processes_cancelled - earlier.processes_cancelled,
            processes_reaped: self.processes_reaped - earlier.processes_reaped,
            transport: TransportStats {
                peers: self
                    .transport
                    .peers
                    .iter()
                    .zip(earlier.transport.peers.iter())
                    .map(|(now, then)| PeerStats {
                        peer: now.peer,
                        msgs_sent: now.msgs_sent - then.msgs_sent,
                        bytes_sent: now.bytes_sent - then.bytes_sent,
                        frames_sent: now.frames_sent - then.frames_sent,
                        msgs_recv: now.msgs_recv - then.msgs_recv,
                        bytes_recv: now.bytes_recv - then.bytes_recv,
                        reconnects: now.reconnects - then.reconnects,
                        // Gauges, not counters: keep the newer sample.
                        queue_depth: now.queue_depth,
                        queue_bytes_hwm: now.queue_bytes_hwm,
                    })
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let c = LocalityCounters::default();
        bump!(c.parcels_sent);
        bump!(c.parcels_sent);
        bump!(c.bytes_sent, 100);
        let s = c.snapshot();
        assert_eq!(s.parcels_sent, 2);
        assert_eq!(s.bytes_sent, 100);
    }

    #[test]
    fn death_counting_by_cause() {
        use crate::error::FaultCause;
        let c = LocalityCounters::default();
        c.count_death(FaultCause::HopCap, 1);
        c.count_death(FaultCause::Panic, 1);
        c.count_death(FaultCause::Decode, 3);
        let s = c.snapshot();
        assert_eq!(s.dead_parcels, 5);
        assert_eq!(s.dead_hop_cap, 1);
        assert_eq!(s.dead_panic, 1);
        assert_eq!(s.dead_decode, 3);
        assert_eq!(s.dead_unknown_action, 0);
        assert_eq!(s.dead_handler_error, 0);
        assert_eq!(s.deaths_by_cause_total(), s.dead_parcels);
    }

    #[test]
    fn busy_fraction_bounds() {
        let mut s = LocalityStats::default();
        assert_eq!(s.busy_fraction(), 0.0);
        s.busy_ns = 75;
        s.idle_ns = 25;
        assert!((s.busy_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn batch_counter_ratios() {
        let s = LocalityStats {
            frames_sent: 4,
            coalesced_parcels: 12,
            agas_cache_hits: 3,
            agas_cache_misses: 1,
            ..Default::default()
        };
        assert!((s.parcels_per_frame() - 4.0).abs() < 1e-12);
        assert!((s.agas_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(LocalityStats::default().parcels_per_frame(), 0.0);
        assert_eq!(LocalityStats::default().agas_hit_rate(), 0.0);
    }

    #[test]
    fn totals_and_deltas() {
        let a = LocalityStats {
            parcels_sent: 5,
            busy_ns: 10,
            ..Default::default()
        };
        let b = LocalityStats {
            parcels_sent: 8,
            busy_ns: 30,
            ..Default::default()
        };
        let snap = StatsSnapshot {
            localities: vec![a, b],
            ..Default::default()
        };
        assert_eq!(snap.total().parcels_sent, 13);
        let later = StatsSnapshot {
            localities: vec![b, b],
            migrations_manual: 2,
            migrations_balancer: 5,
            processes_created: 3,
            processes_cancelled: 1,
            processes_reaped: 4,
            ..Default::default()
        };
        let d = later.delta_from(&snap);
        assert_eq!(d.localities[0].parcels_sent, 3);
        assert_eq!(d.localities[1].parcels_sent, 0);
        assert_eq!(d.migrations_manual, 2);
        assert_eq!(d.migrations_balancer, 5);
        assert_eq!(d.processes_created, 3);
        assert_eq!(d.processes_cancelled, 1);
        assert_eq!(d.processes_reaped, 4);
    }

    #[test]
    fn transport_stats_delta() {
        let then = StatsSnapshot {
            transport: TransportStats {
                peers: vec![PeerStats {
                    peer: 1,
                    msgs_sent: 10,
                    bytes_sent: 100,
                    queue_depth: 9,
                    queue_bytes_hwm: 512,
                    ..Default::default()
                }],
            },
            ..Default::default()
        };
        let now = StatsSnapshot {
            transport: TransportStats {
                peers: vec![PeerStats {
                    peer: 1,
                    msgs_sent: 25,
                    bytes_sent: 400,
                    reconnects: 1,
                    queue_depth: 2,
                    queue_bytes_hwm: 4096,
                    ..Default::default()
                }],
            },
            ..Default::default()
        };
        let d = now.delta_from(&then);
        assert_eq!(d.transport.peers[0].msgs_sent, 15);
        assert_eq!(d.transport.peers[0].bytes_sent, 300);
        assert_eq!(d.transport.peers[0].reconnects, 1);
        // Gauges carry the newer sample, not a difference.
        assert_eq!(d.transport.peers[0].queue_depth, 2);
        assert_eq!(d.transport.peers[0].queue_bytes_hwm, 4096);
    }

    #[test]
    fn empty_delta_ratios_are_zero_not_nan() {
        // A zero-length interval (or a freshly booted runtime) must
        // yield 0.0 ratios, never NaN: the metrics text page prints
        // these gauges verbatim and Prometheus-style parsers choke on
        // NaN. Pinned here so a future rewrite of the helpers cannot
        // quietly reintroduce 0/0.
        let snap = StatsSnapshot {
            localities: vec![LocalityStats::default(); 3],
            ..Default::default()
        };
        let d = snap.delta_from(&snap);
        assert_eq!(d.mean_busy_fraction(), 0.0);
        let t = d.total();
        for ratio in [
            t.busy_fraction(),
            t.parcels_per_frame(),
            t.mean_chase_len(),
            t.agas_hit_rate(),
        ] {
            assert_eq!(ratio, 0.0);
            assert!(ratio.is_finite());
        }
        for l in &d.localities {
            assert!(l.busy_fraction().is_finite());
            assert!(l.parcels_per_frame().is_finite());
            assert!(l.mean_chase_len().is_finite());
            assert!(l.agas_hit_rate().is_finite());
        }
        // An empty snapshot (no localities at all) is also NaN-free.
        assert_eq!(StatsSnapshot::default().mean_busy_fraction(), 0.0);
    }

    #[test]
    fn chase_len_mean() {
        let mut s = LocalityStats::default();
        assert_eq!(s.mean_chase_len(), 0.0);
        s.chase_hops_total = 9;
        s.chased_parcels = 4;
        assert!((s.mean_chase_len() - 2.25).abs() < 1e-12);
    }
}
