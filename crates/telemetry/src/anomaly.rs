//! Anomaly detection over the sampled telemetry series.
//!
//! Watches the [`crate::timeseries::Rates`] stream for the three
//! failure signatures the paper's evaluation is built around:
//!
//! * **drop-rate spike** — the interval drop rate exceeds a threshold
//!   (the engine is losing packets *now*, not historically);
//! * **sustained capture-queue depth** — the deepest capture queue has
//!   stayed above the buddy-offloading threshold T (in chunks) for a
//!   whole run of samples: offloading is saturated or disabled and
//!   delivery pressure is building;
//! * **offload storm** — buddies are absorbing chunks faster than a
//!   configured rate, the §4 signature of a pathologically skewed RSS
//!   split;
//! * **disk writer falling behind** — the capture-to-disk sink is
//!   shedding packets (its bounded handoff ring overflowed): the
//!   capture-and-save workload of §4 is degrading gracefully instead
//!   of losing packets silently;
//! * **tail-latency SLO regression** — the engine-wide p99.9
//!   capture-to-delivery latency exceeded the configured SLO: the
//!   consumer is behind and the pool's backlog (bounded by R) is
//!   queueing delay (DESIGN.md §4.16), and a flight record of the
//!   episode is worth keeping.
//!
//! Detection is hysteretic: a condition must hold for
//! [`AnomalyConfig::sustain_samples`] consecutive samples to fire, and
//! after firing the detector stays latched until the condition has
//! been clear for [`AnomalyConfig::clear_samples`] consecutive samples
//! — so one sustained episode produces exactly one
//! [`Anomaly`] (and one flight-recorder dump), never a dump-file
//! storm.

use crate::timeseries::Rates;
use std::fmt;

/// Detection thresholds. `None`/0 disables the corresponding check.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Fire when the interval drop rate exceeds this fraction.
    pub drop_rate_spike: Option<f64>,
    /// Fire when the deepest capture queue exceeds this many chunks
    /// (set from T × capture-queue capacity).
    pub queue_depth_limit: Option<u64>,
    /// Fire when the offload rate exceeds this many chunks/s.
    pub offload_storm_cps: Option<f64>,
    /// Fire when the disk sink sheds packets faster than this
    /// (packets/s) — the "writer falling behind" episode.
    pub disk_drop_pps: Option<f64>,
    /// Fire when the engine-wide p99.9 capture-to-delivery latency
    /// exceeds this many ns — the tail-latency SLO regression episode
    /// (set from the engine's `latency_slo_ns`).
    pub tail_latency_ns: Option<u64>,
    /// Consecutive violating samples required to fire.
    pub sustain_samples: u32,
    /// Consecutive clean samples required to re-arm after firing.
    pub clear_samples: u32,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            drop_rate_spike: Some(0.01),
            queue_depth_limit: None,
            offload_storm_cps: None,
            disk_drop_pps: Some(1.0),
            tail_latency_ns: None,
            sustain_samples: 2,
            clear_samples: 2,
        }
    }
}

/// A detected anomaly: which condition fired and the observed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// Drop rate exceeded the spike threshold.
    DropSpike {
        /// Observed interval drop rate.
        rate: f64,
        /// Configured threshold.
        limit: f64,
    },
    /// Deepest capture queue stayed above the depth limit.
    QueueDepth {
        /// Observed peak depth (chunks).
        depth: u64,
        /// Configured limit (chunks).
        limit: u64,
    },
    /// Offload rate exceeded the storm threshold.
    OffloadStorm {
        /// Observed offload rate (chunks/s).
        cps: f64,
        /// Configured threshold (chunks/s).
        limit: f64,
    },
    /// The disk writer fell behind and the sink shed packets.
    WriterBehind {
        /// Observed disk-drop rate (packets/s).
        pps: f64,
        /// Configured threshold (packets/s).
        limit: f64,
    },
    /// Engine-wide p99.9 capture-to-delivery latency exceeded the SLO.
    TailLatency {
        /// Observed p99.9 latency (ns).
        p999_ns: u64,
        /// Configured SLO (ns).
        limit: u64,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::DropSpike { rate, limit } => {
                write!(f, "drop-rate spike: {rate:.4} > {limit:.4}")
            }
            Anomaly::QueueDepth { depth, limit } => {
                write!(f, "sustained capture-queue depth: {depth} > {limit} chunks")
            }
            Anomaly::OffloadStorm { cps, limit } => {
                write!(f, "offload storm: {cps:.0} > {limit:.0} chunks/s")
            }
            Anomaly::WriterBehind { pps, limit } => {
                write!(
                    f,
                    "disk writer falling behind: shedding {pps:.0} > {limit:.0} packets/s"
                )
            }
            Anomaly::TailLatency { p999_ns, limit } => {
                write!(
                    f,
                    "tail-latency SLO regression: p99.9 {p999_ns} > {limit} ns"
                )
            }
        }
    }
}

/// Hysteretic detector state: one per sampled engine.
#[derive(Debug)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    /// Consecutive violating samples while armed.
    hot: u32,
    /// Consecutive clean samples while latched.
    cool: u32,
    /// True after firing, until `clear_samples` clean samples re-arm.
    latched: bool,
    fired: u64,
}

impl AnomalyDetector {
    /// Creates an armed detector.
    pub fn new(cfg: AnomalyConfig) -> Self {
        AnomalyDetector {
            cfg: AnomalyConfig {
                sustain_samples: cfg.sustain_samples.max(1),
                clear_samples: cfg.clear_samples.max(1),
                ..cfg
            },
            hot: 0,
            cool: 0,
            latched: false,
            fired: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &AnomalyConfig {
        &self.cfg
    }

    /// Total anomalies fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// The first violated condition for `r`, ignoring hysteresis.
    fn violation(&self, r: &Rates) -> Option<Anomaly> {
        if let Some(limit) = self.cfg.drop_rate_spike {
            if r.drop_rate > limit {
                return Some(Anomaly::DropSpike {
                    rate: r.drop_rate,
                    limit,
                });
            }
        }
        if let Some(limit) = self.cfg.queue_depth_limit {
            if r.queue_depth_peak > limit {
                return Some(Anomaly::QueueDepth {
                    depth: r.queue_depth_peak,
                    limit,
                });
            }
        }
        if let Some(limit) = self.cfg.offload_storm_cps {
            if r.offload_cps > limit {
                return Some(Anomaly::OffloadStorm {
                    cps: r.offload_cps,
                    limit,
                });
            }
        }
        if let Some(limit) = self.cfg.disk_drop_pps {
            if r.disk_drop_pps > limit {
                return Some(Anomaly::WriterBehind {
                    pps: r.disk_drop_pps,
                    limit,
                });
            }
        }
        if let Some(limit) = self.cfg.tail_latency_ns {
            if r.latency_p999_ns > limit {
                return Some(Anomaly::TailLatency {
                    p999_ns: r.latency_p999_ns,
                    limit,
                });
            }
        }
        None
    }

    /// Feeds one interval's rates. Returns `Some` exactly once per
    /// sustained episode: when a condition has held for
    /// `sustain_samples` consecutive samples and the detector is not
    /// already latched.
    pub fn observe(&mut self, r: &Rates) -> Option<Anomaly> {
        let violation = self.violation(r);
        if self.latched {
            match violation {
                Some(_) => self.cool = 0,
                None => {
                    self.cool += 1;
                    if self.cool >= self.cfg.clear_samples {
                        self.latched = false;
                        self.cool = 0;
                        self.hot = 0;
                    }
                }
            }
            return None;
        }
        match violation {
            Some(a) => {
                self.hot += 1;
                if self.hot >= self.cfg.sustain_samples {
                    self.latched = true;
                    self.cool = 0;
                    self.fired += 1;
                    Some(a)
                } else {
                    None
                }
            }
            None => {
                self.hot = 0;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_rates(rate: f64) -> Rates {
        Rates {
            dt_ns: 1_000_000,
            drop_rate: rate,
            ..Default::default()
        }
    }

    fn detector() -> AnomalyDetector {
        AnomalyDetector::new(AnomalyConfig {
            drop_rate_spike: Some(0.05),
            queue_depth_limit: None,
            offload_storm_cps: None,
            disk_drop_pps: None,
            tail_latency_ns: None,
            sustain_samples: 3,
            clear_samples: 2,
        })
    }

    #[test]
    fn fires_exactly_once_per_sustained_episode() {
        let mut d = detector();
        // Episode 1: 10 violating samples → exactly one anomaly, on
        // the third (sustain_samples) violating sample.
        let fires: Vec<bool> = (0..10)
            .map(|_| d.observe(&drop_rates(0.2)).is_some())
            .collect();
        assert_eq!(fires.iter().filter(|f| **f).count(), 1, "{fires:?}");
        assert!(fires[2], "fires on the sustain_samples-th sample");
        // Clears: one clean sample is not enough to re-arm…
        assert!(d.observe(&drop_rates(0.0)).is_none());
        // …and a re-violation during cool-down does not fire.
        assert!(d.observe(&drop_rates(0.2)).is_none());
        assert!(d.observe(&drop_rates(0.0)).is_none());
        assert!(d.observe(&drop_rates(0.0)).is_none());
        // Episode 2 after a full clear: fires exactly once again.
        let fires: Vec<bool> = (0..6)
            .map(|_| d.observe(&drop_rates(0.9)).is_some())
            .collect();
        assert_eq!(fires.iter().filter(|f| **f).count(), 1, "{fires:?}");
        assert_eq!(d.fired(), 2);
    }

    #[test]
    fn short_blips_below_sustain_never_fire() {
        let mut d = detector();
        for _ in 0..20 {
            // Two violating samples, then a clean one: the run never
            // reaches sustain_samples = 3.
            assert!(d.observe(&drop_rates(0.5)).is_none());
            assert!(d.observe(&drop_rates(0.5)).is_none());
            assert!(d.observe(&drop_rates(0.0)).is_none());
        }
        assert_eq!(d.fired(), 0);
    }

    #[test]
    fn queue_depth_and_offload_conditions_fire() {
        let mut d = AnomalyDetector::new(AnomalyConfig {
            drop_rate_spike: None,
            queue_depth_limit: Some(10),
            offload_storm_cps: None,
            disk_drop_pps: None,
            tail_latency_ns: None,
            sustain_samples: 1,
            clear_samples: 1,
        });
        let r = Rates {
            queue_depth_peak: 50,
            ..Default::default()
        };
        assert_eq!(
            d.observe(&r),
            Some(Anomaly::QueueDepth {
                depth: 50,
                limit: 10
            })
        );
        let mut d = AnomalyDetector::new(AnomalyConfig {
            drop_rate_spike: None,
            queue_depth_limit: None,
            offload_storm_cps: Some(100.0),
            disk_drop_pps: None,
            tail_latency_ns: None,
            sustain_samples: 1,
            clear_samples: 1,
        });
        let r = Rates {
            offload_cps: 5_000.0,
            ..Default::default()
        };
        assert!(matches!(d.observe(&r), Some(Anomaly::OffloadStorm { .. })));
        assert!(format!("{}", d.violation(&r).unwrap()).contains("offload storm"));
    }

    #[test]
    fn writer_behind_condition_fires() {
        let mut d = AnomalyDetector::new(AnomalyConfig {
            drop_rate_spike: None,
            queue_depth_limit: None,
            offload_storm_cps: None,
            disk_drop_pps: Some(10.0),
            tail_latency_ns: None,
            sustain_samples: 1,
            clear_samples: 1,
        });
        let calm = Rates {
            disk_drop_pps: 0.0,
            ..Default::default()
        };
        assert!(d.observe(&calm).is_none(), "no drops, no episode");
        let behind = Rates {
            disk_drop_pps: 2_500.0,
            ..Default::default()
        };
        assert_eq!(
            d.observe(&behind),
            Some(Anomaly::WriterBehind {
                pps: 2_500.0,
                limit: 10.0
            })
        );
        assert!(format!("{}", d.violation(&behind).unwrap()).contains("disk writer falling behind"));
    }

    #[test]
    fn tail_latency_condition_is_hysteretic() {
        let mut d = AnomalyDetector::new(AnomalyConfig {
            drop_rate_spike: None,
            queue_depth_limit: None,
            offload_storm_cps: None,
            disk_drop_pps: None,
            tail_latency_ns: Some(1_000_000),
            sustain_samples: 2,
            clear_samples: 2,
        });
        let slow = Rates {
            latency_p999_ns: 5_000_000,
            ..Default::default()
        };
        let fast = Rates {
            latency_p999_ns: 200_000,
            ..Default::default()
        };
        assert!(d.observe(&fast).is_none(), "within SLO");
        assert!(d.observe(&slow).is_none(), "first violation: not sustained");
        assert_eq!(
            d.observe(&slow),
            Some(Anomaly::TailLatency {
                p999_ns: 5_000_000,
                limit: 1_000_000
            }),
            "fires once sustained"
        );
        assert!(d.observe(&slow).is_none(), "latched: no dump storm");
        assert!(format!("{}", d.violation(&slow).unwrap()).contains("tail-latency SLO"));
    }
}
