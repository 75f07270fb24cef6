//! Stochastic workload generators for the "representative data-center"
//! experiments the paper leaves as future work.
//!
//! All generators are seeded and deterministic. Runtimes follow a
//! bounded Pareto (the classic heavy-tailed job-size model), arrivals a
//! Poisson process optionally modulated by a diurnal cycle or on/off
//! bursts.

use meryn_frameworks::{FrameworkKind, JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimRng, SimTime};
use meryn_sla::negotiation::UserStrategy;
use serde::{Deserialize, Serialize};

use crate::submission::{sort_by_arrival, Submission, VcTarget};

/// Distribution of per-application work volumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkDistribution {
    /// Every application has the same work volume.
    Fixed(SimDuration),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Shortest work volume.
        lo: SimDuration,
        /// Longest work volume.
        hi: SimDuration,
    },
    /// Bounded Pareto on `[lo, hi]` with shape `alpha` — many small jobs,
    /// a heavy tail of long ones.
    BoundedPareto {
        /// Shortest work volume.
        lo: SimDuration,
        /// Longest work volume.
        hi: SimDuration,
        /// Tail index (≈1.1–2.5 for real traces).
        alpha: f64,
    },
}

impl WorkDistribution {
    fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            WorkDistribution::Fixed(w) => w,
            WorkDistribution::Uniform { lo, hi } => rng.uniform_duration(lo, hi),
            WorkDistribution::BoundedPareto { lo, hi, alpha } => rng.bounded_pareto(lo, hi, alpha),
        }
    }
}

/// How arrivals are spread over time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Fixed inter-arrival gap (the paper's 5 s).
    Fixed(SimDuration),
    /// Poisson process with the given mean inter-arrival.
    Poisson {
        /// Mean gap between arrivals.
        mean: SimDuration,
    },
    /// Poisson modulated by a day/night cycle: the instantaneous mean
    /// gap swings between `mean/(1+depth)` (day peak) and
    /// `mean/(1−depth)` (night trough) over `period`.
    Diurnal {
        /// Baseline mean gap.
        mean: SimDuration,
        /// Modulation depth in `[0, 1)`.
        depth: f64,
        /// Cycle length.
        period: SimDuration,
    },
    /// On/off bursts: `burst_len` arrivals at `fast` gaps, then one
    /// `idle` gap, repeating.
    Bursty {
        /// Arrivals per burst.
        burst_len: u32,
        /// Gap inside a burst.
        fast: SimDuration,
        /// Gap between bursts.
        idle: SimDuration,
    },
}

impl ArrivalProcess {
    /// Replaces the process's characteristic gap: the fixed gap, the
    /// Poisson/diurnal mean, or a burst's intra-burst gap — the knob a
    /// scenario's inter-arrival override turns.
    pub fn with_mean_gap(self, gap: SimDuration) -> Self {
        match self {
            ArrivalProcess::Fixed(_) => ArrivalProcess::Fixed(gap),
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { mean: gap },
            ArrivalProcess::Diurnal { depth, period, .. } => ArrivalProcess::Diurnal {
                mean: gap,
                depth,
                period,
            },
            ArrivalProcess::Bursty {
                burst_len, idle, ..
            } => ArrivalProcess::Bursty {
                burst_len,
                fast: gap,
                idle,
            },
        }
    }

    /// Compresses every gap by `1/load_multiplier` (`m > 1` = more
    /// load, `m = 1` = unchanged). Shape parameters (diurnal depth and
    /// period, burst length) are preserved.
    pub fn scaled(self, load_multiplier: f64) -> Self {
        let f = 1.0 / load_multiplier;
        match self {
            ArrivalProcess::Fixed(gap) => ArrivalProcess::Fixed(gap.scale(f)),
            ArrivalProcess::Poisson { mean } => ArrivalProcess::Poisson {
                mean: mean.scale(f),
            },
            ArrivalProcess::Diurnal {
                mean,
                depth,
                period,
            } => ArrivalProcess::Diurnal {
                mean: mean.scale(f),
                depth,
                period,
            },
            ArrivalProcess::Bursty {
                burst_len,
                fast,
                idle,
            } => ArrivalProcess::Bursty {
                burst_len,
                fast: fast.scale(f),
                idle: idle.scale(f),
            },
        }
    }
}

/// A seeded stochastic workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of applications.
    pub count: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Work distribution.
    pub work: WorkDistribution,
    /// VM allocation choices, picked uniformly (e.g. `[1, 1, 2, 4]` for
    /// a mix biased to single-VM jobs).
    pub nb_vms_choices: Vec<u64>,
    /// Targets, picked round-robin weighted by these (index, weight)
    /// pairs.
    pub targets: Vec<(VcTarget, u32)>,
    /// Negotiation strategy for every user.
    pub strategy: UserStrategy,
    /// Scaling law for batch jobs.
    pub scaling: ScalingLaw,
}

impl GeneratorConfig {
    /// A sane data-center-like default: Poisson arrivals, heavy-tailed
    /// runtimes, mostly 1-VM jobs across one batch VC.
    pub fn datacenter(count: usize, mean_gap: SimDuration) -> Self {
        GeneratorConfig {
            count,
            arrivals: ArrivalProcess::Poisson { mean: mean_gap },
            work: WorkDistribution::BoundedPareto {
                lo: SimDuration::from_secs(60),
                hi: SimDuration::from_secs(7200),
                alpha: 1.5,
            },
            nb_vms_choices: vec![1, 1, 1, 2, 4],
            targets: vec![(VcTarget::Kind(FrameworkKind::Batch), 1)],
            strategy: UserStrategy::AcceptCheapest,
            scaling: ScalingLaw::Linear,
        }
    }
}

/// Default batch size of [`generate_chunks`] / [`GeneratedChunks`]:
/// large enough to amortize per-batch overheads, small enough that a
/// streaming consumer (e.g. `Platform::stream_workload`, which pulls
/// each arrival as the run reaches its instant) never holds more than a
/// sliver of a 100k-submission workload in flight.
pub const DEFAULT_CHUNK: usize = 4096;

/// A streaming, batched workload generator.
///
/// Yields the workload of [`generate`] in [`Self::chunk_len`]-sized
/// `Vec<Submission>` batches — **byte-for-byte the same submissions in
/// the same order**, whatever the chunk size (the RNG streams advance
/// per item, batching only affects buffering). Arrival times are
/// nondecreasing by construction, so the concatenation of the chunks is
/// already sorted by arrival.
pub struct GeneratedChunks {
    cfg: GeneratorConfig,
    chunk_len: usize,
    produced: usize,
    arrival_rng: SimRng,
    work_rng: SimRng,
    pick_rng: SimRng,
    cycle: Vec<VcTarget>,
    now: SimTime,
    burst_pos: u32,
}

impl GeneratedChunks {
    /// Starts the stream for `cfg` and `seed`, batching `chunk_len`
    /// submissions at a time (0 is treated as 1).
    pub fn new(cfg: &GeneratorConfig, seed: u64, chunk_len: usize) -> Self {
        assert!(
            !cfg.nb_vms_choices.is_empty(),
            "need at least one VM choice"
        );
        assert!(!cfg.targets.is_empty(), "need at least one target");
        let rng = SimRng::new(seed);
        // Weighted target cycle.
        let mut cycle: Vec<VcTarget> = Vec::new();
        for &(t, w) in &cfg.targets {
            for _ in 0..w.max(1) {
                cycle.push(t);
            }
        }
        GeneratedChunks {
            cfg: cfg.clone(),
            chunk_len: chunk_len.max(1),
            produced: 0,
            arrival_rng: rng.fork(1),
            work_rng: rng.fork(2),
            pick_rng: rng.fork(3),
            cycle,
            now: SimTime::ZERO,
            burst_pos: 0,
        }
    }

    /// The configured batch size.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Submissions not yet produced.
    pub fn remaining(&self) -> usize {
        self.cfg.count - self.produced
    }

    /// Flattens the stream into single submissions with an exact
    /// `size_hint`, in arrival order — the arrival stream
    /// `Platform::stream_workload` takes.
    pub fn submissions(self) -> impl Iterator<Item = Submission> {
        let total = self.remaining();
        let mut chunks = self;
        let mut current: std::vec::IntoIter<Submission> = Vec::new().into_iter();
        (0..total).map(move |_| loop {
            if let Some(sub) = current.next() {
                return sub;
            }
            current = chunks
                .next()
                .expect("remaining() counted these")
                .into_iter();
        })
    }

    fn next_submission(&mut self) -> Submission {
        let cfg = &self.cfg;
        let gap = match cfg.arrivals {
            ArrivalProcess::Fixed(d) => d,
            ArrivalProcess::Poisson { mean } => self.arrival_rng.exponential(mean),
            ArrivalProcess::Diurnal {
                mean,
                depth,
                period,
            } => {
                assert!((0.0..1.0).contains(&depth), "diurnal depth out of range");
                let phase = (self.now.as_millis() % period.as_millis().max(1)) as f64
                    / period.as_millis().max(1) as f64;
                let factor = 1.0 + depth * (std::f64::consts::TAU * phase).sin();
                self.arrival_rng
                    .exponential(mean.scale(1.0 / factor.max(1e-6)))
            }
            ArrivalProcess::Bursty {
                burst_len,
                fast,
                idle,
            } => {
                self.burst_pos += 1;
                if self.burst_pos >= burst_len.max(1) {
                    self.burst_pos = 0;
                    idle
                } else {
                    fast
                }
            }
        };
        self.now += gap;
        let work = cfg.work.sample(&mut self.work_rng);
        let nb_vms = cfg.nb_vms_choices[self.pick_rng.index(cfg.nb_vms_choices.len())];
        let target = self.cycle[self.produced % self.cycle.len()];
        let spec = match target {
            VcTarget::Kind(FrameworkKind::MapReduce) => JobSpec::MapReduce {
                // Split the work volume into map tasks plus a 20% reduce
                // phase, two slots per slave.
                map_tasks: 8 * nb_vms as u32,
                map_work: work / (8 * nb_vms),
                reduce_tasks: nb_vms as u32,
                reduce_work: work.scale(0.2) / nb_vms,
                nb_vms,
                slots_per_vm: 2,
            },
            _ => JobSpec::Batch {
                work,
                nb_vms,
                scaling: cfg.scaling,
            },
        };
        self.produced += 1;
        Submission::new(self.now, target, spec, cfg.strategy)
    }
}

impl Iterator for GeneratedChunks {
    type Item = Vec<Submission>;

    fn next(&mut self) -> Option<Vec<Submission>> {
        if self.produced >= self.cfg.count {
            return None;
        }
        let n = self.chunk_len.min(self.cfg.count - self.produced);
        let mut chunk = Vec::with_capacity(n);
        for _ in 0..n {
            chunk.push(self.next_submission());
        }
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let chunks = self.remaining().div_ceil(self.chunk_len);
        (chunks, Some(chunks))
    }
}

/// Streams the workload of `generate(cfg, seed)` in `chunk_len`-sized
/// batches (see [`GeneratedChunks`]).
pub fn generate_chunks(cfg: &GeneratorConfig, seed: u64, chunk_len: usize) -> GeneratedChunks {
    GeneratedChunks::new(cfg, seed, chunk_len)
}

/// Generates a workload from `cfg` with the given seed.
///
/// Implemented over the batched [`GeneratedChunks`] stream; the output
/// is identical for every chunk size, and arrival times come out
/// nondecreasing (the final sort is a formality for consumers that
/// require the [`sort_by_arrival`] contract).
pub fn generate(cfg: &GeneratorConfig, seed: u64) -> Vec<Submission> {
    let mut subs = Vec::with_capacity(cfg.count);
    for chunk in generate_chunks(cfg, seed, DEFAULT_CHUNK) {
        subs.extend(chunk);
    }
    sort_by_arrival(subs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_arrivals_are_regular() {
        let cfg = GeneratorConfig {
            arrivals: ArrivalProcess::Fixed(SimDuration::from_secs(5)),
            ..GeneratorConfig::datacenter(10, SimDuration::from_secs(5))
        };
        let subs = generate(&cfg, 1);
        assert_eq!(subs.len(), 10);
        assert_eq!(subs[9].at, SimTime::from_secs(50));
    }

    #[test]
    fn poisson_mean_is_roughly_right() {
        let cfg = GeneratorConfig::datacenter(2000, SimDuration::from_secs(10));
        let subs = generate(&cfg, 7);
        let span = subs.last().unwrap().at.as_secs_f64();
        let mean_gap = span / 2000.0;
        assert!(
            (mean_gap - 10.0).abs() < 1.0,
            "mean gap {mean_gap} too far from 10"
        );
    }

    #[test]
    fn arrival_overrides_and_scaling() {
        let d = SimDuration::from_secs;
        assert_eq!(
            ArrivalProcess::Fixed(d(5)).with_mean_gap(d(2)),
            ArrivalProcess::Fixed(d(2))
        );
        assert_eq!(
            ArrivalProcess::Poisson { mean: d(10) }.scaled(2.0),
            ArrivalProcess::Poisson { mean: d(5) }
        );
        let bursty = ArrivalProcess::Bursty {
            burst_len: 3,
            fast: d(2),
            idle: d(100),
        };
        assert_eq!(
            bursty.scaled(2.0),
            ArrivalProcess::Bursty {
                burst_len: 3,
                fast: d(1),
                idle: d(50),
            }
        );
        assert_eq!(
            ArrivalProcess::Diurnal {
                mean: d(10),
                depth: 0.5,
                period: d(3600),
            }
            .with_mean_gap(d(4)),
            ArrivalProcess::Diurnal {
                mean: d(4),
                depth: 0.5,
                period: d(3600),
            }
        );
        // m = 1 is the identity.
        assert_eq!(
            ArrivalProcess::Fixed(d(5)).scaled(1.0),
            ArrivalProcess::Fixed(d(5))
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GeneratorConfig::datacenter(100, SimDuration::from_secs(5));
        assert_eq!(generate(&cfg, 42), generate(&cfg, 42));
        assert_ne!(generate(&cfg, 42), generate(&cfg, 43));
    }

    #[test]
    fn chunked_generation_is_chunk_size_invariant() {
        let cfg = GeneratorConfig::datacenter(257, SimDuration::from_secs(5));
        let whole = generate(&cfg, 9);
        for chunk_len in [1usize, 7, 64, 256, 257, 1000] {
            let rebuilt: Vec<Submission> = generate_chunks(&cfg, 9, chunk_len).flatten().collect();
            assert_eq!(
                rebuilt, whole,
                "chunk_len={chunk_len} must not change output"
            );
        }
        // Chunk boundaries land where configured.
        let sizes: Vec<usize> = generate_chunks(&cfg, 9, 100).map(|c| c.len()).collect();
        assert_eq!(sizes, vec![100, 100, 57]);
    }

    #[test]
    fn flattened_stream_matches_and_sizes_exactly() {
        let cfg = GeneratorConfig::datacenter(73, SimDuration::from_secs(3));
        let whole = generate(&cfg, 4);
        let stream = generate_chunks(&cfg, 4, 10).submissions();
        assert_eq!(stream.size_hint(), (73, Some(73)));
        let collected: Vec<Submission> = stream.collect();
        assert_eq!(collected, whole);
    }

    #[test]
    fn generated_arrivals_are_already_sorted() {
        // The sort in `generate` must be a no-op: gaps are nonnegative.
        let cfg = GeneratorConfig::datacenter(500, SimDuration::from_secs(2));
        let subs = generate(&cfg, 21);
        assert!(subs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn heavy_tail_present() {
        let cfg = GeneratorConfig::datacenter(2000, SimDuration::from_secs(1));
        let subs = generate(&cfg, 3);
        let works: Vec<u64> = subs
            .iter()
            .map(|s| match s.spec {
                JobSpec::Batch { work, .. } => work.as_secs(),
                JobSpec::MapReduce { .. } => 0,
            })
            .collect();
        let small = works.iter().filter(|&&w| w < 600).count();
        // P(X > 1800) ≈ (60/1800)^1.5 ≈ 0.6% → ~12 expected in 2000.
        let big = works.iter().filter(|&&w| w > 1800).count();
        assert!(small > 1200, "bulk should be small jobs, got {small}");
        assert!(big > 3, "tail should exist, got {big}");
    }

    #[test]
    fn bursty_gaps_alternate() {
        let cfg = GeneratorConfig {
            arrivals: ArrivalProcess::Bursty {
                burst_len: 3,
                fast: SimDuration::from_secs(1),
                idle: SimDuration::from_secs(100),
            },
            ..GeneratorConfig::datacenter(9, SimDuration::from_secs(1))
        };
        let subs = generate(&cfg, 5);
        let gaps: Vec<u64> = subs
            .windows(2)
            .map(|w| w[1].at.since(w[0].at).as_secs())
            .collect();
        assert!(gaps.contains(&1));
        assert!(gaps.contains(&100));
    }

    #[test]
    fn mapreduce_targets_get_mapreduce_specs() {
        let cfg = GeneratorConfig {
            targets: vec![(VcTarget::Kind(FrameworkKind::MapReduce), 1)],
            ..GeneratorConfig::datacenter(5, SimDuration::from_secs(5))
        };
        let subs = generate(&cfg, 11);
        assert!(subs
            .iter()
            .all(|s| matches!(s.spec, JobSpec::MapReduce { .. })));
    }

    #[test]
    fn diurnal_modulates_rate() {
        let cfg = GeneratorConfig {
            arrivals: ArrivalProcess::Diurnal {
                mean: SimDuration::from_secs(10),
                depth: 0.8,
                period: SimDuration::from_secs(86_400),
            },
            ..GeneratorConfig::datacenter(5000, SimDuration::from_secs(10))
        };
        let subs = generate(&cfg, 13);
        // Count arrivals in the first vs third quarter of the first day:
        // the sinusoid peaks in the first (factor > 1 → shorter gaps).
        let q = 86_400 / 4;
        let first = subs.iter().filter(|s| s.at.as_secs() < q).count();
        let third = subs
            .iter()
            .filter(|s| (2 * q..3 * q).contains(&s.at.as_secs()))
            .count();
        assert!(
            first > third,
            "day quarter ({first}) should out-arrive night quarter ({third})"
        );
    }
}
