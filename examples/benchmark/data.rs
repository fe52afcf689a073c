//! Seeded inputs: the profile ensembles the store workloads read, the
//! predicates they filter with (each with its exact expected result),
//! and open-loop arrival schedules.

use thicket::core::PredExpr;
use thicket::perfsim::{simulate_cpu_run, suite, Compiler, CpuRunConfig, Noise, Profile, Variant};

/// Seeded uniform draws (the workspace's own noise source).
pub struct Rng(Noise);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(Noise::new(seed))
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.0.uniform(0.0, n as f64) as usize).min(n - 1)
    }

    pub fn unit(&mut self) -> f64 {
        self.0.uniform(0.0, 1.0)
    }
}

/// compiler × -O level × problem size × variant.
const COMBOS: usize = 2 * 4 * 3 * 2;
const PROBLEM_SIZES: [u64; 3] = [1 << 20, 1 << 22, 1 << 24];
pub const CLANG: &str = "clang-9.0.0";
pub const OPENMP: &str = "OpenMP";

/// The call-path query every session runs: the `Stream` group of each
/// variant's tree and everything below it.
pub const STREAM_QUERY: &str = "(\".\", name == \"Stream\") -> (\"*\")";

/// A varied quartz ensemble: profile `i` carries `seed = base + i` and a
/// seeded configuration, so every predicate's exact result can be
/// counted from the generator rather than from the system under test.
pub struct Ensemble {
    pub base: i64,
    combo: Vec<u8>,
}

/// What a predicate over an [`Ensemble`] must select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub profiles: usize,
    /// Nodes [`STREAM_QUERY`] keeps on the composed thicket.
    pub query_nodes: usize,
    /// Distinct `compiler optimization` values (groupby groups).
    pub opt_groups: usize,
}

impl Ensemble {
    pub fn new(seed: u64, n: usize) -> Ensemble {
        let mut rng = Rng::new(seed ^ 0x0e75_e3b1e);
        Ensemble {
            base: (seed % 1000) as i64 * 1_000_000,
            combo: (0..n).map(|_| rng.below(COMBOS) as u8).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.combo.len()
    }

    fn config(&self, i: usize) -> CpuRunConfig {
        let c = self.combo[i] as usize;
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.seed = (self.base + i as i64) as u64;
        cfg.compiler = if c & 1 == 0 {
            Compiler::clang9()
        } else {
            Compiler::gcc8()
        };
        cfg.opt_level = ((c / 2) % 4) as u32;
        cfg.problem_size = PROBLEM_SIZES[(c / 8) % 3];
        if (c / 24) % 2 == 1 {
            cfg.variant = Variant::OpenMp;
            cfg.threads = 36;
        }
        cfg
    }

    pub fn profiles(&self) -> Vec<Profile> {
        (0..self.len())
            .map(|i| simulate_cpu_run(&self.config(i)))
            .collect()
    }

    /// Profiles for indices past the stored ones (appended later).
    pub fn extra_profiles(&self, from: usize, n: usize) -> Vec<Profile> {
        (from..from + n)
            .map(|i| {
                let mut cfg = self.config(i % self.len());
                cfg.seed = (self.base + i as i64) as u64;
                simulate_cpu_run(&cfg)
            })
            .collect()
    }

    fn is_clang(&self, i: usize) -> bool {
        self.combo[i] & 1 == 0
    }

    fn is_openmp(&self, i: usize) -> bool {
        (self.combo[i] as usize / 24) % 2 == 1
    }

    /// Exact result of selecting `indices`.
    pub fn expect(&self, indices: impl Iterator<Item = usize>) -> Expect {
        let stream_nodes = 1 + suite().iter().filter(|k| k.group == "Stream").count();
        let (mut n, mut variants, mut opts) = (0, [false; 2], [false; 4]);
        for i in indices {
            n += 1;
            variants[usize::from(self.is_openmp(i))] = true;
            opts[(self.combo[i] as usize / 2) % 4] = true;
        }
        Expect {
            profiles: n,
            query_nodes: variants.iter().filter(|v| **v).count() * stream_nodes,
            opt_groups: opts.iter().filter(|v| **v).count(),
        }
    }

    /// `seed` in `[base + a, base + a + width)`, as an index range.
    fn window(&self, rng: &mut Rng, width: usize) -> std::ops::Range<usize> {
        let a = rng.below(self.len() - width + 1);
        a..a + width
    }

    fn seed_range(&self, r: &std::ops::Range<usize>) -> PredExpr {
        PredExpr::and([
            PredExpr::ge("seed", self.base + r.start as i64),
            PredExpr::lt("seed", self.base + r.end as i64),
        ])
    }

    /// A predicate of the given class with its exact expected result.
    pub fn class_pred(&self, class: Class, rng: &mut Rng) -> (PredExpr, Expect) {
        match class {
            Class::Point => {
                let r = self.window(rng, self.len() / 1000);
                (self.seed_range(&r), self.expect(r))
            }
            Class::Slice => {
                let r = self.window(rng, self.len() / 50);
                let pred = PredExpr::and([self.seed_range(&r), PredExpr::eq("compiler", CLANG)]);
                (pred, self.expect(r.filter(|&i| self.is_clang(i))))
            }
            Class::Scan => {
                let r = self.window(rng, self.len() / 5);
                let pred = PredExpr::and([self.seed_range(&r), PredExpr::eq("variant", OPENMP)]);
                (pred, self.expect(r.filter(|&i| self.is_openmp(i))))
            }
        }
    }

    /// A dialect predicate over a random `width`-profile seed window, as
    /// the wire carries it, with its exact expected result.
    pub fn dialect_window(&self, rng: &mut Rng, width: usize) -> (String, Expect) {
        let r = self.window(rng, width);
        let text = format!(
            "seed >= {} and seed < {}",
            self.base + r.start as i64,
            self.base + r.end as i64
        );
        (text, self.expect(r))
    }
}

/// Session classes of the explore workload, by how much they select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 0.1% of the catalog (20 of 20,000).
    Point,
    /// 1% of the catalog, narrowed by a second column.
    Slice,
    /// 10% of the catalog, narrowed by a second column.
    Scan,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Point, Class::Slice, Class::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Slice => "slice",
            Class::Scan => "scan",
        }
    }
}

/// Deals classes in shuffled decks of 6 point, 3 slice, 1 scan, so every
/// run sees the 60/30/10 mix exactly and percentiles never straddle a
/// class boundary by chance.
pub struct Deck {
    rng: Rng,
    hand: Vec<Class>,
}

impl Deck {
    pub fn new(seed: u64) -> Deck {
        Deck {
            rng: Rng::new(seed ^ 0xdec0),
            hand: Vec::new(),
        }
    }

    pub fn deal(&mut self) -> Class {
        if self.hand.is_empty() {
            self.hand = [
                [Class::Point; 6].as_slice(),
                &[Class::Slice; 3],
                &[Class::Scan],
            ]
            .concat();
            for i in (1..self.hand.len()).rev() {
                let j = self.rng.below(i + 1);
                self.hand.swap(i, j);
            }
        }
        self.hand.pop().expect("deck refilled above")
    }
}

/// Poisson arrival times in seconds over `[0, secs)` at `rate`/s,
/// conditioned on exactly `round(rate × secs)` arrivals (sorted uniform
/// draws), so the offered load is identical for every seed.
pub fn arrivals(rng: &mut Rng, rate: f64, secs: f64) -> Vec<f64> {
    let n = (rate * secs).round() as usize;
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
    t.sort_by(f64::total_cmp);
    t
}
