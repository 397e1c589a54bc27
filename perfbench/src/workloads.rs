//! The workloads. Every rate, ladder and limit is a constant of its
//! workload: offered load never depends on what a run measures.

/// Which offline algorithm the workload's index is built with.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    TwoD,
    MdApprox {
        n_cells: usize,
        max_hyperplanes: usize,
    },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on what the workload stresses.
    pub why: &'static str,
    /// COMPAS population size and the scoring attributes projected to.
    pub n: usize,
    pub attrs: &'static [usize],
    /// FM1 cap on the African-American share of the top 30%.
    pub cap: f64,
    pub backend: Backend,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Fair and unfair queries per block of the query stream.
    pub mix: (usize, usize),
    /// Blocks in the query stream, which the load phases cycle through.
    pub blocks: usize,
    /// Open-loop rate of the latency phase, in requests per second.
    pub nominal_rate: f64,
    /// Lowest and highest rung of the SLO rate ladder; rungs step by
    /// [`LADDER_STEP`].
    pub ladder: (f64, f64),
    /// Updates timed on the idle server in the traced run.
    pub maintenance_updates: usize,
    /// Updates per type applied to a forked ranker in the traced run.
    pub layer_updates: usize,
}

/// Ratio between adjacent rungs of the SLO rate ladder.
pub const LADDER_STEP: f64 = 1.05;
/// Tail-latency limit of the SLO, in microseconds.
pub const TAIL_LIMIT_US: f64 = 5_000.0;
/// Load connections: the host has two cores, so load comes from at most
/// two connections.
pub const CONNS: usize = 2;
/// Size of the fixed probe set answered right after set-up.
pub const PROBES: usize = 256;
/// Stream queries timed per layer in the traced run.
pub const LAYER_QUERIES: usize = 512;
/// Every load request posts one query here, as an interactive designer's
/// client does.
pub const PATH: &str = "/suggest";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "twod_read",
        why: "2-D index behind the region cache: HTTP, JSON and the service queue do the work",
        n: 1500,
        attrs: &[0, 1],
        cap: 0.65,
        backend: Backend::TwoD,
        setups: 5,
        mix: (1, 3),
        blocks: 1024,
        nominal_rate: 3000.0,
        ladder: (500.0, 8000.0),
        maintenance_updates: 24,
        layer_updates: 4,
    },
    Workload {
        name: "mdapprox",
        why: "grid index in 3-D that the cache never hits: scoring kernel, top-k rank and oracle on every request",
        n: 2000,
        attrs: &[3, 0, 1],
        cap: 0.60,
        backend: Backend::MdApprox {
            n_cells: 500,
            max_hyperplanes: 1000,
        },
        setups: 3,
        mix: (1, 1),
        blocks: 2048,
        nominal_rate: 2000.0,
        ladder: (500.0, 8000.0),
        maintenance_updates: 1,
        layer_updates: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Stream queries per block; phases start on whole blocks so every
    /// window has the workload's exact verdict mix.
    pub fn block_len(&self) -> usize {
        self.mix.0 + self.mix.1
    }

    /// The rungs of the SLO ladder, ascending.
    pub fn rungs(&self) -> Vec<f64> {
        let (lo, hi) = self.ladder;
        let mut rungs = Vec::new();
        let mut r = lo;
        while r <= hi * 1.000_001 {
            rungs.push((r * 100.0).round() / 100.0);
            r *= LADDER_STEP;
        }
        rungs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_ascend_from_below_the_nominal_rate() {
        for w in WORKLOADS {
            let rungs = w.rungs();
            assert!(rungs.windows(2).all(|p| p[0] < p[1]), "{}", w.name);
            assert!(rungs[0] <= w.nominal_rate, "{}", w.name);
        }
    }
}
