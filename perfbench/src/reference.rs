//! Independent correctness references: the two benchmark graphs' own
//! adjacency, a BFS over any adjacency, and a COBRA b=2 simulator with
//! its own generator. None of it shares process, engine or graph code
//! with the program, so agreement between the two is evidence that both
//! simulate the process the paper defines.

use cobra_graph::Topology;
use std::collections::VecDeque;

/// The benchmark's own generator: SplitMix64 (Steele–Lea–Flood), not
/// the program's vendored xoshiro.
pub struct RefRng(u64);

impl RefRng {
    pub fn new(seed: u64) -> RefRng {
        RefRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Exactly uniform on `0..n` (Lemire's multiply-shift with
    /// rejection).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// The adjacency an input graph family defines, computed from the
/// vertex id.
#[derive(Debug, Clone, Copy)]
pub enum RefGraph {
    /// `Q_d`: `v ~ v XOR 2^i`.
    Hypercube { d: u32 },
    /// A clique on `0..c` with a path `c, c+1, …, c+p-1` hanging off
    /// clique vertex `c-1`; `lollipop:n` has `c = ⌈2n/3⌉`.
    Lollipop { c: u32, p: u32 },
}

impl RefGraph {
    pub fn lollipop(n: u32) -> RefGraph {
        let c = (2 * n).div_ceil(3);
        RefGraph::Lollipop { c, p: n - c }
    }

    pub fn n(&self) -> usize {
        match *self {
            RefGraph::Hypercube { d } => 1usize << d,
            RefGraph::Lollipop { c, p } => (c + p) as usize,
        }
    }

    pub fn degree(&self, v: u32) -> u32 {
        match *self {
            RefGraph::Hypercube { d } => d,
            RefGraph::Lollipop { c, p } => {
                if v < c {
                    c - 1 + u32::from(v == c - 1 && p > 0)
                } else {
                    1 + u32::from(v + 1 < c + p)
                }
            }
        }
    }

    /// The `i`-th neighbour in this module's own order (not
    /// necessarily sorted).
    pub fn neighbor(&self, v: u32, i: u32) -> u32 {
        match *self {
            RefGraph::Hypercube { .. } => v ^ (1 << i),
            RefGraph::Lollipop { c, .. } => {
                if v < c {
                    if i < v {
                        i
                    } else if i < c - 1 {
                        i + 1
                    } else {
                        c
                    }
                } else if i == 0 {
                    v - 1
                } else {
                    v + 1
                }
            }
        }
    }
}

/// BFS distances from `src` over the program's graph, read only through
/// `Topology::degree` and `Topology::neighbor`; `u32::MAX` marks
/// unreachable vertices.
pub fn bfs<T: Topology>(g: &T, src: u32) -> Vec<u32> {
    bfs_with(g.n(), src, |v, out| {
        for i in 0..g.degree(v) {
            out.push(g.neighbor(v, i));
        }
    })
}

/// BFS distances from `src` over a reference adjacency.
pub fn bfs_ref(g: &RefGraph, src: u32) -> Vec<u32> {
    bfs_with(g.n(), src, |v, out| {
        for i in 0..g.degree(v) {
            out.push(g.neighbor(v, i));
        }
    })
}

fn bfs_with(n: usize, src: u32, mut neighbors: impl FnMut(u32, &mut Vec<u32>)) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::from([src]);
    let mut buf = Vec::new();
    dist[src as usize] = 0;
    while let Some(v) = queue.pop_front() {
        buf.clear();
        neighbors(v, &mut buf);
        for &w in &buf {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Lower bounds every spreading process obeys from `src` (one hop per
/// round at most): the eccentricity for `cover` and `hit:far`, and the
/// smallest radius whose ball holds `need` vertices for a partial
/// infection. `None` if some vertex is unreachable.
pub fn eccentricity(dist: &[u32]) -> Option<u32> {
    dist.iter()
        .copied()
        .try_fold(0, |m, d| (d != u32::MAX).then(|| m.max(d)))
}

pub fn ball_radius(dist: &[u32], need: usize) -> u32 {
    let mut sorted: Vec<u32> = dist.to_vec();
    sorted.sort_unstable();
    sorted[need.clamp(1, sorted.len()) - 1]
}

/// Stop condition of a reference trial.
#[derive(Debug, Clone, Copy)]
pub enum Goal {
    Cover,
    /// First round at which the vertex holds a particle; the tests
    /// check this against `cobra-exact`'s survival DP.
    #[cfg_attr(not(test), allow(dead_code))]
    Hit(u32),
}

/// A reusable COBRA b=2 state over a reference graph.
pub struct RefCobra {
    g: RefGraph,
    visited: Vec<bool>,
    stamp: Vec<u32>,
    active: Vec<u32>,
    next: Vec<u32>,
}

impl RefCobra {
    pub fn new(g: RefGraph) -> RefCobra {
        let n = g.n();
        RefCobra {
            g,
            visited: vec![false; n],
            stamp: vec![0; n],
            active: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Rounds until `goal` from `C_0 = {start}`, or `None` once `cap`
    /// rounds pass without it. Each round every particle pushes two
    /// copies to independent uniform neighbours, and copies that land
    /// on one vertex coalesce.
    pub fn run(&mut self, start: u32, goal: Goal, cap: u32, rng: &mut RefRng) -> Option<u32> {
        let n = self.g.n();
        self.visited.fill(false);
        self.stamp.fill(0);
        self.active.clear();
        self.active.push(start);
        self.visited[start as usize] = true;
        let mut covered = 1usize;
        if matches!(goal, Goal::Cover) && covered == n {
            return Some(0);
        }
        for round in 1..=cap {
            self.next.clear();
            for &v in &self.active {
                let deg = self.g.degree(v);
                for _ in 0..2 {
                    let w = self.g.neighbor(v, rng.below(u64::from(deg)) as u32);
                    if self.stamp[w as usize] != round {
                        self.stamp[w as usize] = round;
                        self.next.push(w);
                        if !self.visited[w as usize] {
                            self.visited[w as usize] = true;
                            covered += 1;
                        }
                    }
                }
            }
            std::mem::swap(&mut self.active, &mut self.next);
            let done = match goal {
                Goal::Cover => covered == n,
                Goal::Hit(t) => self.stamp[t as usize] == round,
            };
            if done {
                return Some(round);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::{Graph, GraphSpec};
    use cobra_process::{Branching, Laziness};

    fn program_graph(spec: &str) -> Graph {
        spec.parse::<GraphSpec>().unwrap().build(0).unwrap()
    }

    /// The reference adjacency is the program's graph, edge for edge.
    fn assert_same_graph(r: &RefGraph, g: &Graph) {
        assert_eq!(r.n(), g.n());
        for v in 0..g.n() as u32 {
            let mut mine: Vec<u32> = (0..r.degree(v)).map(|i| r.neighbor(v, i)).collect();
            let mut theirs: Vec<u32> = (0..g.degree(v)).map(|i| g.neighbor(v, i)).collect();
            mine.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(mine, theirs, "neighbours of {v}");
        }
    }

    #[test]
    fn reference_adjacency_matches_the_program_graphs() {
        assert_same_graph(&RefGraph::Hypercube { d: 3 }, &program_graph("hypercube:3"));
        assert_same_graph(&RefGraph::Hypercube { d: 7 }, &program_graph("hypercube:7"));
        for n in [3, 9, 10, 11, 64, 100] {
            assert_same_graph(
                &RefGraph::lollipop(n),
                &program_graph(&format!("lollipop:{n}")),
            );
        }
    }

    #[test]
    fn bfs_bounds_on_known_graphs() {
        let q = RefGraph::Hypercube { d: 5 };
        assert_eq!(eccentricity(&bfs_ref(&q, 0)), Some(5));
        assert_eq!(ball_radius(&bfs_ref(&q, 0), 1 + 5), 1);
        let l = RefGraph::lollipop(4096);
        assert_eq!(eccentricity(&bfs_ref(&l, 0)), Some(1 + 1365));
        let g = program_graph("lollipop:30");
        assert_eq!(bfs(&g, 0), bfs_ref(&RefGraph::lollipop(30), 0));
    }

    /// Monte-Carlo survival `P(Hit(target) > T)` of the reference
    /// simulator against `cobra-exact`'s subset-space DP, with a fixed
    /// seed (deterministic) and a Bonferroni-sized |z| bound.
    fn check_survival(r: RefGraph, spec: &str, target: u32) {
        let g = program_graph(spec);
        let horizons = [1, 2, 3, 4, 6, 8, 12];
        let exact = cobra_exact::cobra::cobra_survival_probabilities(
            &g,
            target,
            1,
            Branching::Fixed(2),
            Laziness::None,
            &horizons,
        );
        let trials = 40_000;
        let mut sim = RefCobra::new(r);
        let mut rng = RefRng::new(0x5eed);
        let mut survived = [0usize; 7];
        for _ in 0..trials {
            let hit = sim.run(0, Goal::Hit(target), 1000, &mut rng).unwrap();
            for (k, &t) in horizons.iter().enumerate() {
                survived[k] += usize::from(hit > t as u32);
            }
        }
        for (k, &p) in exact.iter().enumerate() {
            let p_hat = survived[k] as f64 / trials as f64;
            let se = (p * (1.0 - p) / trials as f64).sqrt().max(1e-12);
            let z = (p_hat - p) / se;
            assert!(
                z.abs() < 4.0 || (p_hat - p).abs() < 1e-9,
                "{spec} T={}: simulated {p_hat} vs exact {p} (z = {z:.2})",
                horizons[k]
            );
        }
    }

    #[test]
    fn reference_survival_matches_exact_dp_on_q3() {
        check_survival(RefGraph::Hypercube { d: 3 }, "hypercube:3", 7);
    }

    #[test]
    fn reference_survival_matches_exact_dp_on_a_small_lollipop() {
        check_survival(RefGraph::lollipop(9), "lollipop:9", 8);
    }

    #[test]
    fn cover_time_is_at_least_the_eccentricity() {
        let q = RefGraph::Hypercube { d: 8 };
        let mut sim = RefCobra::new(q);
        let mut rng = RefRng::new(1);
        for _ in 0..20 {
            assert!(sim.run(0, Goal::Cover, 10_000, &mut rng).unwrap() >= 8);
        }
    }

    #[test]
    fn below_is_in_range_and_hits_every_value() {
        let mut rng = RefRng::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
