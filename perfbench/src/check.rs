//! Independent output checks.
//!
//! Everything here is rebuilt from the model's *inputs* alone — service
//! times, mean edge gains, routing weights, the vector width `v`, the
//! operating point `(τ0, D)` and the backlog factors — without calling
//! any solver or analysis routine of the program. The checker then
//! compares the program's outputs against:
//!
//! * its own minimal-period feasibility test for the Fig. 1 program;
//! * its own optimum of the Fig. 1 program, by a dense log-barrier
//!   Newton method (small instances) or by λ-bisection with
//!   pool-adjacent-violators (chains of any length);
//! * its own exhaustive scan of the Fig. 2 block-size program.
//!
//! All tolerances are stated as constants below.

/// Relative tolerance on a chain's enforced optimum: the program's
/// active fraction must lie within this share of the checker's optimum.
pub const ENFORCED_REL_TOL: f64 = 1e-7;
/// Relative slack by which a DAG enforced value may undercut the
/// checker's lower bound on the optimum (rounding only; the program's
/// DAG solve is a heuristic and may lie above it by any amount).
pub const DAG_FLOOR_REL_TOL: f64 = 1e-9;
/// Relative tolerance between a monolithic active fraction and the
/// checker's exhaustive scan (the two sum the same terms in different
/// rounding; they differ below 1e-9 on BLAST).
pub const MONOLITHIC_REL_TOL: f64 = 1e-9;
/// Relative tolerance between two optimal values of a deep chain.
pub const DEEP_REL_TOL: f64 = 1e-9;
/// Relative tolerance on "periods satisfy every Fig. 1 constraint".
pub const CONSTRAINT_REL_TOL: f64 = 1e-9;
/// Relative tolerance on a reported active fraction against
/// `(1/N)·Σ t_i/x_i` recomputed from the reported periods.
pub const FORMULA_REL_TOL: f64 = 1e-12;
/// Largest relative distance between a simulated enforced active
/// fraction and the Fig. 1 value recomputed from the periods.
pub const SIM_AF_REL_TOL: f64 = 0.01;

/// A dataflow graph described by the model's inputs only.
#[derive(Debug, Clone)]
pub struct Net {
    /// Vector width `v`.
    pub v: f64,
    /// Per-node service times `t_i`.
    pub t: Vec<f64>,
    /// Edges `(src, dst, mean gain, routing weight)`.
    pub edges: Vec<(usize, usize, f64, f64)>,
}

impl Net {
    /// A linear chain: node `i` feeds node `i + 1` with mean gain
    /// `gains[i]` (the last gain is unused).
    pub fn chain(v: f64, t: Vec<f64>, gains: &[f64]) -> Net {
        let edges = (1..t.len())
            .map(|i| (i - 1, i, gains[i - 1], 1.0))
            .collect();
        Net { v, t, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the net has no nodes.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Topological order (Kahn), the unique source first.
    pub fn order(&self) -> Vec<usize> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for &(_, d, _, _) in &self.edges {
            indeg[d] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            out.push(i);
            for &(s, d, _, _) in &self.edges {
                if s == i {
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        ready.push(d);
                    }
                }
            }
        }
        assert_eq!(out.len(), n, "the net has a cycle");
        out
    }

    /// The node without in-edges.
    pub fn source(&self) -> usize {
        let order = self.order();
        order[0]
    }

    /// Mean items reaching each node per stream input: 1 at the source,
    /// the sum of `G_src·g·w` over in-edges elsewhere.
    pub fn totals(&self) -> Vec<f64> {
        let mut g = vec![0.0; self.len()];
        for i in self.order() {
            if self.edges.iter().all(|e| e.1 != i) {
                g[i] = 1.0;
            }
            for &(s, d, mean, w) in &self.edges {
                if s == i {
                    g[d] += g[s] * mean * w;
                }
            }
        }
        g
    }

    /// Longest-path depth of each node from the source.
    fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for i in self.order() {
            for &(s, d, _, _) in &self.edges {
                if s == i {
                    depth[d] = depth[d].max(depth[s] + 1);
                }
            }
        }
        depth
    }
}

/// The Fig. 1 program in scaled periods `z_i = G_i·x_i`:
///
/// ```text
/// min  Σ a_i/z_i            a_i = t_i·G_i/N
/// s.t. z_src ≤ v·τ0,  z_dst ≤ z_src on every edge,
///      Σ c_i·z_i ≤ D      c_i = b_i/G_i,     z_i ≥ G_i·t_i
/// ```
#[derive(Debug, Clone)]
pub struct Fig1 {
    g: Vec<f64>,
    a: Vec<f64>,
    c: Vec<f64>,
    lo: Vec<f64>,
    edges: Vec<(usize, usize)>,
    order: Vec<usize>,
    depth: Vec<usize>,
    source: usize,
    head: f64,
    deadline: f64,
}

/// The checker's verdict on the Fig. 1 program at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fig1Optimum {
    /// No period vector satisfies the constraints.
    Infeasible,
    /// The optimum lies in `[lower, upper]`; `upper` is attained by a
    /// feasible point the checker found.
    Value {
        /// Lower bound on the optimal active fraction.
        lower: f64,
        /// Upper bound (a feasible point's active fraction).
        upper: f64,
    },
}

impl Fig1 {
    /// Build the program for `net` at `(tau0, deadline)` with backlog
    /// factors `b`. Every node must receive traffic (`G_i > 0`).
    pub fn new(net: &Net, tau0: f64, deadline: f64, b: &[f64]) -> Fig1 {
        let g = net.totals();
        assert!(g.iter().all(|&gi| gi > 0.0), "every node needs inflow");
        assert_eq!(b.len(), net.len(), "one backlog factor per node");
        let n = net.len() as f64;
        Fig1 {
            a: net.t.iter().zip(&g).map(|(t, g)| t * g / n).collect(),
            c: b.iter().zip(&g).map(|(b, g)| b / g).collect(),
            lo: net.t.iter().zip(&g).map(|(t, g)| t * g).collect(),
            edges: net.edges.iter().map(|e| (e.0, e.1)).collect(),
            order: net.order(),
            depth: net.depths(),
            source: net.source(),
            head: net.v * tau0,
            deadline,
            g,
        }
    }

    /// Active fraction at scaled periods `z`.
    pub fn objective(&self, z: &[f64]) -> f64 {
        self.a.iter().zip(z).map(|(a, z)| a / z).sum()
    }

    /// The componentwise-smallest `z` meeting every edge and lower
    /// bound: a reverse-topological running maximum.
    pub fn minimal(&self) -> Vec<f64> {
        let mut z = self.lo.clone();
        for &i in self.order.iter().rev() {
            for &(s, d) in &self.edges {
                if s == i {
                    z[i] = z[i].max(z[d]);
                }
            }
        }
        z
    }

    fn budget(&self, z: &[f64]) -> f64 {
        self.c.iter().zip(z).map(|(c, z)| c * z).sum()
    }

    /// Whether any schedule exists: the minimal point must meet the head
    /// bound and the deadline budget (every feasible point dominates it).
    pub fn feasible(&self) -> bool {
        let z = self.minimal();
        z[self.source] <= self.head && self.budget(&z) <= self.deadline
    }

    /// The constraints as rows `row·z ≤ rhs`.
    fn rows(&self) -> Vec<(Vec<f64>, f64)> {
        let n = self.g.len();
        let unit = |i: usize, s: f64| {
            let mut r = vec![0.0; n];
            r[i] = s;
            r
        };
        let mut rows = vec![(unit(self.source, 1.0), self.head)];
        for &(s, d) in &self.edges {
            let mut r = vec![0.0; n];
            r[d] = 1.0;
            r[s] = -1.0;
            rows.push((r, 0.0));
        }
        rows.push((self.c.clone(), self.deadline));
        for i in 0..n {
            rows.push((unit(i, -1.0), -self.lo[i]));
        }
        rows
    }

    /// Optimum by a dense log-barrier Newton method. Returns `None` when
    /// the feasible set has (numerically) no interior, where a barrier
    /// cannot start.
    pub fn solve_barrier(&self) -> Option<Fig1Optimum> {
        if !self.feasible() {
            return Some(Fig1Optimum::Infeasible);
        }
        let n = self.g.len();
        let zmin = self.minimal();
        // A strictly interior start: lift each node by a multiple of
        // (levels below the deepest node + 1), so every edge gains slack.
        let levels = self.depth.iter().max().copied().unwrap_or(0) + 1;
        let lift: Vec<f64> = self.depth.iter().map(|&d| (levels - d) as f64).collect();
        let head_room = (self.head - zmin[self.source]) / lift[self.source];
        let budget_room = (self.deadline - self.budget(&zmin)) / self.budget(&lift);
        let delta = 0.5 * head_room.min(budget_room);
        let scale = zmin.iter().fold(0.0f64, |m, &z| m.max(z));
        if delta.is_nan() || delta <= 1e-12 * scale {
            return None;
        }
        let mut z: Vec<f64> = zmin.iter().zip(&lift).map(|(z, l)| z + delta * l).collect();
        let rows = self.rows();
        let m = rows.len() as f64;
        let slacks = |z: &[f64]| -> Vec<f64> {
            rows.iter()
                .map(|(r, rhs)| rhs - r.iter().zip(z).map(|(a, b)| a * b).sum::<f64>())
                .collect()
        };
        let barrier = |t: f64, z: &[f64]| -> Option<f64> {
            let s = slacks(z);
            if s.iter().any(|&s| s <= 0.0) {
                return None;
            }
            Some(t * self.objective(z) - s.iter().map(|s| s.ln()).sum::<f64>())
        };
        let mut t = m / self.objective(&z);
        for _outer in 0..200 {
            for _newton in 0..100 {
                let s = slacks(&z);
                let mut grad: Vec<f64> = (0..n).map(|i| -t * self.a[i] / (z[i] * z[i])).collect();
                let mut hess = vec![vec![0.0; n]; n];
                for i in 0..n {
                    hess[i][i] = 2.0 * t * self.a[i] / (z[i] * z[i] * z[i]);
                }
                for ((r, _), &sk) in rows.iter().zip(&s) {
                    for i in 0..n {
                        if r[i] == 0.0 {
                            continue;
                        }
                        grad[i] += r[i] / sk;
                        for j in 0..n {
                            hess[i][j] += r[i] * r[j] / (sk * sk);
                        }
                    }
                }
                let step = solve_dense(hess, grad.iter().map(|g| -g).collect());
                let decrement: f64 = -step.iter().zip(&grad).map(|(d, g)| d * g).sum::<f64>();
                if decrement / 2.0 <= 1e-14 {
                    break;
                }
                let f0 = barrier(t, &z).expect("iterate stays interior");
                let mut alpha = 1.0;
                loop {
                    let trial: Vec<f64> = z.iter().zip(&step).map(|(z, d)| z + alpha * d).collect();
                    if let Some(f) = barrier(t, &trial) {
                        if f <= f0 - 0.25 * alpha * decrement {
                            z = trial;
                            break;
                        }
                    }
                    alpha *= 0.5;
                    if alpha < 1e-20 {
                        break;
                    }
                }
                if alpha < 1e-20 {
                    break;
                }
            }
            let f = self.objective(&z);
            if m / t <= 1e-11 * f {
                return Some(Fig1Optimum::Value {
                    lower: f - m / t,
                    upper: f,
                });
            }
            t *= 10.0;
        }
        let f = self.objective(&z);
        Some(Fig1Optimum::Value {
            lower: f - m / t,
            upper: f,
        })
    }

    /// Optimum of a *chain* by λ-bisection on the deadline price with
    /// pool-adjacent-violators for each fixed price. Returns the optimal
    /// value (attained by the returned feasible point) and the point.
    pub fn solve_chain_pav(&self) -> Option<(f64, Vec<f64>)> {
        assert!(
            self.order.iter().enumerate().all(|(k, &i)| k == i),
            "PAV needs a chain in index order"
        );
        if !self.feasible() {
            return None;
        }
        let at_price = |lambda: f64| -> Vec<f64> {
            // Blocks of (first index, Σa, Σc, max lower bound, value).
            let mut blocks: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
            for i in 0..self.a.len() {
                let mut blk = (i, self.a[i], self.c[i], self.lo[i], 0.0);
                loop {
                    blk.4 = block_value(blk.1, blk.2, blk.3, self.head, lambda);
                    match blocks.last() {
                        // Periods must not increase down the chain.
                        Some(prev) if prev.4 < blk.4 => {
                            let prev = blocks.pop().expect("checked");
                            blk = (
                                prev.0,
                                prev.1 + blk.1,
                                prev.2 + blk.2,
                                prev.3.max(blk.3),
                                0.0,
                            );
                        }
                        _ => break,
                    }
                }
                blocks.push(blk);
            }
            let mut z = vec![0.0; self.a.len()];
            for (k, b) in blocks.iter().enumerate() {
                let end = blocks.get(k + 1).map_or(z.len(), |nb| nb.0);
                z[b.0..end].fill(b.4);
            }
            z
        };
        let slack_point = at_price(0.0);
        if self.budget(&slack_point) <= self.deadline {
            return Some((self.objective(&slack_point), slack_point));
        }
        // Bracket: a price that meets the budget and one that does not.
        let (mut lo, mut hi) = (1e-300f64, 1.0f64);
        while self.budget(&at_price(hi)) > self.deadline {
            hi *= 1e3;
            if hi > 1e300 {
                return None;
            }
        }
        for _ in 0..400 {
            let mid = (lo.ln() * 0.5 + hi.ln() * 0.5).exp();
            if mid <= lo || mid >= hi {
                break;
            }
            if self.budget(&at_price(mid)) > self.deadline {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let z = at_price(hi);
        Some((self.objective(&z), z))
    }

    /// Check reported periods `x` against every constraint, with
    /// relative slack [`CONSTRAINT_REL_TOL`]. Returns the first violated
    /// constraint.
    pub fn check_periods(&self, x: &[f64], t: &[f64]) -> Result<(), String> {
        let tol = CONSTRAINT_REL_TOL;
        if x.len() != self.g.len() {
            return Err(format!("{} periods for {} nodes", x.len(), self.g.len()));
        }
        let z: Vec<f64> = x.iter().zip(&self.g).map(|(x, g)| x * g).collect();
        if z[self.source] > self.head * (1.0 + tol) {
            return Err(format!("head period {} over v*tau0", x[self.source]));
        }
        for &(s, d) in &self.edges {
            if z[d] > z[s] * (1.0 + tol) {
                return Err(format!("edge {s}->{d} unstable"));
            }
        }
        if self.budget(&z) > self.deadline * (1.0 + tol) {
            return Err("deadline budget exceeded".into());
        }
        for (i, (&xi, &ti)) in x.iter().zip(t).enumerate() {
            if xi < ti {
                return Err(format!("x{i} = {xi} below t{i} = {ti}"));
            }
        }
        Ok(())
    }
}

/// Minimizer of `A/z + λ·C·z` over `z ∈ [lower, upper]`.
fn block_value(a: f64, c: f64, lower: f64, upper: f64, lambda: f64) -> f64 {
    let free = if lambda > 0.0 {
        (a / (lambda * c)).sqrt()
    } else {
        f64::INFINITY
    };
    free.min(upper).max(lower)
}

/// Solve the dense system `h·x = r` by Gaussian elimination with
/// partial pivoting.
fn solve_dense(mut h: Vec<Vec<f64>>, mut r: Vec<f64>) -> Vec<f64> {
    let n = r.len();
    for col in 0..n {
        let piv = (col..n)
            .max_by(|&a, &b| h[a][col].abs().total_cmp(&h[b][col].abs()))
            .expect("non-empty");
        h.swap(col, piv);
        r.swap(col, piv);
        let (top, below) = h.split_at_mut(col + 1);
        let pivot = &top[col];
        for (k, row) in below.iter_mut().enumerate() {
            let f = row[col] / pivot[col];
            if f != 0.0 {
                for (a, p) in row[col..].iter_mut().zip(&pivot[col..]) {
                    *a -= f * p;
                }
                r[col + 1 + k] -= f * r[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let s: f64 = (row + 1..n).map(|k| h[row][k] * x[k]).sum();
        x[row] = (r[row] - s) / h[row][row];
    }
    x
}

/// The Fig. 2 block-size program for `net` with queue multiplier `b`
/// and worst-case scale `s`.
#[derive(Debug, Clone)]
pub struct Fig2 {
    g: Vec<f64>,
    t: Vec<f64>,
    v: f64,
    b: f64,
    s: f64,
}

impl Fig2 {
    /// Build the program.
    pub fn new(net: &Net, b: f64, s: f64) -> Fig2 {
        Fig2 {
            g: net.totals(),
            t: net.t.clone(),
            v: net.v,
            b,
            s,
        }
    }

    /// Block time `T̄(M) = Σ ⌈M·G_i/v⌉·t_i`.
    pub fn block_time(&self, m: u64) -> f64 {
        let mf = m as f64;
        self.g
            .iter()
            .zip(&self.t)
            .map(|(g, t)| (mf * g / self.v).ceil() * t)
            .sum()
    }

    /// Objective `T̄(M)/(M·τ0)` at `m` if `m` meets stability and the
    /// deadline, else `None`.
    pub fn value(&self, m: u64, tau0: f64, deadline: f64) -> Option<f64> {
        let bt = self.block_time(m);
        let mf = m as f64;
        (m > 0 && bt <= mf * tau0 && self.b * mf * tau0 + self.s * bt <= deadline)
            .then(|| (1.0 / tau0) * bt / mf)
    }

    /// Exhaustive scan: the best `(M, value)`, or `None` if no block
    /// size is feasible. The deadline term `b·M·τ0 + S·T̄(M)` never
    /// decreases in `M`, so the scan stops at the first `M` it rejects.
    pub fn scan(&self, tau0: f64, deadline: f64) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        let mut m = 1u64;
        loop {
            let bt = self.block_time(m);
            let mf = m as f64;
            if self.b * mf * tau0 + self.s * bt > deadline {
                return best;
            }
            if bt <= mf * tau0 {
                let value = (1.0 / tau0) * bt / mf;
                if best.is_none_or(|(_, b)| value < b) {
                    best = Some((m, value));
                }
            }
            m += 1;
        }
    }
}

/// Whether `value` is within `rel` of `reference` (relative to the
/// larger magnitude).
pub fn close(value: f64, reference: f64, rel: f64) -> bool {
    (value - reference).abs() <= rel * value.abs().max(reference.abs())
}

/// Reference results for one cell of a sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct CellReference {
    /// Checker's Fig. 1 verdict (`None`: no interior to start from).
    pub enforced: Option<Fig1Optimum>,
    /// Checker's Fig. 1 feasibility.
    pub enforced_feasible: bool,
    /// Checker's Fig. 2 scan.
    pub monolithic: Option<(u64, f64)>,
}

impl CellReference {
    /// Compute the reference for one cell.
    pub fn compute(net: &Net, b: &[f64], mono_b: f64, mono_s: f64, tau0: f64, d: f64) -> Self {
        let fig1 = Fig1::new(net, tau0, d, b);
        CellReference {
            enforced_feasible: fig1.feasible(),
            enforced: fig1.solve_barrier(),
            monolithic: Fig2::new(net, mono_b, mono_s).scan(tau0, d),
        }
    }
}

/// How one sweep cell disagrees with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// Enforced feasibility differs from the minimal-period test.
    EnforcedFeasibility,
    /// Enforced value off the chain optimum, or below the DAG optimum.
    EnforcedValue,
    /// Monolithic feasibility differs from the scan.
    MonolithicFeasibility,
    /// Monolithic value differs from the scan's optimum.
    MonolithicValue,
}

/// Compare a sweep cell's two active fractions against the reference.
/// `exact_enforced` selects the chain rule (value within
/// [`ENFORCED_REL_TOL`] of the optimum) over the DAG rule (value never
/// below the optimum).
pub fn check_cell(
    reference: &CellReference,
    enforced: Option<f64>,
    monolithic: Option<f64>,
    exact_enforced: bool,
) -> Vec<CellFault> {
    let mut faults = Vec::new();
    match (enforced, reference.enforced_feasible) {
        (Some(_), false) | (None, true) => faults.push(CellFault::EnforcedFeasibility),
        (Some(af), true) => {
            if let Some(Fig1Optimum::Value { lower, upper }) = reference.enforced {
                let ok = if exact_enforced {
                    af >= lower * (1.0 - ENFORCED_REL_TOL) && af <= upper * (1.0 + ENFORCED_REL_TOL)
                } else {
                    af >= lower * (1.0 - DAG_FLOOR_REL_TOL)
                };
                if !ok {
                    faults.push(CellFault::EnforcedValue);
                }
            }
        }
        (None, false) => {}
    }
    match (monolithic, reference.monolithic) {
        (Some(_), None) | (None, Some(_)) => faults.push(CellFault::MonolithicFeasibility),
        (Some(af), Some((_, best))) => {
            if !close(af, best, MONOLITHIC_REL_TOL) {
                faults.push(CellFault::MonolithicValue);
            }
        }
        (None, None) => {}
    }
    faults
}
