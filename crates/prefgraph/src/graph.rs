//! The preference graph data structure.

use std::fmt;

/// Identifier of a scenario vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioId(pub(crate) usize);

impl ScenarioId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Build an id from a raw index. Validity is the caller's burden;
    /// [`PrefGraph::from_parts`] checks every id it is handed against the
    /// scenario count, so deserializers can construct ids safely.
    #[must_use]
    pub fn from_index(index: usize) -> ScenarioId {
        ScenarioId(index)
    }
}

/// Identifier of a preference edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A strict preference: `preferred` is ranked above `other`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefEdge {
    /// The preferred scenario.
    pub preferred: ScenarioId,
    /// The less preferred scenario.
    pub other: ScenarioId,
    /// Confidence in `[0, 1]`; trusted answers are `1.0`. Used by the noise
    /// repair pass to pick which edges to sacrifice in a cycle.
    pub confidence: f64,
    /// Whether the edge has been removed by a repair pass.
    pub removed: bool,
}

/// Error: the requested preference would contradict recorded preferences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// The offending pair (preferred, other).
    pub pair: (ScenarioId, ScenarioId),
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preference {:?} > {:?} contradicts recorded preferences",
            self.pair.0, self.pair.1
        )
    }
}

impl std::error::Error for CycleError {}

/// Union-find over scenario indices for indifference classes.
#[derive(Debug, Clone, Default)]
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn push(&mut self) {
        self.parent.push(self.parent.len());
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// A preference DAG over scenarios of payload type `S`.
#[derive(Debug, Clone)]
pub struct PrefGraph<S> {
    scenarios: Vec<S>,
    edges: Vec<PrefEdge>,
    dsu: Dsu,
    revision: u64,
    epoch: u64,
}

impl<S> Default for PrefGraph<S> {
    fn default() -> PrefGraph<S> {
        PrefGraph {
            scenarios: Vec::new(),
            edges: Vec::new(),
            dsu: Dsu::default(),
            revision: 0,
            epoch: 0,
        }
    }
}

impl<S> PrefGraph<S> {
    /// An empty graph.
    #[must_use]
    pub fn new() -> PrefGraph<S> {
        PrefGraph::default()
    }

    /// Add a scenario vertex, returning its id.
    pub fn add_scenario(&mut self, payload: S) -> ScenarioId {
        self.scenarios.push(payload);
        self.dsu.push();
        ScenarioId(self.scenarios.len() - 1)
    }

    /// The payload of a scenario.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn scenario(&self, id: ScenarioId) -> &S {
        &self.scenarios[id.0]
    }

    /// Number of scenarios.
    #[must_use]
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// Number of active (non-removed) strict edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.removed).count()
    }

    /// Monotone change counter: bumped by every mutation that can only
    /// *strengthen* the constraint set the graph denotes ([`Self::prefer`],
    /// [`Self::prefer_unchecked`], [`Self::mark_indifferent`]). Two equal
    /// `(epoch, revision)` pairs mean the constraint set is unchanged; a
    /// larger revision at the same epoch means a superset.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Weakening counter: bumped by [`Self::remove_edge`], which can grow
    /// the solution set. Any derived state (compiled formulas) keyed to an
    /// older epoch is invalid.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All scenario ids.
    pub fn scenario_ids(&self) -> impl Iterator<Item = ScenarioId> {
        (0..self.scenarios.len()).map(ScenarioId)
    }

    /// Active strict edges with indifference-class representatives resolved.
    pub fn active_edges(&self) -> impl Iterator<Item = &PrefEdge> {
        self.edges.iter().filter(|e| !e.removed)
    }

    /// All edges, including removed ones.
    #[must_use]
    pub fn all_edges(&self) -> &[PrefEdge] {
        &self.edges
    }

    /// Class representative of a scenario under indifference.
    #[must_use]
    pub fn class_of(&self, id: ScenarioId) -> ScenarioId {
        // Non-mutating find (no path compression).
        let mut x = id.0;
        while self.dsu.parent[x] != x {
            x = self.dsu.parent[x];
        }
        ScenarioId(x)
    }

    /// `true` iff the two scenarios are in the same indifference class.
    #[must_use]
    pub fn indifferent(&self, a: ScenarioId, b: ScenarioId) -> bool {
        self.class_of(a) == self.class_of(b)
    }

    /// Pairs of scenarios declared indifferent (as recorded unions may merge
    /// transitively, this reports each scenario against its class
    /// representative, skipping singletons).
    #[must_use]
    pub fn indifference_pairs(&self) -> Vec<(ScenarioId, ScenarioId)> {
        let mut out = Vec::new();
        for i in 0..self.scenarios.len() {
            let rep = self.class_of(ScenarioId(i));
            if rep.0 != i {
                out.push((ScenarioId(i), rep));
            }
        }
        out
    }

    /// Record `a` preferred over `b`, refusing edges that contradict the
    /// recorded order (a path `b ⪰ a`, or indifference between them).
    ///
    /// # Errors
    /// Returns [`CycleError`] if the edge would create a cycle.
    pub fn prefer(&mut self, a: ScenarioId, b: ScenarioId) -> Result<EdgeId, CycleError> {
        if self.indifferent(a, b) || self.reaches(b, a) {
            return Err(CycleError { pair: (a, b) });
        }
        self.edges.push(PrefEdge { preferred: a, other: b, confidence: 1.0, removed: false });
        self.revision += 1;
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Record `a` preferred over `b` without the cycle check (noisy-oracle
    /// mode). `confidence` weights the edge for later [`crate::noise::repair`].
    pub fn prefer_unchecked(&mut self, a: ScenarioId, b: ScenarioId, confidence: f64) -> EdgeId {
        self.edges.push(PrefEdge { preferred: a, other: b, confidence, removed: false });
        self.revision += 1;
        EdgeId(self.edges.len() - 1)
    }

    /// Declare two scenarios indifferent (the objective must value them
    /// equally).
    ///
    /// # Errors
    /// Returns [`CycleError`] if a strict preference already separates them
    /// in either direction.
    pub fn mark_indifferent(&mut self, a: ScenarioId, b: ScenarioId) -> Result<(), CycleError> {
        if self.reaches(a, b) || self.reaches(b, a) {
            return Err(CycleError { pair: (a, b) });
        }
        self.dsu.union(a.0, b.0);
        self.revision += 1;
        Ok(())
    }

    /// Remove an edge (used by the repair pass). Bumps the epoch — removal
    /// may weaken the denoted constraint set, so monotonicity-based caches
    /// must flush. Removing an edge whose ordered pair is still entailed by
    /// the remaining graph (check [`Self::reaches`] afterwards) leaves the
    /// semantics unchanged; callers holding such proof may ignore the bump.
    pub fn remove_edge(&mut self, id: EdgeId) {
        self.edges[id.0].removed = true;
        self.epoch += 1;
        self.revision += 1;
    }

    /// `true` iff a strict path from `a`'s class to `b`'s class exists
    /// (i.e. the recorded preferences entail `a` strictly above `b`).
    #[must_use]
    pub fn reaches(&self, a: ScenarioId, b: ScenarioId) -> bool {
        let start = self.class_of(a);
        let goal = self.class_of(b);
        if start == goal {
            return false;
        }
        let mut seen = vec![false; self.scenarios.len()];
        let mut stack = vec![start];
        seen[start.0] = true;
        while let Some(v) = stack.pop() {
            for e in self.active_edges() {
                if self.class_of(e.preferred) == v {
                    let w = self.class_of(e.other);
                    if w == goal {
                        return true;
                    }
                    if !seen[w.0] {
                        seen[w.0] = true;
                        stack.push(w);
                    }
                }
            }
        }
        false
    }

    /// `true` iff the active strict edges plus indifference classes form a
    /// DAG (no scenario is strictly above its own class).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        crate::closure::find_cycle(self).is_none()
    }

    /// Decompose the graph into plain data for serialization. The parts
    /// capture the exact internal state — including union-find parent
    /// links and the revision/epoch counters — so
    /// [`PrefGraph::from_parts`] rebuilds a structurally identical graph
    /// (same ids, same class representatives, same counters).
    #[must_use]
    pub fn to_parts(self) -> GraphParts<S> {
        GraphParts {
            scenarios: self.scenarios,
            edges: self.edges,
            dsu_parents: self.dsu.parent,
            revision: self.revision,
            epoch: self.epoch,
        }
    }

    /// Rebuild a graph from [`PrefGraph::to_parts`] output.
    ///
    /// # Errors
    /// Returns a description of the first structural violation: a parent
    /// vector whose length disagrees with the scenario count, a parent
    /// link or edge endpoint out of range.
    pub fn from_parts(parts: GraphParts<S>) -> Result<PrefGraph<S>, String> {
        let n = parts.scenarios.len();
        if parts.dsu_parents.len() != n {
            return Err(format!(
                "dsu parent count {} does not match scenario count {n}",
                parts.dsu_parents.len()
            ));
        }
        if let Some(&bad) = parts.dsu_parents.iter().find(|&&p| p >= n) {
            return Err(format!("dsu parent {bad} out of range for {n} scenarios"));
        }
        if let Some(e) = parts.edges.iter().find(|e| e.preferred.0 >= n || e.other.0 >= n) {
            return Err(format!(
                "edge ({}, {}) out of range for {n} scenarios",
                e.preferred.0, e.other.0
            ));
        }
        Ok(PrefGraph {
            scenarios: parts.scenarios,
            edges: parts.edges,
            dsu: Dsu { parent: parts.dsu_parents },
            revision: parts.revision,
            epoch: parts.epoch,
        })
    }
}

/// Plain-data decomposition of a [`PrefGraph`] (see
/// [`PrefGraph::to_parts`]). Scenario ids are positions in `scenarios`;
/// `dsu_parents[i]` is the union-find parent link of scenario `i`.
#[derive(Debug, Clone)]
pub struct GraphParts<S> {
    /// Scenario payloads in id order.
    pub scenarios: Vec<S>,
    /// All strict edges, including removed ones, in insertion order.
    pub edges: Vec<PrefEdge>,
    /// Union-find parent links for the indifference classes.
    pub dsu_parents: Vec<usize>,
    /// Strengthening counter (see [`PrefGraph::revision`]).
    pub revision: u64,
    /// Weakening counter (see [`PrefGraph::epoch`]).
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> (PrefGraph<&'static str>, ScenarioId, ScenarioId, ScenarioId) {
        let mut g = PrefGraph::new();
        let a = g.add_scenario("a");
        let b = g.add_scenario("b");
        let c = g.add_scenario("c");
        (g, a, b, c)
    }

    #[test]
    fn add_and_query() {
        let (mut g, a, b, c) = three();
        assert_eq!(g.scenario_count(), 3);
        assert_eq!(*g.scenario(a), "a");
        g.prefer(a, b).unwrap();
        g.prefer(b, c).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.reaches(a, b));
        assert!(g.reaches(a, c), "transitive reachability");
        assert!(!g.reaches(c, a));
        assert!(g.is_consistent());
    }

    #[test]
    fn cycle_rejected() {
        let (mut g, a, b, c) = three();
        g.prefer(a, b).unwrap();
        g.prefer(b, c).unwrap();
        let err = g.prefer(c, a).unwrap_err();
        assert_eq!(err.pair, (c, a));
        // Self-edge also rejected (a ~ a trivially indifferent).
        assert!(g.prefer(a, a).is_err());
        assert!(g.is_consistent());
    }

    #[test]
    fn indifference_classes() {
        let (mut g, a, b, c) = three();
        g.mark_indifferent(a, b).unwrap();
        assert!(g.indifferent(a, b));
        assert!(!g.indifferent(a, c));
        // A strict preference within a class is contradictory.
        assert!(g.prefer(a, b).is_err());
        // Preferences respect classes: c > a implies c above b's class too.
        g.prefer(c, a).unwrap();
        assert!(g.reaches(c, b));
        assert_eq!(g.indifference_pairs().len(), 1);
    }

    #[test]
    fn indifference_conflicting_with_strict_rejected() {
        let (mut g, a, b, _) = three();
        g.prefer(a, b).unwrap();
        assert!(g.mark_indifferent(a, b).is_err());
        assert!(g.mark_indifferent(b, a).is_err());
    }

    #[test]
    fn unchecked_allows_cycles_and_removal_restores() {
        let (mut g, a, b, _) = three();
        g.prefer_unchecked(a, b, 0.9);
        let e = g.prefer_unchecked(b, a, 0.1);
        assert!(!g.is_consistent());
        g.remove_edge(e);
        assert!(g.is_consistent());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.all_edges().len(), 2);
    }

    #[test]
    fn revision_and_epoch_track_mutations() {
        let (mut g, a, b, c) = three();
        assert_eq!((g.revision(), g.epoch()), (0, 0));
        g.prefer(a, b).unwrap();
        assert_eq!((g.revision(), g.epoch()), (1, 0));
        let e = g.prefer_unchecked(b, c, 0.5);
        assert_eq!((g.revision(), g.epoch()), (2, 0));
        g.mark_indifferent(a, c).unwrap_err(); // rejected: must not bump
        assert_eq!((g.revision(), g.epoch()), (2, 0));
        g.remove_edge(e);
        assert_eq!(g.epoch(), 1, "removal weakens: epoch bumps");
        assert!(g.revision() > 2);
    }

    #[test]
    fn parts_roundtrip_preserves_structure() {
        let (mut g, a, b, c) = three();
        g.prefer(a, b).unwrap();
        let e = g.prefer_unchecked(b, c, 0.5);
        g.mark_indifferent(a, c).unwrap_err();
        g.remove_edge(e);
        let before = (g.revision(), g.epoch(), g.edge_count(), g.class_of(a));
        let back = PrefGraph::from_parts(g.to_parts()).unwrap();
        assert_eq!((back.revision(), back.epoch(), back.edge_count(), back.class_of(a)), before);
        assert!(back.reaches(a, b));
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        let parts = GraphParts {
            scenarios: vec!["a", "b"],
            edges: Vec::new(),
            dsu_parents: vec![0], // wrong length
            revision: 0,
            epoch: 0,
        };
        assert!(PrefGraph::from_parts(parts).is_err());
        let parts = GraphParts {
            scenarios: vec!["a", "b"],
            edges: vec![PrefEdge {
                preferred: ScenarioId(5),
                other: ScenarioId(0),
                confidence: 1.0,
                removed: false,
            }],
            dsu_parents: vec![0, 1],
            revision: 0,
            epoch: 0,
        };
        assert!(PrefGraph::from_parts(parts).is_err());
        let parts = GraphParts {
            scenarios: vec!["a"],
            edges: Vec::new(),
            dsu_parents: vec![3], // parent out of range
            revision: 0,
            epoch: 0,
        };
        assert!(PrefGraph::from_parts(parts).is_err());
    }

    #[test]
    fn reaches_through_class_merge() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(1);
        let b = g.add_scenario(2);
        let c = g.add_scenario(3);
        let d = g.add_scenario(4);
        g.prefer(a, b).unwrap();
        g.prefer(c, d).unwrap();
        assert!(!g.reaches(a, d));
        g.mark_indifferent(b, c).unwrap();
        assert!(g.reaches(a, d), "a > b ~ c > d must entail a > d");
    }
}
