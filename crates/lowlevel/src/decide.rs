//! The iteration method and satisfiability check over low-level-language
//! graphs (Appendix C §4.2 and §4.4).
//!
//! A path through a graph built by [`crate::graph`] denotes a computation-
//! sequence constraint: the `i`-th edge's propositional part constrains the
//! `i`-th instant.  A constraint is *accepted* when
//!
//! * every propositional part along the path is non-contradictory,
//! * every eventuality introduced along the path is later discharged, and
//! * the path either ends at the `END` node (a finite model) or is infinite
//!   (an infinite model).
//!
//! [`prune`] implements the report's *iteration method*: edges whose
//! propositional part is contradictory are deleted, nodes (other than `END`)
//! with no outgoing edges are deleted together with their incoming edges, and
//! edges carrying an eventuality that can no longer be discharged are deleted;
//! the deletions are iterated to a fixed point.  [`satisfiable_graph`] then
//! decides emptiness exactly with a product search over (node, pending
//! eventualities) states, and [`accepted_interps`] enumerates the finite
//! accepted constraints up to a length bound so that the graph procedure can
//! be cross-validated against the bounded denotational semantics of
//! [`crate::semantics`].

use std::collections::{BTreeMap, BTreeSet};

use ilogic_core::pool::{Exhaustion, ResourceBudget};

use crate::graph::{EvId, GraphEdge, GraphNode, LowGraph};
use crate::interp::PartialInterp;

/// Statistics of a pruning run, in the spirit of the report's measurement
/// table (graph size before and after the iteration method).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PruneStats {
    /// Nodes before pruning.
    pub nodes_before: usize,
    /// Edges before pruning.
    pub edges_before: usize,
    /// Nodes after pruning.
    pub nodes_after: usize,
    /// Edges after pruning.
    pub edges_after: usize,
    /// Number of deletion rounds until the fixed point.
    pub rounds: usize,
}

/// The result of pruning: the surviving graph plus statistics.
#[derive(Clone, Debug)]
pub struct Pruned {
    /// The graph restricted to surviving nodes and edges.
    pub graph: LowGraph,
    /// Size statistics.
    pub stats: PruneStats,
}

/// Applies the iteration method of §4.4 to the graph.
pub fn prune(graph: &LowGraph) -> Pruned {
    prune_budgeted(graph, &ResourceBudget::unbounded())
        .expect("an unbudgeted prune cannot be interrupted")
}

/// [`prune`] under a [`ResourceBudget`]: the deletion loop has no
/// structural cap (it only shrinks the graph), but the budget's
/// deadline/cancellation cutoffs are polled once per deletion round.
pub fn prune_budgeted(graph: &LowGraph, budget: &ResourceBudget) -> Result<Pruned, Exhaustion> {
    let nodes_before = graph.node_count();
    let edges_before = graph.edge_count();

    let mut edges: Vec<GraphEdge> =
        graph.edges().iter().filter(|e| !e.prop.is_contradictory()).cloned().collect();
    let mut rounds = 0;
    loop {
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        rounds += 1;
        let before = edges.len();

        // Delete edges not reachable from the initial node (the report prunes
        // "nodes deleted that are not reachable from the initial node").
        let reachable = reachable_nodes(graph.init(), &edges);
        edges.retain(|e| reachable.contains(&e.from));

        // Delete edges whose target (other than END) has no outgoing edges.
        let live_sources: BTreeSet<GraphNode> = edges.iter().map(|e| e.from.clone()).collect();
        edges.retain(|e| e.to.is_end() || live_sources.contains(&e.to));

        // Delete edges carrying an eventuality that is discharged neither by
        // the edge itself nor by any path from the edge's target.
        let dischargeable = dischargeable_map(&edges);
        edges.retain(|e| {
            e.ev.iter().all(|ev| {
                e.se.contains(ev) || dischargeable.get(&e.to).is_some_and(|set| set.contains(ev))
            })
        });

        if edges.len() == before {
            break;
        }
    }

    let mut nodes: BTreeSet<GraphNode> = BTreeSet::new();
    nodes.insert(graph.init().clone());
    for e in &edges {
        nodes.insert(e.from.clone());
        nodes.insert(e.to.clone());
    }
    let pruned = rebuild(graph.init().clone(), nodes, edges);
    let stats = PruneStats {
        nodes_before,
        edges_before,
        nodes_after: pruned.node_count(),
        edges_after: pruned.edge_count(),
        rounds,
    };
    Ok(Pruned { graph: pruned, stats })
}

fn rebuild(init: GraphNode, nodes: BTreeSet<GraphNode>, edges: Vec<GraphEdge>) -> LowGraph {
    // `LowGraph` has no public constructor taking raw parts; rebuild through a
    // crate-private helper on the graph module would couple the two modules,
    // so we reconstruct via the public API of a small shim below.
    LowGraphParts { init, nodes, edges }.into_graph()
}

/// Crate-private shim used to reassemble a graph from parts.
struct LowGraphParts {
    init: GraphNode,
    nodes: BTreeSet<GraphNode>,
    edges: Vec<GraphEdge>,
}

impl LowGraphParts {
    fn into_graph(self) -> LowGraph {
        LowGraph::from_parts(self.init, self.nodes, self.edges)
    }
}

/// The nodes reachable from `init` via the given edges.
fn reachable_nodes(init: &GraphNode, edges: &[GraphEdge]) -> BTreeSet<GraphNode> {
    let mut reachable = BTreeSet::from([init.clone()]);
    let mut frontier = vec![init.clone()];
    while let Some(node) = frontier.pop() {
        for edge in edges.iter().filter(|e| e.from == node) {
            if reachable.insert(edge.to.clone()) {
                frontier.push(edge.to.clone());
            }
        }
    }
    reachable
}

/// For every node, the set of eventualities dischargeable by some path
/// starting at that node (reachability to an edge carrying the eventuality in
/// its satisfied set).
fn dischargeable_map(edges: &[GraphEdge]) -> BTreeMap<GraphNode, BTreeSet<EvId>> {
    let mut map: BTreeMap<GraphNode, BTreeSet<EvId>> = BTreeMap::new();
    // Seed: an eventuality is dischargeable from the source of an edge that
    // discharges it.
    let mut changed = true;
    while changed {
        changed = false;
        for edge in edges {
            let mut gain: BTreeSet<EvId> = edge.se.clone();
            if let Some(from_target) = map.get(&edge.to) {
                gain.extend(from_target.iter().copied());
            }
            let entry = map.entry(edge.from.clone()).or_default();
            let before = entry.len();
            entry.extend(gain);
            if entry.len() != before {
                changed = true;
            }
        }
    }
    map
}

/// The answer of the graph satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSat {
    /// A finite accepted constraint exists; the witness is returned.
    FiniteModel(PartialInterp),
    /// Only infinite accepted constraints exist; a prefix of one is returned.
    InfiniteModel(PartialInterp),
    /// The graph accepts no constraint.
    Unsatisfiable,
}

impl GraphSat {
    /// `true` when some model (finite or infinite) exists.
    pub fn is_sat(&self) -> bool {
        !matches!(self, GraphSat::Unsatisfiable)
    }
}

/// A product state of the acceptance search: a graph node together with the
/// set of eventualities still pending.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ProductState {
    node: GraphNode,
    pending: BTreeSet<EvId>,
}

/// Decides whether the graph accepts any computation-sequence constraint.
///
/// Finite acceptance requires reaching `END` with no pending eventuality;
/// infinite acceptance requires a reachable strongly connected component in
/// the product graph in which every eventuality that is pending somewhere in
/// the component is discharged by some edge of the component.
pub fn satisfiable_graph(graph: &LowGraph) -> GraphSat {
    satisfiable_graph_budgeted(graph, &ResourceBudget::unbounded())
        .expect("an unbudgeted satisfiability check cannot be interrupted")
}

/// [`satisfiable_graph`] under a [`ResourceBudget`]: the product-space
/// exploration counts its states against `budget.max_nodes()` (the product
/// space is exponential in the eventuality count, the pipeline's one
/// genuinely explosive phase) and polls the deadline/cancellation cutoffs at
/// every BFS level and pruning round.  The structural cap trips as a
/// function of the graph alone.
///
/// The pipeline runs on the calling thread: striping the prune predicates,
/// each BFS level and the fair-cycle adjacency across two workers ran at
/// 0.69x on the `response_ladder(2)` graph.
pub fn satisfiable_graph_budgeted(
    graph: &LowGraph,
    budget: &ResourceBudget,
) -> Result<GraphSat, Exhaustion> {
    let pruned = prune_budgeted(graph, budget)?.graph;
    if pruned.edge_count() == 0 {
        return Ok(GraphSat::Unsatisfiable);
    }

    // Breadth-first exploration of the product space, remembering parents so a
    // witness constraint can be reconstructed.
    let start = ProductState { node: pruned.init().clone(), pending: BTreeSet::new() };
    let mut parent: BTreeMap<ProductState, (ProductState, GraphEdge)> = BTreeMap::new();
    let mut visited: BTreeSet<ProductState> = BTreeSet::new();
    let mut frontier: Vec<ProductState> = Vec::new();
    visited.insert(start.clone());
    frontier.push(start.clone());

    let mut finite_witness: Option<ProductState> = None;
    while !frontier.is_empty() {
        if let Some(interrupt) = budget.interrupted() {
            return Err(interrupt);
        }
        let level = std::mem::take(&mut frontier);
        let successors = level_successors(&pruned, &level);
        for (state, succs) in level.iter().zip(successors) {
            if state.node.is_end() {
                if state.pending.is_empty() && finite_witness.is_none() {
                    finite_witness = Some(state.clone());
                }
                continue;
            }
            for (next, edge) in succs {
                if visited.insert(next.clone()) {
                    if visited.len() > budget.max_nodes() {
                        return Err(Exhaustion::Nodes);
                    }
                    parent.insert(next.clone(), (state.clone(), edge));
                    frontier.push(next);
                }
            }
        }
    }

    if let Some(end_state) = finite_witness {
        return Ok(GraphSat::FiniteModel(reconstruct(&parent, &end_state)));
    }

    // Infinite acceptance: look for a reachable fair cycle.  Compute strongly
    // connected components of the visited product graph and accept any
    // component with an internal edge in which every pending eventuality of
    // the component is discharged by some internal edge.
    if let Some(interrupt) = budget.interrupted() {
        return Err(interrupt);
    }
    if let Some(entry) = fair_scc_entry(&pruned, &visited) {
        return Ok(GraphSat::InfiniteModel(reconstruct(&parent, &entry)));
    }
    Ok(GraphSat::Unsatisfiable)
}

/// Expands every product state of one BFS level; results come back in level
/// order.  `END` states expand to nothing (the caller handles their witness
/// bookkeeping).
fn level_successors(
    graph: &LowGraph,
    level: &[ProductState],
) -> Vec<Vec<(ProductState, GraphEdge)>> {
    let expand = |state: &ProductState| -> Vec<(ProductState, GraphEdge)> {
        if state.node.is_end() {
            return Vec::new();
        }
        graph
            .edges_from(&state.node)
            .map(|edge| {
                let mut pending: BTreeSet<EvId> = state.pending.clone();
                pending.extend(edge.ev.iter().copied());
                for discharged in &edge.se {
                    pending.remove(discharged);
                }
                (ProductState { node: edge.to.clone(), pending }, edge.clone())
            })
            .collect()
    };
    level.iter().map(expand).collect()
}

/// Reconstructs the constraint of the path from the initial product state to
/// `target` using the BFS parent map.
fn reconstruct(
    parent: &BTreeMap<ProductState, (ProductState, GraphEdge)>,
    target: &ProductState,
) -> PartialInterp {
    let mut props = Vec::new();
    let mut cursor = target.clone();
    while let Some((prev, edge)) = parent.get(&cursor) {
        props.push(edge.prop.clone());
        cursor = prev.clone();
    }
    props.reverse();
    PartialInterp::from_conjs(props)
}

/// Finds a product state inside a reachable fair strongly connected component,
/// if one exists.
fn fair_scc_entry(graph: &LowGraph, visited: &BTreeSet<ProductState>) -> Option<ProductState> {
    // Build the product adjacency restricted to visited states.
    let states: Vec<ProductState> = visited.iter().filter(|s| !s.node.is_end()).cloned().collect();
    let index: BTreeMap<&ProductState, usize> =
        states.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let edges: Vec<&GraphEdge> = graph.edges().iter().collect();
    let row = |state: &ProductState| -> Vec<(usize, usize)> {
        let mut row = Vec::new(); // (target, edge idx)
        for (ei, edge) in edges.iter().enumerate() {
            if edge.from != state.node {
                continue;
            }
            let mut pending = state.pending.clone();
            pending.extend(edge.ev.iter().copied());
            for d in &edge.se {
                pending.remove(d);
            }
            let next = ProductState { node: edge.to.clone(), pending };
            if let Some(&j) = index.get(&next) {
                row.push((j, ei));
            }
        }
        row
    };
    let succ: Vec<Vec<(usize, usize)>> = states.iter().map(row).collect();

    // Tarjan-style SCC computation (iterative Kosaraju for simplicity).
    let sccs = strongly_connected_components(&succ);
    for component in &sccs {
        // A component must contain at least one edge (a self-loop counts).
        let members: BTreeSet<usize> = component.iter().copied().collect();
        let mut internal_edges: Vec<usize> = Vec::new();
        for &i in component {
            for &(j, ei) in &succ[i] {
                if members.contains(&j) {
                    internal_edges.push(ei);
                }
            }
        }
        if internal_edges.is_empty() {
            continue;
        }
        // Every eventuality pending anywhere in the component must be
        // discharged by some internal edge.
        let mut pending_union: BTreeSet<EvId> = BTreeSet::new();
        for &i in component {
            pending_union.extend(states[i].pending.iter().copied());
        }
        for &ei in &internal_edges {
            pending_union.extend(edges[ei].ev.iter().copied());
        }
        let discharged: BTreeSet<EvId> =
            internal_edges.iter().flat_map(|&ei| edges[ei].se.iter().copied()).collect();
        if pending_union.iter().all(|ev| discharged.contains(ev)) {
            return Some(states[component[0]].clone());
        }
    }
    None
}

/// Kosaraju's algorithm over an adjacency list, returning the components.
fn strongly_connected_components(succ: &[Vec<(usize, usize)>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&(node, next)) = stack.last() {
            if next < succ[node].len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let (target, _) = succ[node][next];
                if !seen[target] {
                    seen[target] = true;
                    stack.push((target, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
    }
    // Transpose.
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, targets) in succ.iter().enumerate() {
        for &(j, _) in targets {
            pred[j].push(i);
        }
    }
    let mut component = vec![usize::MAX; n];
    let mut components = Vec::new();
    for &start in order.iter().rev() {
        if component[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut stack = vec![start];
        component[start] = id;
        while let Some(node) = stack.pop() {
            members.push(node);
            for &p in &pred[node] {
                if component[p] == usize::MAX {
                    component[p] = id;
                    stack.push(p);
                }
            }
        }
        components.push(members);
    }
    components
}

/// Enumerates the finite accepted constraints of the graph up to `max_len`
/// instants and `max_models` results.
///
/// Used by the integration tests to cross-validate the graph construction
/// against the bounded denotational semantics of [`crate::semantics`].
pub fn accepted_interps(graph: &LowGraph, max_len: usize, max_models: usize) -> Vec<PartialInterp> {
    let pruned = prune(graph).graph;
    let mut results = Vec::new();
    let start = ProductState { node: pruned.init().clone(), pending: BTreeSet::new() };
    let mut path: Vec<GraphEdge> = Vec::new();
    dfs_accepted(&pruned, &start, &mut path, max_len, max_models, &mut results);
    results.sort();
    results.dedup();
    results
}

fn dfs_accepted(
    graph: &LowGraph,
    state: &ProductState,
    path: &mut Vec<GraphEdge>,
    max_len: usize,
    max_models: usize,
    results: &mut Vec<PartialInterp>,
) {
    if results.len() >= max_models {
        return;
    }
    if state.node.is_end() {
        if state.pending.is_empty() && !path.is_empty() {
            results.push(PartialInterp::from_conjs(path.iter().map(|e| e.prop.clone()).collect()));
        }
        return;
    }
    if path.len() >= max_len {
        return;
    }
    let outgoing: Vec<GraphEdge> = graph.edges_from(&state.node).cloned().collect();
    for edge in outgoing {
        let mut pending = state.pending.clone();
        pending.extend(edge.ev.iter().copied());
        for d in &edge.se {
            pending.remove(d);
        }
        let next = ProductState { node: edge.to.clone(), pending };
        path.push(edge);
        dfs_accepted(graph, &next, path, max_len, max_models, results);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::syntax::LowExpr;

    fn x() -> LowExpr {
        LowExpr::pos("x")
    }

    #[test]
    fn single_literal_is_satisfiable_with_a_length_one_model() {
        let g = build_graph(&x()).unwrap();
        match satisfiable_graph(&g) {
            GraphSat::FiniteModel(m) => {
                assert_eq!(m.len(), 1);
                assert_eq!(m.conjs()[0].value("x"), Some(true));
            }
            other => panic!("expected a finite model, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_atom_is_unsatisfiable() {
        let g = build_graph(&x().and(LowExpr::neg("x"))).unwrap();
        assert_eq!(satisfiable_graph(&g), GraphSat::Unsatisfiable);
    }

    #[test]
    fn pruning_removes_contradictory_edges() {
        let g = build_graph(&x().and(LowExpr::neg("x"))).unwrap();
        let pruned = prune(&g);
        assert_eq!(pruned.graph.edge_count(), 0);
        assert!(pruned.stats.edges_before > 0);
    }

    #[test]
    fn iter_star_requires_the_eventuality_to_be_discharged() {
        // iter*(x T*, F): β can never begin, so the eventuality can never be
        // discharged and the graph is empty after pruning.
        let expr = x().concat(LowExpr::TStar).iter_star(LowExpr::F);
        let g = build_graph(&expr).unwrap();
        assert_eq!(satisfiable_graph(&g), GraphSat::Unsatisfiable);
    }

    #[test]
    fn infloop_yields_an_infinite_model() {
        let g = build_graph(&x().infloop()).unwrap();
        match satisfiable_graph(&g) {
            GraphSat::InfiniteModel(prefix) => {
                for c in prefix.conjs() {
                    assert_eq!(c.value("x"), Some(true));
                }
            }
            other => panic!("expected an infinite model, got {other:?}"),
        }
    }

    #[test]
    fn infloop_contradiction_is_unsatisfiable() {
        // infloop(x) ∧ (T ; ¬x): the second instant must be both x and ¬x.
        let expr = x().infloop().and(LowExpr::T.seq(LowExpr::neg("x")));
        let g = build_graph(&expr).unwrap();
        assert_eq!(satisfiable_graph(&g), GraphSat::Unsatisfiable);
    }

    #[test]
    fn budgeted_pipeline_reports_cuts() {
        use ilogic_core::pool::CancelToken;
        let g = build_graph(&x().infloop()).unwrap();
        // Unbudgeted and unbounded-budget answers agree.
        assert_eq!(
            satisfiable_graph_budgeted(&g, &ResourceBudget::unbounded()),
            Ok(satisfiable_graph(&g))
        );
        // A one-state product budget trips the node cap deterministically
        // (x ; ¬x explores at least three product states: init, mid, END).
        let chain = build_graph(&x().seq(LowExpr::neg("x"))).unwrap();
        let starved = ResourceBudget::unbounded().with_max_nodes(1);
        assert_eq!(satisfiable_graph_budgeted(&chain, &starved), Err(Exhaustion::Nodes));
        // A pre-cancelled token interrupts the pipeline in its first phase.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = ResourceBudget::unbounded().with_cancel(token);
        assert_eq!(satisfiable_graph_budgeted(&g, &cancelled), Err(Exhaustion::Cancelled));
        assert_eq!(prune_budgeted(&g, &cancelled).err(), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn accepted_interps_of_the_section_4_3_example() {
        // iter*(x T*, q) ≡ ∨ᵢ xⁱ ; q  (i ≥ 1).
        let expr = x().concat(LowExpr::TStar).iter_star(LowExpr::pos("q"));
        let g = build_graph(&expr).unwrap();
        let models = accepted_interps(&g, 4, 1000);
        assert!(!models.is_empty());
        for m in &models {
            let last = m.len() - 1;
            assert_eq!(m.conjs()[last].value("q"), Some(true), "model {m}");
            for i in 0..last {
                assert_eq!(m.conjs()[i].value("x"), Some(true), "model {m}");
            }
        }
        // Lengths 2, 3 and 4 are all represented (x;q, x;x;q, x;x;x;q).
        let lengths: std::collections::BTreeSet<usize> =
            models.iter().map(super::super::interp::PartialInterp::len).collect();
        assert!(lengths.contains(&2) && lengths.contains(&3) && lengths.contains(&4));
    }

    #[test]
    fn finite_and_infinite_models_are_distinguished() {
        // x ; T* has finite models; infloop(x) has only infinite ones.
        let finite = build_graph(&x().seq(LowExpr::TStar)).unwrap();
        assert!(matches!(satisfiable_graph(&finite), GraphSat::FiniteModel(_)));
        let infinite = build_graph(&x().infloop()).unwrap();
        assert!(matches!(satisfiable_graph(&infinite), GraphSat::InfiniteModel(_)));
    }
}
