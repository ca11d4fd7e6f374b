//! The causal span model: deterministic span ids and tree
//! reconstruction.
//!
//! A fleet run's spans form a four-level hierarchy — job → lane → chip →
//! tick-batch — whose ids are **pure functions of position in the
//! hierarchy**, never of scheduling. The "lane" level is a *virtual*
//! lane (`chip mod LANES`), deliberately not the physical worker thread:
//! which worker simulates a chip depends on timing, and span traces must
//! stay byte-identical under any `--workers` count. Causality is encoded
//! in explicit `id`/`parent` links carried by the
//! [`TelemetryEvent::SpanOpen`] events themselves, so a tree
//! reconstructs from a merged trace regardless of stream interleaving.

use std::collections::HashMap;
use vs_telemetry::{SpanLevel, TelemetryEvent};
use vs_types::{ChipId, SimTime};

/// Virtual lanes per job. Fixed — a deterministic sharding of chips that
/// groups traffic without referencing physical workers.
pub(crate) const LANES: u64 = 4;

/// The parent id of the root job span.
pub const ROOT: u64 = 0;

const TAG_SHIFT: u32 = 60;
const TAG_JOB: u64 = 1 << TAG_SHIFT;
const TAG_LANE: u64 = 2 << TAG_SHIFT;
const TAG_CHIP: u64 = 3 << TAG_SHIFT;
const TAG_BATCH: u64 = 4 << TAG_SHIFT;
const IDENT_MASK: u64 = (1 << TAG_SHIFT) - 1;
const BATCH_CHIP_SHIFT: u32 = 24;

/// The span id of job `job` (the daemon's job number; 0 for standalone
/// `repro` runs).
pub fn job_span(job: u64) -> u64 {
    TAG_JOB | (job & IDENT_MASK)
}

/// The span id of virtual lane `lane`.
pub fn lane_span(lane: u64) -> u64 {
    TAG_LANE | (lane & IDENT_MASK)
}

/// The span id of `chip`'s simulation.
pub fn chip_span(chip: ChipId) -> u64 {
    TAG_CHIP | (chip.0 & IDENT_MASK)
}

/// The span id of `chip`'s tick-batch number `batch`.
pub fn batch_span(chip: ChipId, batch: u64) -> u64 {
    TAG_BATCH
        | ((chip.0 & ((1 << (TAG_SHIFT - BATCH_CHIP_SHIFT)) - 1)) << BATCH_CHIP_SHIFT)
        | (batch & ((1 << BATCH_CHIP_SHIFT) - 1))
}

/// The virtual lane owning `chip`.
pub fn lane_of(chip: ChipId) -> u64 {
    chip.0 % LANES
}

/// Decodes the hierarchy level encoded in a span id's tag bits.
#[cfg(test)]
pub(crate) fn level_of(id: u64) -> Option<SpanLevel> {
    match id >> TAG_SHIFT {
        1 => Some(SpanLevel::Job),
        2 => Some(SpanLevel::Lane),
        3 => Some(SpanLevel::Chip),
        4 => Some(SpanLevel::Batch),
        _ => None,
    }
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span's id.
    pub id: u64,
    /// The parent span's id ([`ROOT`] for the job span).
    pub parent: u64,
    /// Hierarchy level.
    pub level: SpanLevel,
    /// Level-specific identity (job number, lane index, chip id, batch
    /// index).
    pub ident: u64,
    /// When the span opened.
    pub open_at: SimTime,
    /// When the span closed (`None` if the trace ended mid-span).
    pub close_at: Option<SimTime>,
    /// Events the matching close reported as enclosed.
    pub events: u64,
    /// Indices (into the tree's node list) of the direct children, sorted
    /// by `(level, ident)` for deterministic traversal.
    pub children: Vec<usize>,
}

/// A job's causal tree, reconstructed from a merged event stream by
/// chasing `id → parent` links (stream position carries no meaning).
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
}

impl SpanTree {
    /// Builds the tree from any event stream; non-span events are
    /// ignored. Orphans (a parent id never opened) become extra roots
    /// rather than being dropped, so a truncated trace still renders.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TelemetryEvent>) -> SpanTree {
        let mut nodes: Vec<SpanNode> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for event in events {
            match *event {
                TelemetryEvent::SpanOpen {
                    at,
                    id,
                    parent,
                    level,
                    ident,
                } => {
                    by_id.insert(id, nodes.len());
                    nodes.push(SpanNode {
                        id,
                        parent,
                        level,
                        ident,
                        open_at: at,
                        close_at: None,
                        events: 0,
                        children: Vec::new(),
                    });
                }
                TelemetryEvent::SpanClose { at, id, events } => {
                    if let Some(&i) = by_id.get(&id) {
                        nodes[i].close_at = Some(at);
                        nodes[i].events = events;
                    }
                }
                _ => {}
            }
        }
        let mut roots = Vec::new();
        for i in 0..nodes.len() {
            let parent = nodes[i].parent;
            match by_id.get(&parent) {
                Some(&p) if parent != ROOT => nodes[p].children.push(i),
                _ => roots.push(i),
            }
        }
        let key = |nodes: &[SpanNode], i: usize| (nodes[i].level, nodes[i].ident, nodes[i].id);
        for i in 0..nodes.len() {
            let mut children = std::mem::take(&mut nodes[i].children);
            children.sort_by_key(|&c| key(&nodes, c));
            nodes[i].children = children;
        }
        roots.sort_by_key(|&r| key(&nodes, r));
        SpanTree { nodes, roots }
    }

    /// Spans in the tree.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no spans were found.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root spans (normally exactly the job span).
    pub fn roots(&self) -> impl Iterator<Item = &SpanNode> {
        self.roots.iter().map(|&i| &self.nodes[i])
    }

    /// Looks a span up by id.
    #[cfg(test)]
    pub(crate) fn find(&self, id: u64) -> Option<&SpanNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// A span's direct children.
    pub fn children<'a>(&'a self, node: &'a SpanNode) -> impl Iterator<Item = &'a SpanNode> {
        node.children.iter().map(|&i| &self.nodes[i])
    }

    /// Renders the tree as an indented outline — deterministic, since
    /// traversal order is `(level, ident)` at every node.
    #[cfg(test)]
    pub(crate) fn render(&self) -> String {
        fn walk(tree: &SpanTree, node: &SpanNode, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let close = node
                .close_at
                .map_or("open".to_owned(), |at| format!("{}us", at.as_micros()));
            let _ = writeln!(
                out,
                "{:indent$}{} {} [{} .. {close}] events={}",
                "",
                node.level,
                node.ident,
                node.open_at.as_micros(),
                node.events,
                indent = depth * 2
            );
            for child in tree.children(node) {
                walk(tree, child, depth + 1, out);
            }
        }
        let mut out = String::new();
        for root in self.roots() {
            walk(self, root, 0, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_pure_and_level_tagged() {
        assert_eq!(job_span(0), job_span(0));
        assert_ne!(job_span(1), job_span(2));
        assert_eq!(level_of(job_span(7)), Some(SpanLevel::Job));
        assert_eq!(level_of(lane_span(2)), Some(SpanLevel::Lane));
        assert_eq!(level_of(chip_span(ChipId(9))), Some(SpanLevel::Chip));
        assert_eq!(level_of(batch_span(ChipId(9), 3)), Some(SpanLevel::Batch));
        assert_eq!(level_of(ROOT), None);
        // Distinct chips and batches never collide.
        assert_ne!(batch_span(ChipId(1), 0), batch_span(ChipId(0), 1));
        for chip in 0..16 {
            assert_eq!(lane_of(ChipId(chip)), chip % LANES);
        }
    }

    fn open(id: u64, parent: u64, level: SpanLevel, ident: u64) -> TelemetryEvent {
        TelemetryEvent::SpanOpen {
            at: SimTime::ZERO,
            id,
            parent,
            level,
            ident,
        }
    }

    fn close(id: u64, events: u64) -> TelemetryEvent {
        TelemetryEvent::SpanClose {
            at: SimTime::from_millis(1),
            id,
            events,
        }
    }

    #[test]
    fn tree_reconstructs_by_links_not_stream_order() {
        let chip0 = ChipId(0);
        // Same lane as chip 0 under LANES=4; stream order deliberately
        // scrambled — children before parents.
        let chip4 = ChipId(4);
        let events = vec![
            open(batch_span(chip0, 0), chip_span(chip0), SpanLevel::Batch, 0),
            close(batch_span(chip0, 0), 5),
            open(chip_span(chip4), lane_span(0), SpanLevel::Chip, 4),
            open(chip_span(chip0), lane_span(0), SpanLevel::Chip, 0),
            open(lane_span(0), job_span(0), SpanLevel::Lane, 0),
            open(job_span(0), ROOT, SpanLevel::Job, 0),
            close(chip_span(chip0), 6),
            close(chip_span(chip4), 9),
            close(lane_span(0), 15),
            close(job_span(0), 15),
        ];
        let tree = SpanTree::from_events(&events);
        assert_eq!(tree.len(), 5);
        let roots: Vec<&SpanNode> = tree.roots().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].level, SpanLevel::Job);
        let lane = tree.children(roots[0]).next().unwrap();
        assert_eq!(lane.level, SpanLevel::Lane);
        let chips: Vec<u64> = tree.children(lane).map(|c| c.ident).collect();
        assert_eq!(chips, vec![0, 4], "children sorted by ident");
        let chip = tree.find(chip_span(chip0)).unwrap();
        assert_eq!(chip.events, 6);
        assert_eq!(chip.close_at, Some(SimTime::from_millis(1)));
        let batch = tree.children(chip).next().unwrap();
        assert_eq!(batch.level, SpanLevel::Batch);
        let rendered = tree.render();
        assert!(rendered.contains("job 0"));
        assert!(rendered.contains("  lane 0"));
        assert!(rendered.contains("    chip 4"));
    }

    #[test]
    fn orphans_and_unclosed_spans_survive() {
        let events = vec![open(chip_span(ChipId(3)), lane_span(3), SpanLevel::Chip, 3)];
        let tree = SpanTree::from_events(&events);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.roots().count(), 1, "orphan promoted to root");
        let node = tree.find(chip_span(ChipId(3))).unwrap();
        assert_eq!(node.close_at, None);
        assert!(tree.render().contains("open"));
        assert!(SpanTree::from_events(&[]).is_empty());
    }
}
