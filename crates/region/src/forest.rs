//! The region forest: index spaces, partitions, and disjointness queries.

use crate::field::FieldSpaceDesc;
use crate::ids::{FieldSpaceId, IndexPartitionId, IndexSpaceId, LogicalRegion, RegionTreeId};
use il_geometry::{Domain, DomainPoint, Rect};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Why a partition create/replace request was rejected.
///
/// Partition operators historically panicked on ill-formed requests; the
/// adaptive (AMR-style) workloads replace partitions while a forest is
/// live, so every rejection is now a recoverable value first and a panic
/// only at the legacy `create_partition` entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The operator requires a dense rectangular space of a specific rank.
    WrongShape {
        /// What the operator needed (e.g. "dense 1-D").
        expected: &'static str,
        /// What the space actually was.
        found: String,
    },
    /// A color lies outside the declared color space.
    ColorOutsideSpace {
        /// The offending color.
        color: DomainPoint,
    },
    /// A subspace escapes the parent's domain.
    EscapesParent {
        /// The color whose subspace escapes.
        color: DomainPoint,
    },
    /// The same color appears twice in the coloring.
    DuplicateColor {
        /// The repeated color.
        color: DomainPoint,
    },
    /// A coloring declared `Disjointness::Disjoint` overlaps.
    NotDisjoint,
    /// Replacing the partition would orphan a nested partition hanging off
    /// a dropped subspace (a stale slice tree).
    WouldOrphanSubtree {
        /// The dropped color that still has nested partitions.
        color: DomainPoint,
    },
    /// The id passed to `replace_partition` names no partition.
    NoSuchPartition,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::WrongShape { expected, found } => {
                write!(f, "requires a {expected} space, found {found}")
            }
            PartitionError::ColorOutsideSpace { color } => {
                write!(f, "color {color:?} outside color space")
            }
            PartitionError::EscapesParent { color } => {
                write!(f, "subspace for color {color:?} escapes parent domain")
            }
            PartitionError::DuplicateColor { color } => {
                write!(f, "duplicate color {color:?}")
            }
            PartitionError::NotDisjoint => {
                write!(f, "partition declared disjoint but subspaces overlap")
            }
            PartitionError::WouldOrphanSubtree { color } => {
                write!(
                    f,
                    "replacement drops color {color:?} whose subspace still has nested partitions"
                )
            }
            PartitionError::NoSuchPartition => write!(f, "no such partition"),
        }
    }
}

/// An empty domain of the same rank as `d` (tombstone for dropped
/// subspaces: empty domains are disjoint from everything).
fn empty_domain_like(d: &Domain) -> Domain {
    match d.dim() {
        2 => Domain::Rect2(Rect::empty()),
        3 => Domain::Rect3(Rect::empty()),
        _ => Domain::Rect1(Rect::empty()),
    }
}

/// How a partition's disjointness is established at creation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disjointness {
    /// The creating operator guarantees disjointness (e.g. equal block
    /// partitions); trusted without verification.
    Disjoint,
    /// The partition is (or may be) aliased.
    Aliased,
    /// Verify disjointness now by pairwise subspace intersection. The paper
    /// assumes "the compiler and runtime have a procedure for determining
    /// the disjointness of partitions" (§2); this is that procedure.
    Compute,
}

/// A node of the index-space tree: a set of points, possibly a subspace of
/// a parent partition.
#[derive(Clone, Debug)]
pub struct IndexSpaceNode {
    /// This space's id.
    pub id: IndexSpaceId,
    /// The points of the space.
    pub domain: Domain,
    /// The partition and color this space was created under (None for
    /// roots).
    pub parent: Option<(IndexPartitionId, DomainPoint)>,
    /// Partitions of this space.
    pub partitions: Vec<IndexPartitionId>,
    /// Depth in the tree (roots are 0; a subspace is parent depth + 1).
    pub depth: u32,
}

/// A partition node: a coloring of a parent space into subspaces.
#[derive(Clone, Debug)]
pub struct IndexPartitionNode {
    /// This partition's id.
    pub id: IndexPartitionId,
    /// The space being partitioned.
    pub parent: IndexSpaceId,
    /// The color space naming the subsets.
    pub color_space: Domain,
    /// Color → subspace.
    pub children: BTreeMap<DomainPoint, IndexSpaceId>,
    /// True iff subspaces are pairwise disjoint.
    pub disjoint: bool,
}

/// The region forest: owner of all shape metadata.
///
/// Under dynamic control replication every node of the machine replays the
/// same program and therefore constructs identical metadata; the simulation
/// shares a single forest among the simulated runtime instances, which is
/// behaviorally equivalent and keeps memory bounded.
#[derive(Clone, Debug, Default)]
pub struct RegionForest {
    spaces: Vec<IndexSpaceNode>,
    partitions: Vec<IndexPartitionNode>,
    field_spaces: Vec<FieldSpaceDesc>,
    tree_roots: Vec<IndexSpaceId>,
    /// Bumped whenever existing shape metadata is *mutated in place*
    /// (partition replacement). Appending new spaces/partitions does not
    /// bump it: fresh ids cannot collide with anything previously cached.
    /// Launch signatures mix this in, so analysis caches and captured
    /// traces keyed on a replaced partition id are invalidated rather than
    /// silently reused against the new coloring.
    generation: u64,
    /// Content digest of each partition (see [`Self::partition_digest`]),
    /// computed on first use and cleared when the partition is replaced,
    /// so building a program pays nothing for it.
    digests: Vec<OnceLock<u64>>,
}

impl RegionForest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a field space.
    pub fn create_field_space(&mut self, desc: FieldSpaceDesc) -> FieldSpaceId {
        let id = FieldSpaceId(self.field_spaces.len() as u32);
        self.field_spaces.push(desc);
        id
    }

    /// The description of a field space.
    pub fn field_space(&self, id: FieldSpaceId) -> &FieldSpaceDesc {
        &self.field_spaces[id.0 as usize]
    }

    /// Create a root index space over `domain`.
    pub fn create_index_space(&mut self, domain: Domain) -> IndexSpaceId {
        let id = IndexSpaceId(self.spaces.len() as u32);
        self.spaces.push(IndexSpaceNode {
            id,
            domain,
            parent: None,
            partitions: Vec::new(),
            depth: 0,
        });
        id
    }

    /// Create a top-level logical region (a new region tree) over `domain`
    /// with fields `fields`.
    pub fn create_region(&mut self, domain: Domain, fields: FieldSpaceId) -> LogicalRegion {
        let space = self.create_index_space(domain);
        let tree = RegionTreeId(self.tree_roots.len() as u32);
        self.tree_roots.push(space);
        LogicalRegion { tree, space, fields }
    }

    /// The root index space of a region tree.
    pub fn tree_root(&self, tree: RegionTreeId) -> IndexSpaceId {
        self.tree_roots[tree.0 as usize]
    }

    /// Partition `parent` by an explicit coloring. Subspace domains need
    /// not cover the parent and (for aliased partitions) may overlap, but
    /// must be contained in the parent's domain.
    ///
    /// # Panics
    /// Panics if a subspace escapes the parent domain, if a color is
    /// repeated or outside `color_space`, or if `Disjointness::Disjoint`
    /// is declared for an overlapping coloring in debug builds.
    pub fn create_partition(
        &mut self,
        parent: IndexSpaceId,
        color_space: Domain,
        coloring: Vec<(DomainPoint, Domain)>,
        disjointness: Disjointness,
    ) -> IndexPartitionId {
        if let Err(e) = self.validate_coloring(parent, &color_space, &coloring) {
            let parent_domain = &self.spaces[parent.0 as usize].domain;
            panic!("{e} (parent domain {parent_domain:?}, color space {color_space:?})");
        }
        let disjoint = match disjointness {
            Disjointness::Disjoint => {
                debug_assert!(
                    coloring_is_disjoint(&coloring),
                    "partition declared disjoint but subspaces overlap"
                );
                true
            }
            Disjointness::Aliased => false,
            Disjointness::Compute => coloring_is_disjoint(&coloring),
        };
        self.insert_partition(parent, color_space, coloring, disjoint)
    }

    /// Non-panicking [`Self::create_partition`]: every ill-formed request
    /// is a [`PartitionError`]. Unlike the legacy entry point, a coloring
    /// declared `Disjointness::Disjoint` is *always* verified (not only in
    /// debug builds) — a caller reaching for the fallible API wants the
    /// forest to defend itself.
    pub fn try_create_partition(
        &mut self,
        parent: IndexSpaceId,
        color_space: Domain,
        coloring: Vec<(DomainPoint, Domain)>,
        disjointness: Disjointness,
    ) -> Result<IndexPartitionId, PartitionError> {
        self.validate_coloring(parent, &color_space, &coloring)?;
        let disjoint = match disjointness {
            Disjointness::Disjoint => {
                if !coloring_is_disjoint(&coloring) {
                    return Err(PartitionError::NotDisjoint);
                }
                true
            }
            Disjointness::Aliased => false,
            Disjointness::Compute => coloring_is_disjoint(&coloring),
        };
        Ok(self.insert_partition(parent, color_space, coloring, disjoint))
    }

    /// Replace the coloring of an existing partition **in place**, keeping
    /// its id and its parent space.
    ///
    /// This is the forest half of adaptive mesh refinement: a program (or
    /// a long-lived service tenant) refines or coarsens a partition and
    /// every later launch that names the same [`IndexPartitionId`] sees
    /// the new subspaces. The replacement is staleness-free by
    /// construction:
    ///
    /// * colors present in both colorings keep their [`IndexSpaceId`] and
    ///   only their domain changes — references held by earlier program
    ///   structures stay valid;
    /// * colors only in the new coloring get fresh subspaces;
    /// * dropped colors are detached from the partition and their domains
    ///   are emptied (an empty domain is disjoint from everything, so any
    ///   stale reference reads as "no data" instead of stale bounds);
    /// * dropping a color whose subspace still has nested partitions is
    ///   refused ([`PartitionError::WouldOrphanSubtree`]) — that subtree
    ///   would otherwise silently keep slicing the old bounds;
    /// * the forest [`Self::generation`] is bumped so launch signatures
    ///   (and with them the analysis cache and captured traces) can never
    ///   conflate the old and new shape of the same partition id.
    pub fn replace_partition(
        &mut self,
        partition: IndexPartitionId,
        color_space: Domain,
        coloring: Vec<(DomainPoint, Domain)>,
        disjointness: Disjointness,
    ) -> Result<(), PartitionError> {
        if partition.0 as usize >= self.partitions.len() {
            return Err(PartitionError::NoSuchPartition);
        }
        let parent = self.partitions[partition.0 as usize].parent;
        self.validate_coloring(parent, &color_space, &coloring)?;
        let disjoint = match disjointness {
            Disjointness::Disjoint => {
                if !coloring_is_disjoint(&coloring) {
                    return Err(PartitionError::NotDisjoint);
                }
                true
            }
            Disjointness::Aliased => false,
            Disjointness::Compute => coloring_is_disjoint(&coloring),
        };
        // Refuse to drop a color whose subspace roots a nested subtree.
        let old_children = self.partitions[partition.0 as usize].children.clone();
        let new_colors: std::collections::BTreeSet<DomainPoint> =
            coloring.iter().map(|(c, _)| *c).collect();
        for (color, &sid) in &old_children {
            if !new_colors.contains(color) && !self.spaces[sid.0 as usize].partitions.is_empty() {
                return Err(PartitionError::WouldOrphanSubtree { color: *color });
            }
        }

        let parent_depth = self.spaces[parent.0 as usize].depth;
        let mut children = BTreeMap::new();
        for (color, sub) in coloring {
            if let Some(&sid) = old_children.get(&color) {
                // Retained color: update the domain in place, id stable.
                self.spaces[sid.0 as usize].domain = sub;
                children.insert(color, sid);
            } else {
                let sid = IndexSpaceId(self.spaces.len() as u32);
                self.spaces.push(IndexSpaceNode {
                    id: sid,
                    domain: sub,
                    parent: Some((partition, color)),
                    partitions: Vec::new(),
                    depth: parent_depth + 1,
                });
                children.insert(color, sid);
            }
        }
        for (color, &sid) in &old_children {
            if !new_colors.contains(color) {
                let empty = empty_domain_like(&self.spaces[sid.0 as usize].domain);
                self.spaces[sid.0 as usize].domain = empty;
            }
        }
        let node = &mut self.partitions[partition.0 as usize];
        node.color_space = color_space;
        node.children = children;
        node.disjoint = disjoint;
        self.digests[partition.0 as usize] = OnceLock::new();
        self.generation += 1;
        Ok(())
    }

    /// Mutation generation of the forest: bumped by every in-place
    /// metadata replacement (see [`Self::replace_partition`]). Mixed into
    /// launch signatures so nothing keyed on shape survives a replacement.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn validate_coloring(
        &self,
        parent: IndexSpaceId,
        color_space: &Domain,
        coloring: &[(DomainPoint, Domain)],
    ) -> Result<(), PartitionError> {
        let parent_domain = &self.spaces[parent.0 as usize].domain;
        let mut seen = std::collections::BTreeSet::new();
        for (color, sub) in coloring {
            if !color_space.contains(*color) {
                return Err(PartitionError::ColorOutsideSpace { color: *color });
            }
            if !domain_contains(parent_domain, sub) {
                return Err(PartitionError::EscapesParent { color: *color });
            }
            if !seen.insert(*color) {
                return Err(PartitionError::DuplicateColor { color: *color });
            }
        }
        Ok(())
    }

    fn insert_partition(
        &mut self,
        parent: IndexSpaceId,
        color_space: Domain,
        coloring: Vec<(DomainPoint, Domain)>,
        disjoint: bool,
    ) -> IndexPartitionId {
        let parent_depth = self.spaces[parent.0 as usize].depth;
        let pid = IndexPartitionId(self.partitions.len() as u32);
        let mut children = BTreeMap::new();
        for (color, sub) in coloring {
            let sid = IndexSpaceId(self.spaces.len() as u32);
            self.spaces.push(IndexSpaceNode {
                id: sid,
                domain: sub,
                parent: Some((pid, color)),
                partitions: Vec::new(),
                depth: parent_depth + 1,
            });
            children.insert(color, sid);
        }
        self.partitions.push(IndexPartitionNode {
            id: pid,
            parent,
            color_space,
            children,
            disjoint,
        });
        self.spaces[parent.0 as usize].partitions.push(pid);
        self.digests.push(OnceLock::new());
        pid
    }

    /// Hash of a partition's content: its parent space, color space, every
    /// color's subspace domain, and disjointness.
    fn digest(&self, id: IndexPartitionId) -> u64 {
        let node = &self.partitions[id.0 as usize];
        let mut h = std::collections::hash_map::DefaultHasher::new();
        node.parent.hash(&mut h);
        node.color_space.hash(&mut h);
        for (color, &sub) in &node.children {
            color.hash(&mut h);
            self.spaces[sub.0 as usize].domain.hash(&mut h);
        }
        node.disjoint.hash(&mut h);
        h.finish()
    }

    /// Content digest of a partition, kept current across
    /// [`Self::replace_partition`]. Equal ids in two forests name the same
    /// coloring only if their digests agree too, which is what lets
    /// analysis state keyed by launch shape move between programs.
    pub fn partition_digest(&self, id: IndexPartitionId) -> u64 {
        *self.digests[id.0 as usize].get_or_init(|| self.digest(id))
    }

    /// The node for an index space.
    pub fn space(&self, id: IndexSpaceId) -> &IndexSpaceNode {
        &self.spaces[id.0 as usize]
    }

    /// The node for a partition.
    pub fn partition(&self, id: IndexPartitionId) -> &IndexPartitionNode {
        &self.partitions[id.0 as usize]
    }

    /// The domain of an index space.
    pub fn domain(&self, id: IndexSpaceId) -> &Domain {
        &self.spaces[id.0 as usize].domain
    }

    /// The subspace of `partition` named by `color`.
    ///
    /// # Panics
    /// Panics when `color` has no subspace (the dynamic bounds check of the
    /// projection-functor analysis exists precisely to rule this out before
    /// execution).
    pub fn subspace(&self, partition: IndexPartitionId, color: DomainPoint) -> IndexSpaceId {
        *self.partitions[partition.0 as usize]
            .children
            .get(&color)
            .unwrap_or_else(|| panic!("color {color:?} not in partition {partition:?}"))
    }

    /// The subspace for `color`, or `None` if absent (used by the dynamic
    /// bounds check).
    pub fn try_subspace(&self, partition: IndexPartitionId, color: DomainPoint) -> Option<IndexSpaceId> {
        self.partitions[partition.0 as usize].children.get(&color).copied()
    }

    /// True iff the partition's subspaces are pairwise disjoint.
    pub fn is_disjoint(&self, partition: IndexPartitionId) -> bool {
        self.partitions[partition.0 as usize].disjoint
    }

    /// The region tree a space belongs to (by walking to its root).
    pub fn tree_of_space(&self, mut space: IndexSpaceId) -> IndexSpaceId {
        while let Some((pid, _)) = self.spaces[space.0 as usize].parent {
            space = self.partitions[pid.0 as usize].parent;
        }
        space
    }

    /// Path of `(partition, color)` edges from `space` up to its root
    /// (nearest first).
    fn ancestry(&self, space: IndexSpaceId) -> Vec<(IndexPartitionId, DomainPoint, IndexSpaceId)> {
        let mut out = Vec::new();
        let mut cur = space;
        while let Some((pid, color)) = self.spaces[cur.0 as usize].parent {
            let parent = self.partitions[pid.0 as usize].parent;
            out.push((pid, color, parent));
            cur = parent;
        }
        out
    }

    /// Whether two index spaces are **provably disjoint**.
    ///
    /// This first attempts the structural proof Legion's logical analysis
    /// uses — the spaces diverge at a *disjoint* partition with different
    /// colors — and otherwise falls back to an exact domain-intersection
    /// test. The structural path is what gives index launches their
    /// whole-partition O(1) reasoning; the fallback keeps the answer exact
    /// for aliased partitions and cross-partition views.
    pub fn spaces_disjoint(&self, a: IndexSpaceId, b: IndexSpaceId) -> bool {
        if a == b {
            return self.spaces[a.0 as usize].domain.is_empty();
        }
        if self.tree_of_space(a) != self.tree_of_space(b) {
            return true; // distinct collections share no data
        }
        // Structural proof: find the first common ancestor edge pair.
        let pa = self.ancestry(a);
        let pb = self.ancestry(b);
        // Map ancestor space -> (partition, color) taken from `a`'s side,
        // keyed by the partition edge *below* that ancestor.
        for (pid_a, color_a, anc_a) in &pa {
            for (pid_b, color_b, anc_b) in &pb {
                if anc_a == anc_b && pid_a == pid_b
                    && color_a != color_b && self.partitions[pid_a.0 as usize].disjoint {
                        return true;
                    }
                    // Same color or aliased: inconclusive structurally.
            }
        }
        // One may be an ancestor of the other, or they diverge through
        // aliased/different partitions: exact domain test.
        !domains_overlap(
            &self.spaces[a.0 as usize].domain,
            &self.spaces[b.0 as usize].domain,
        )
    }

    /// Whether two logical regions are provably disjoint (different trees,
    /// or disjoint index spaces).
    pub fn regions_disjoint(&self, a: &LogicalRegion, b: &LogicalRegion) -> bool {
        if a.tree != b.tree {
            return true;
        }
        self.spaces_disjoint(a.space, b.space)
    }

    /// Number of index spaces (diagnostics).
    pub fn num_spaces(&self) -> usize {
        self.spaces.len()
    }

    /// Number of partitions (diagnostics).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
}

/// True iff every point of `sub` lies in `sup`.
fn domain_contains(sup: &Domain, sub: &Domain) -> bool {
    if sub.is_empty() {
        return true;
    }
    match (sup, sub) {
        (Domain::Rect1(a), Domain::Rect1(b)) => a.contains_rect(b),
        (Domain::Rect2(a), Domain::Rect2(b)) => a.contains_rect(b),
        (Domain::Rect3(a), Domain::Rect3(b)) => a.contains_rect(b),
        _ => sub.iter().all(|p| sup.contains(p)),
    }
}

/// Exact overlap test between two domains.
pub fn domains_overlap(a: &Domain, b: &Domain) -> bool {
    if a.is_empty() || b.is_empty() || a.dim() != b.dim() {
        return false;
    }
    match (a, b) {
        (Domain::Rect1(x), Domain::Rect1(y)) => x.overlaps(y),
        (Domain::Rect2(x), Domain::Rect2(y)) => x.overlaps(y),
        (Domain::Rect3(x), Domain::Rect3(y)) => x.overlaps(y),
        (Domain::Sparse { .. }, _) => a.iter().any(|p| b.contains(p)),
        (_, Domain::Sparse { .. }) => b.iter().any(|p| a.contains(p)),
        // Mixed dense ranks: unreachable (ranks already checked equal).
        _ => false,
    }
}

/// Exact intersection of two domains as a domain, or `None` when empty.
/// Dense intersections stay dense; intersections involving a sparse
/// domain enumerate points.
pub fn domain_intersection(a: &Domain, b: &Domain) -> Option<Domain> {
    if a.is_empty() || b.is_empty() || a.dim() != b.dim() {
        return None;
    }
    match (a, b) {
        (Domain::Rect1(x), Domain::Rect1(y)) => {
            let i = x.intersection(y);
            (!i.is_empty()).then_some(Domain::Rect1(i))
        }
        (Domain::Rect2(x), Domain::Rect2(y)) => {
            let i = x.intersection(y);
            (!i.is_empty()).then_some(Domain::Rect2(i))
        }
        (Domain::Rect3(x), Domain::Rect3(y)) => {
            let i = x.intersection(y);
            (!i.is_empty()).then_some(Domain::Rect3(i))
        }
        (Domain::Sparse { .. }, _) => {
            let pts: Vec<DomainPoint> = a.iter().filter(|p| b.contains(*p)).collect();
            (!pts.is_empty()).then(|| Domain::sparse(pts))
        }
        (_, Domain::Sparse { .. }) => {
            let pts: Vec<DomainPoint> = b.iter().filter(|p| a.contains(*p)).collect();
            (!pts.is_empty()).then(|| Domain::sparse(pts))
        }
        _ => None,
    }
}

/// Exact number of points shared by two domains (drives copy sizes in
/// the runtime's data-movement model).
pub fn overlap_volume(a: &Domain, b: &Domain) -> u64 {
    if a.is_empty() || b.is_empty() || a.dim() != b.dim() {
        return 0;
    }
    match (a, b) {
        (Domain::Rect1(x), Domain::Rect1(y)) => x.intersection(y).volume(),
        (Domain::Rect2(x), Domain::Rect2(y)) => x.intersection(y).volume(),
        (Domain::Rect3(x), Domain::Rect3(y)) => x.intersection(y).volume(),
        (Domain::Sparse { .. }, _) => a.iter().filter(|p| b.contains(*p)).count() as u64,
        (_, Domain::Sparse { .. }) => b.iter().filter(|p| a.contains(*p)).count() as u64,
        _ => 0,
    }
}

fn coloring_is_disjoint(coloring: &[(DomainPoint, Domain)]) -> bool {
    // BVH-pruned pairwise test: bounding-box candidates first, the exact
    // domain-overlap test only on those. The naive all-pairs loop is
    // Θ(n²) even when every sub-collection is disjoint — at 10⁵+ colors
    // (graph-scale partitions) that is minutes of host time for a check
    // whose answer is almost always "yes, disjoint".
    let mut bvh: crate::BvhSet<usize> = crate::BvhSet::new();
    let mut candidates = Vec::new();
    for (i, (_, a)) in coloring.iter().enumerate() {
        let boxes = crate::coverage_boxes(a);
        candidates.clear();
        for b in &boxes {
            bvh.query(b, &mut candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for &j in &candidates {
            if domains_overlap(a, &coloring[j].1) {
                return false;
            }
        }
        for b in boxes {
            bvh.insert(b, i);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use il_geometry::Rect;

    fn forest_with_region(n: i64) -> (RegionForest, LogicalRegion) {
        let mut f = RegionForest::new();
        let fs = f.create_field_space(FieldSpaceDesc::new());
        let r = f.create_region(Domain::range(n), fs);
        (f, r)
    }

    fn block_coloring(n: i64, parts: i64) -> Vec<(DomainPoint, Domain)> {
        let size = n / parts;
        (0..parts)
            .map(|c| {
                (
                    DomainPoint::new1(c),
                    Domain::Rect1(Rect::new1(c * size, (c + 1) * size - 1)),
                )
            })
            .collect()
    }

    #[test]
    fn build_disjoint_partition() {
        let (mut f, r) = forest_with_region(100);
        let p = f.create_partition(
            r.space,
            Domain::range(4),
            block_coloring(100, 4),
            Disjointness::Compute,
        );
        assert!(f.is_disjoint(p));
        let s0 = f.subspace(p, DomainPoint::new1(0));
        let s1 = f.subspace(p, DomainPoint::new1(1));
        assert_eq!(f.domain(s0), &Domain::Rect1(Rect::new1(0, 24)));
        assert!(f.spaces_disjoint(s0, s1));
        assert!(!f.spaces_disjoint(s0, r.space)); // child overlaps parent
        assert_eq!(f.try_subspace(p, DomainPoint::new1(9)), None);
    }

    #[test]
    fn aliased_partition_overlap_detected() {
        let (mut f, r) = forest_with_region(100);
        // Halo-style: blocks of 25 extended by 5 on each side.
        let coloring: Vec<_> = (0..4i64)
            .map(|c| {
                let lo = (c * 25 - 5).max(0);
                let hi = ((c + 1) * 25 + 4).min(99);
                (DomainPoint::new1(c), Domain::Rect1(Rect::new1(lo, hi)))
            })
            .collect();
        let p = f.create_partition(r.space, Domain::range(4), coloring, Disjointness::Compute);
        assert!(!f.is_disjoint(p));
        let s0 = f.subspace(p, DomainPoint::new1(0));
        let s1 = f.subspace(p, DomainPoint::new1(1));
        let s2 = f.subspace(p, DomainPoint::new1(2));
        assert!(!f.spaces_disjoint(s0, s1)); // halos overlap
        assert!(f.spaces_disjoint(s0, s2)); // far apart: exact test succeeds
    }

    #[test]
    fn cross_partition_views() {
        let (mut f, r) = forest_with_region(100);
        let blocks = f.create_partition(
            r.space,
            Domain::range(4),
            block_coloring(100, 4),
            Disjointness::Disjoint,
        );
        // A second, shifted view of the same data.
        let shifted: Vec<_> = (0..4i64)
            .map(|c| {
                let lo = (c * 25 + 10).min(99);
                let hi = ((c + 1) * 25 + 9).min(99);
                (DomainPoint::new1(c), Domain::Rect1(Rect::new1(lo, hi)))
            })
            .collect();
        let shift = f.create_partition(r.space, Domain::range(4), shifted, Disjointness::Compute);
        let b0 = f.subspace(blocks, DomainPoint::new1(0)); // [0,24]
        let sh0 = f.subspace(shift, DomainPoint::new1(0)); // [10,34]
        let sh3 = f.subspace(shift, DomainPoint::new1(3)); // [85,99]
        assert!(!f.spaces_disjoint(b0, sh0));
        assert!(f.spaces_disjoint(b0, sh3));
    }

    #[test]
    fn different_trees_always_disjoint() {
        let mut f = RegionForest::new();
        let fs = f.create_field_space(FieldSpaceDesc::new());
        let r1 = f.create_region(Domain::range(10), fs);
        let r2 = f.create_region(Domain::range(10), fs);
        assert!(f.regions_disjoint(&r1, &r2));
        assert!(f.spaces_disjoint(r1.space, r2.space));
        assert!(!f.regions_disjoint(&r1, &r1));
    }

    #[test]
    fn nested_partitions() {
        let (mut f, r) = forest_with_region(100);
        let outer = f.create_partition(
            r.space,
            Domain::range(2),
            block_coloring(100, 2),
            Disjointness::Disjoint,
        );
        let left = f.subspace(outer, DomainPoint::new1(0)); // [0,49]
        let inner = f.create_partition(
            left,
            Domain::range(2),
            vec![
                (DomainPoint::new1(0), Domain::Rect1(Rect::new1(0, 24))),
                (DomainPoint::new1(1), Domain::Rect1(Rect::new1(25, 49))),
            ],
            Disjointness::Disjoint,
        );
        let ll = f.subspace(inner, DomainPoint::new1(0));
        let right = f.subspace(outer, DomainPoint::new1(1)); // [50,99]
        // Structural proof through the disjoint outer partition.
        assert!(f.spaces_disjoint(ll, right));
        assert_eq!(f.space(ll).depth, 2);
        assert_eq!(f.tree_of_space(ll), r.space);
    }

    #[test]
    #[should_panic(expected = "escapes parent domain")]
    fn escaping_subspace_rejected() {
        let (mut f, r) = forest_with_region(10);
        f.create_partition(
            r.space,
            Domain::range(1),
            vec![(DomainPoint::new1(0), Domain::Rect1(Rect::new1(5, 15)))],
            Disjointness::Aliased,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate color")]
    fn duplicate_color_rejected() {
        let (mut f, r) = forest_with_region(10);
        f.create_partition(
            r.space,
            Domain::range(2),
            vec![
                (DomainPoint::new1(0), Domain::Rect1(Rect::new1(0, 4))),
                (DomainPoint::new1(0), Domain::Rect1(Rect::new1(5, 9))),
            ],
            Disjointness::Aliased,
        );
    }

    #[test]
    fn sparse_domain_overlap() {
        let a = Domain::sparse(vec![DomainPoint::new2(0, 0), DomainPoint::new2(1, 1)]);
        let b = Domain::sparse(vec![DomainPoint::new2(1, 1)]);
        let c = Domain::sparse(vec![DomainPoint::new2(2, 2)]);
        assert!(domains_overlap(&a, &b));
        assert!(!domains_overlap(&a, &c));
        let dense: Domain = Rect::new2((0, 0), (0, 5)).into();
        assert!(domains_overlap(&a, &dense));
        assert!(!domains_overlap(&c, &dense));
    }
}
