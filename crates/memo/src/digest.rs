//! Structural digests of routing-tree subtrees.
//!
//! Two digests are computed for every node, and both are needed:
//!
//! * The **canonical digest** (128-bit) identifies the subtree up to
//!   *RC isomorphism*: sink names are excluded and the children of every
//!   branch are folded in a sorted order, so relabeling sinks or swapping
//!   the branches of a Steiner point leaves it unchanged. It is the memo
//!   table's key — structurally equal subtrees from different nets (or
//!   differently-ordered parses of the same net) share an entry.
//! * The **evaluation signature** (64-bit) folds the children in their
//!   actual left-to-right order. The DP's candidate frontier is *not*
//!   invariant under child reordering — a merged candidate inherits the
//!   left child's parity, and exact sort-key ties are broken by generation
//!   order — so a frontier may only be re-used when the evaluation order
//!   matches bit for bit. A canonical hit whose signature differs is
//!   treated as a miss; the table key stays order-invariant (satisfying
//!   the isomorphism contract) while seeding stays bitwise-exact.
//!
//! What is folded per node: sinks contribute their electrical triple
//! (capacitance, required arrival time, noise margin); branch points
//! contribute their buffer-site feasibility flag; every child edge
//! contributes the wire's `(R, C)` and the scenario's coupled current for
//! that wire (length is *excluded* — it does not enter the DP). A
//! caller-supplied 64-bit seed is folded first, so frontiers computed
//! under different optimizer configurations can never collide.
//!
//! Digests are FNV-1a with per-write length prefixes — fast, dependency
//! free, and deterministic across platforms. They are not cryptographic:
//! an adversary could construct colliding subtrees, which is acceptable
//! for a performance cache whose inputs are design data (a collision
//! sanity test over the shipped corpus backs this up).

use buffopt_noise::NoiseScenario;
use buffopt_tree::{NodeId, NodeKind, RoutingTree};

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a 64 with a length prefix per [`write`](Hasher64::write),
/// so concatenation ambiguities cannot alias two part sequences.
#[derive(Debug, Clone, Copy)]
pub struct Hasher64(u64);

impl Hasher64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Hasher64(FNV64_OFFSET)
    }

    /// Folds one length-prefixed part.
    pub fn write(&mut self, part: &[u8]) {
        for b in (part.len() as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
        for &b in part {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest of `parts`, each written in turn.
    pub fn of(parts: &[&[u8]]) -> u64 {
        let mut h = Hasher64::new();
        for part in parts {
            h.write(part);
        }
        h.finish()
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental FNV-1a 128, the canonical-digest counterpart of
/// [`Hasher64`].
#[derive(Debug, Clone, Copy)]
pub struct Hasher128(u128);

impl Hasher128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Hasher128(FNV128_OFFSET)
    }

    /// Folds one length-prefixed part.
    pub fn write(&mut self, part: &[u8]) {
        for b in (part.len() as u64).to_le_bytes() {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
        for &b in part {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-node structural digests of one routing tree, plus the postorder
/// position tables the DP integration uses to translate between
/// subtree-relative insertion coordinates and host-tree node ids.
#[derive(Debug, Clone)]
pub struct SubtreeDigests {
    /// Canonical (isomorphism-invariant) digest per node index.
    canon: Vec<u128>,
    /// Evaluation-order signature per node index.
    eval: Vec<u64>,
    /// Subtree node count (including the node itself) per node index.
    size: Vec<u32>,
    /// The tree's nodes in DFS postorder (subtrees are contiguous).
    postorder: Vec<NodeId>,
    /// Postorder position per node index.
    pos: Vec<u32>,
}

/// The payload bytes of one child edge: wire R, wire C, and the coupled
/// current injected along the wire. Wire *length* is excluded — the DP
/// never reads it.
fn edge_bytes(tree: &RoutingTree, scenario: Option<&NoiseScenario>, child: NodeId) -> [u8; 24] {
    let wire = tree
        .parent_wire(child)
        .expect("non-source child has a wire");
    let current = scenario.map_or(0.0, |s| s.wire_current(tree, child));
    let mut out = [0u8; 24];
    out[0..8].copy_from_slice(&wire.resistance.to_bits().to_le_bytes());
    out[8..16].copy_from_slice(&wire.capacitance.to_bits().to_le_bytes());
    out[16..24].copy_from_slice(&current.to_bits().to_le_bytes());
    out
}

impl SubtreeDigests {
    /// Computes digests for every node of `tree` in one postorder pass.
    ///
    /// `scenario` supplies the coupled current per wire (`None` folds zero
    /// everywhere, matching a noise-free DP run); `seed` is folded into
    /// every digest and should bind the full optimizer configuration.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` was built for a different tree.
    pub fn compute(tree: &RoutingTree, scenario: Option<&NoiseScenario>, seed: u64) -> Self {
        let n = tree.len();
        let mut canon = vec![0u128; n];
        let mut eval = vec![0u64; n];
        let mut size = vec![0u32; n];
        let mut postorder = Vec::with_capacity(n);
        let mut pos = vec![0u32; n];
        let seed_bytes = seed.to_le_bytes();
        // (edge bytes, child canon, child eval) scratch; trees are binary.
        let mut kids: Vec<([u8; 24], u128, u64)> = Vec::with_capacity(2);
        for v in tree.postorder() {
            let mut hc = Hasher128::new();
            let mut he = Hasher64::new();
            hc.write(&seed_bytes);
            he.write(&seed_bytes);
            match &tree.node(v).kind {
                NodeKind::Sink(spec) => {
                    let mut payload = [0u8; 25];
                    payload[0] = 0;
                    payload[1..9].copy_from_slice(&spec.capacitance.to_bits().to_le_bytes());
                    payload[9..17]
                        .copy_from_slice(&spec.required_arrival_time.to_bits().to_le_bytes());
                    payload[17..25].copy_from_slice(&spec.noise_margin.to_bits().to_le_bytes());
                    hc.write(&payload);
                    he.write(&payload);
                }
                kind @ (NodeKind::Source(_) | NodeKind::Internal { .. }) => {
                    // Only buffer-site feasibility matters to the DP; the
                    // driver is applied above the subtree and so stays out.
                    let payload = [1u8, u8::from(kind.is_feasible_site())];
                    hc.write(&payload);
                    he.write(&payload);
                }
            }
            kids.clear();
            let mut nodes = 1u32;
            for &c in tree.children(v) {
                kids.push((
                    edge_bytes(tree, scenario, c),
                    canon[c.index()],
                    eval[c.index()],
                ));
                nodes += size[c.index()];
            }
            // Evaluation signature: children in tree (left-to-right) order.
            for &(edge, _, child_eval) in kids.iter() {
                he.write(&edge);
                he.write(&child_eval.to_le_bytes());
            }
            // Canonical digest: children sorted by (digest, edge), so any
            // permutation of structurally-tagged children folds alike.
            kids.sort_unstable_by_key(|&(edge, child_canon, _)| (child_canon, edge));
            for &(edge, child_canon, _) in kids.iter() {
                hc.write(&edge);
                hc.write(&child_canon.to_le_bytes());
            }
            canon[v.index()] = hc.finish();
            eval[v.index()] = he.finish();
            size[v.index()] = nodes;
            pos[v.index()] = postorder.len() as u32;
            postorder.push(v);
        }
        SubtreeDigests {
            canon,
            eval,
            size,
            postorder,
            pos,
        }
    }

    /// The canonical (relabel/reorder-invariant) digest of the subtree
    /// rooted at `v`.
    #[inline]
    pub fn canonical(&self, v: NodeId) -> u128 {
        self.canon[v.index()]
    }

    /// The evaluation-order signature of the subtree rooted at `v`.
    #[inline]
    pub fn eval_sig(&self, v: NodeId) -> u64 {
        self.eval[v.index()]
    }

    /// Number of nodes in the subtree rooted at `v`, including `v`.
    #[inline]
    pub fn subtree_nodes(&self, v: NodeId) -> u32 {
        self.size[v.index()]
    }

    /// Postorder position of `v` within the whole tree.
    #[inline]
    pub fn position(&self, v: NodeId) -> u32 {
        self.pos[v.index()]
    }

    /// The nodes of the subtree rooted at `v` in postorder (`v` last).
    ///
    /// DFS postorder visits subtrees contiguously, so this is a slice of
    /// the whole-tree postorder; index `i` of the slice is the
    /// subtree-relative coordinate the memo table stores for insertions.
    pub fn subtree_slice(&self, v: NodeId) -> &[NodeId] {
        let end = self.pos[v.index()] as usize;
        let start = end + 1 - self.size[v.index()] as usize;
        &self.postorder[start..=end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_tree::{Driver, SinkSpec, TreeBuilder, Wire};
    use proptest::prelude::*;

    /// A buildable tree description; `mirror` flips child order without
    /// touching electricals, `relabel` renames sinks.
    #[derive(Debug, Clone)]
    enum Spec {
        Sink(f64, f64, f64),
        Branch(bool, Vec<(Wire, Spec)>),
    }

    impl Spec {
        fn mirror(&self) -> Spec {
            match self {
                Spec::Sink(c, q, m) => Spec::Sink(*c, *q, *m),
                Spec::Branch(f, kids) => Spec::Branch(
                    *f,
                    kids.iter().rev().map(|(w, s)| (*w, s.mirror())).collect(),
                ),
            }
        }
    }

    fn build(spec: &Spec, namer: &mut dyn FnMut() -> String) -> RoutingTree {
        fn attach(
            b: &mut TreeBuilder,
            parent: buffopt_tree::NodeId,
            wire: Wire,
            spec: &Spec,
            namer: &mut dyn FnMut() -> String,
        ) {
            match spec {
                Spec::Sink(c, q, m) => {
                    b.add_sink(parent, wire, SinkSpec::new(*c, *q, *m).with_name(namer()))
                        .expect("sink attaches");
                }
                Spec::Branch(feasible, kids) => {
                    let v = if *feasible {
                        b.add_internal(parent, wire).expect("internal attaches")
                    } else {
                        b.add_infeasible_internal(parent, wire)
                            .expect("internal attaches")
                    };
                    for (w, s) in kids {
                        attach(b, v, *w, s, namer);
                    }
                }
            }
        }
        let mut b = TreeBuilder::new(Driver::new(100.0, 1e-12));
        let src = b.source();
        match spec {
            Spec::Sink(..) => attach(&mut b, src, Wire::from_rc(10.0, 1e-15, 10.0), spec, namer),
            Spec::Branch(_, kids) => {
                for (w, s) in kids {
                    attach(&mut b, src, *w, s, namer);
                }
            }
        }
        b.build().expect("tree builds")
    }

    /// SplitMix64: a tiny deterministic generator for spec construction.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn gen_spec(state: &mut u64, depth: usize) -> Spec {
        let r = split_mix(state);
        if depth == 0 || r.is_multiple_of(3) {
            Spec::Sink(
                1e-15 * ((r >> 8) % 40) as f64,
                1e-10 * ((r >> 16) % 30) as f64,
                0.1 * (1 + (r >> 24) % 9) as f64,
            )
        } else {
            let nkids = 1 + (r >> 32) % 2;
            let kids = (0..nkids)
                .map(|_| {
                    let w = split_mix(state);
                    let wire = Wire::from_rc(
                        1.0 + (w % 100) as f64,
                        1e-16 * ((w >> 8) % 50) as f64,
                        (w >> 16) as f64 % 300.0,
                    );
                    (wire, gen_spec(state, depth - 1))
                })
                .collect();
            Spec::Branch(!r.is_multiple_of(5), kids)
        }
    }

    fn scenario_for(tree: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(tree, 0.7, 7.2e9)
    }

    fn counting_namer(prefix: &'static str) -> impl FnMut() -> String {
        let mut i = 0usize;
        move || {
            i += 1;
            format!("{prefix}{i}")
        }
    }

    #[test]
    fn hashers_are_prefix_sensitive() {
        let mut a = Hasher64::new();
        a.write(b"ab");
        a.write(b"c");
        let mut b = Hasher64::new();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes separate parts");
        let mut c = Hasher128::new();
        c.write(b"ab");
        c.write(b"c");
        let mut d = Hasher128::new();
        d.write(b"a");
        d.write(b"bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(Hasher64::of(&[b"ab", b"c"]), Hasher64::of(&[b"a", b"bc"]));
        assert_ne!(Hasher64::of(&[b"ab"]), Hasher64::of(&[b"ab", b""]));
        assert_eq!(Hasher64::of(&[b"ab", b"c"]), Hasher64::of(&[b"ab", b"c"]));
        assert_eq!(Hasher64::of(&[]), FNV64_OFFSET, "no parts, no writes");
    }

    #[test]
    fn subtree_slices_are_consistent() {
        let mut state = 77u64;
        let spec = gen_spec(&mut state, 4);
        let tree = build(&spec, &mut counting_namer("s"));
        let d = SubtreeDigests::compute(&tree, None, 0);
        for v in tree.node_ids() {
            let slice = d.subtree_slice(v);
            assert_eq!(*slice.last().expect("nonempty"), v);
            assert_eq!(slice.len() as u32, d.subtree_nodes(v));
            for (i, &u) in slice.iter().enumerate() {
                assert_eq!(
                    d.position(u) as usize,
                    d.position(*slice.first().expect("nonempty")) as usize + i
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Renaming sinks changes neither digest; mirroring children
        /// preserves the canonical digest at every node pair related by the
        /// mirror (checked at the root, where the correspondence is free).
        #[test]
        fn prop_digests_invariant_under_relabel_and_reorder(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let spec = gen_spec(&mut state, 4);
            let base = build(&spec, &mut counting_namer("a"));
            let renamed = build(&spec, &mut counting_namer("zz"));
            let mirrored = build(&spec.mirror(), &mut counting_namer("a"));
            let cfg_seed = seed ^ 0xdead_beef;
            let db = SubtreeDigests::compute(&base, Some(&scenario_for(&base)), cfg_seed);
            let dr = SubtreeDigests::compute(&renamed, Some(&scenario_for(&renamed)), cfg_seed);
            let dm = SubtreeDigests::compute(&mirrored, Some(&scenario_for(&mirrored)), cfg_seed);
            let root = base.source();
            // Sink names are not part of the structure: bitwise equal.
            prop_assert_eq!(db.canonical(root), dr.canonical(renamed.source()));
            prop_assert_eq!(db.eval_sig(root), dr.eval_sig(renamed.source()));
            // Child order is canonicalized away in the key digest.
            prop_assert_eq!(db.canonical(root), dm.canonical(mirrored.source()));
        }

        /// The config seed and the electricals are load-bearing: changing
        /// either changes the canonical digest.
        #[test]
        fn prop_digest_sensitive_to_seed_and_payload(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let spec = gen_spec(&mut state, 3);
            let tree = build(&spec, &mut counting_namer("a"));
            let s = scenario_for(&tree);
            let d1 = SubtreeDigests::compute(&tree, Some(&s), 1);
            let d2 = SubtreeDigests::compute(&tree, Some(&s), 2);
            prop_assert_ne!(d1.canonical(tree.source()), d2.canonical(tree.source()));
            // Perturb one sink's capacitance through a rebuilt spec.
            fn bump_first_sink(spec: &Spec) -> (Spec, bool) {
                match spec {
                    Spec::Sink(c, q, m) => (Spec::Sink(c + 1e-15, *q, *m), true),
                    Spec::Branch(f, kids) => {
                        let mut done = false;
                        let kids = kids
                            .iter()
                            .map(|(w, s)| {
                                if done {
                                    (*w, s.clone())
                                } else {
                                    let (s2, hit) = bump_first_sink(s);
                                    done = hit;
                                    (*w, s2)
                                }
                            })
                            .collect();
                        (Spec::Branch(*f, kids), done)
                    }
                }
            }
            let (bumped, _) = bump_first_sink(&spec);
            let t2 = build(&bumped, &mut counting_namer("a"));
            let d3 = SubtreeDigests::compute(&t2, Some(&scenario_for(&t2)), 1);
            prop_assert_ne!(d1.canonical(tree.source()), d3.canonical(t2.source()));
        }
    }
}
