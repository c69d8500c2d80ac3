//! Work units: the deduplicated, content-addressed unit of solver work.
//!
//! A grounded plan asks for one marginal probability per qualifying session,
//! but many sessions share both their ranking model and their pattern union
//! (Section 6.4 of the paper). The engine therefore reduces a plan to
//! **work units** before solving: each unit is identified by a [`UnitKey`]
//! that captures the *content* of the instance — the Mallows model
//! parameters and the union's patterns with every node selector resolved to
//! its candidate item set. Two sessions map to the same unit exactly when
//! the solvers would compute the same number for them, no matter which query
//! produced them or how their labels were interned.
//!
//! The key also carries a stable (FNV-1a) hash from which the unit's RNG
//! seed is derived, so approximate estimates depend only on the instance
//! content and the engine's base seed — never on session order, grouping, or
//! the thread that happens to run the unit.
//!
//! Planning a warm query is mapping each session to its cached unit, so
//! the per-session share of that work is kept to what depends on the
//! session:
//! - **Item sets are sorted once**, when the session is built
//!   (`Session::sorted_items`). The [`UnionResolver`] matches a session to
//!   an item set it has already resolved by comparing those slices, and
//!   resolves selectors against the same slice.
//! - **Each union's hash is folded once per low byte.** A unit's hash is
//!   the model hash `h` folded on through the union's fixed byte stream of
//!   length `n`, and that fold is `Pⁿ·h + C(h mod 256)` exactly, in
//!   wrapping arithmetic (`P` the FNV prime). Proof, one step at a time:
//!   `(h ⊕ b)·P = (h + d)·P` with `d = (h ⊕ b) − h`, and `d` depends only
//!   on the low byte of `h`, since `⊕ b` changes nothing above it; the low
//!   byte of a product depends only on the factors' low bytes, so every
//!   step's `d` follows from `h mod 256`, and by induction the whole fold
//!   is `Pⁿ·h` plus a term that does too. A resolved union records
//!   `C = fold(h) − Pⁿ·h` the first time it folds a model hash with a given
//!   low byte; every later unit with that low byte costs one multiply and
//!   one add.

use crate::session::{fnv1a_extend, model_key_fold, Session, FNV_PRIME};
use ppd_patterns::{Labeling, Pattern, PatternUnion};
use ppd_rim::Item;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// A node selector resolved to the sorted set of items it matches.
type CanonicalNode = Vec<Item>;

/// A pattern with its selectors resolved: candidate sets plus DAG edges.
type CanonicalPattern = (Vec<CanonicalNode>, Vec<(usize, usize)>);

/// Content identity of one work unit: the session's model parameters plus
/// the canonicalized pattern union.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// The model content: centre ranking items and dispersion bits.
    model_key: (Vec<Item>, u64),
    /// Canonical patterns, sorted and deduplicated; shared by every unit
    /// whose union resolved to them.
    patterns: Arc<[CanonicalPattern]>,
}

/// One deduplicated piece of solver work: the key, the union to hand to the
/// solver (members reordered into canonical order so estimates cannot depend
/// on the order the query grounding happened to emit), and the index of a
/// session that exhibits the unit's model.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Content identity of the unit.
    pub key: UnitKey,
    /// The union to solve, in canonical member order; shared by every unit
    /// of the plan that differs only in its model.
    pub union: Arc<PatternUnion>,
    /// Index (within the p-relation) of the first session that produced this
    /// unit; its model is the unit's model.
    pub session_index: usize,
}

impl UnitKey {
    /// The key of one session's union under a plan's labeling, along with
    /// the union to hand to the solver: the original patterns in canonical
    /// order, duplicates dropped. A plan of one: the engine plans many
    /// sessions through one resolver, which does the union's share of this
    /// once for all of them.
    pub fn new(
        session: &Session,
        union: &PatternUnion,
        labeling: &Labeling,
    ) -> (Self, Arc<PatternUnion>) {
        let mut resolver = UnionResolver::default();
        let resolved = resolver.resolve(union, labeling, session.sorted_items());
        (resolved.key_for(session), Arc::clone(&resolved.ordered))
    }

    /// A stable FNV-1a hash of the key's content. Identical across
    /// processes, platforms, and toolchain versions. The model part is
    /// [`Session::model_key_hash`].
    pub fn stable_hash(&self) -> u64 {
        fold_patterns(
            model_key_fold(&self.model_key.0, self.model_key.1),
            &self.patterns,
        )
    }

    /// Derives the unit's RNG seed from the engine's base seed and the key's
    /// content hash (finalized with SplitMix64 so that nearby hashes yield
    /// unrelated seeds). This replaces the old plan-iteration-order salt:
    /// estimates no longer change when sessions are reordered or grouping is
    /// toggled.
    pub fn seed(&self, base_seed: u64) -> u64 {
        UnitKey::seed_from_stable_hash(self.stable_hash(), base_seed)
    }

    /// [`UnitKey::seed`] for callers that already hold the key's
    /// [`UnitKey::stable_hash`] — the engine computes that hash once per
    /// request for cache addressing and reuses it here rather than walking
    /// the key content again.
    pub(crate) fn seed_from_stable_hash(stable_hash: u64, base_seed: u64) -> u64 {
        splitmix64(base_seed ^ stable_hash)
    }
}

/// Hands `emit` the bytes the union part of [`UnitKey::stable_hash`] folds,
/// in order, a few at a time.
fn pattern_bytes(patterns: &[CanonicalPattern], mut emit: impl FnMut(&[u8])) {
    for (nodes, edges) in patterns {
        emit(b"pattern");
        for node in nodes {
            emit(b"node");
            for &item in node {
                emit(&item.to_le_bytes());
            }
        }
        for &(from, to) in edges {
            emit(&(from as u64).to_le_bytes());
            emit(&(to as u64).to_le_bytes());
        }
    }
}

/// Continues a model-key hash over canonical patterns: the union part of
/// [`UnitKey::stable_hash`].
fn fold_patterns(mut h: u64, patterns: &[CanonicalPattern]) -> u64 {
    pattern_bytes(patterns, |bytes| h = fnv1a_extend(h, bytes));
    h
}

/// [`fold_patterns`] over one union's patterns, for many model hashes: the
/// fold identity of the module docs, with `C` filled in lazily.
#[derive(Debug, Default)]
enum UnionFold {
    #[default]
    Unfolded,
    /// One model hash and its fold. A union only one session meets (as
    /// under a session-join query) costs one plain fold.
    One(u64, u64),
    /// Built at the second distinct model hash.
    Table(Box<FoldTable>),
}

/// `Pⁿ` and the `C` of every low byte seen so far.
#[derive(Debug)]
struct FoldTable {
    /// `Pⁿ`, for the `n` bytes of the union's stream.
    scale: u64,
    /// `C(low byte)`, valid where `filled` has the byte's bit.
    offsets: [u64; 256],
    filled: [u64; 4],
}

impl UnionFold {
    /// `fold_patterns(model_hash, patterns)`, where `patterns` is the same
    /// on every call.
    fn stable_hash(&mut self, patterns: &[CanonicalPattern], model_hash: u64) -> u64 {
        match self {
            UnionFold::Unfolded => {
                let folded = fold_patterns(model_hash, patterns);
                *self = UnionFold::One(model_hash, folded);
                folded
            }
            UnionFold::One(first, folded) if *first == model_hash => *folded,
            UnionFold::One(first, folded) => {
                let mut table = Box::new(FoldTable::new(patterns));
                table.record(*first, *folded);
                let hash = table.stable_hash(patterns, model_hash);
                *self = UnionFold::Table(table);
                hash
            }
            UnionFold::Table(table) => table.stable_hash(patterns, model_hash),
        }
    }
}

impl FoldTable {
    fn new(patterns: &[CanonicalPattern]) -> Self {
        let mut scale = 1u64;
        pattern_bytes(patterns, |bytes| {
            scale = scale.wrapping_mul(FNV_PRIME.wrapping_pow(bytes.len() as u32));
        });
        FoldTable {
            scale,
            offsets: [0; 256],
            filled: [0; 4],
        }
    }

    /// [`UnionFold::stable_hash`] once the table exists.
    fn stable_hash(&mut self, patterns: &[CanonicalPattern], model_hash: u64) -> u64 {
        self.get(model_hash).unwrap_or_else(|| {
            let folded = fold_patterns(model_hash, patterns);
            self.record(model_hash, folded);
            folded
        })
    }

    fn get(&self, model_hash: u64) -> Option<u64> {
        let low = model_hash as u8 as usize;
        (self.filled[low / 64] >> (low % 64) & 1 == 1).then(|| {
            self.scale
                .wrapping_mul(model_hash)
                .wrapping_add(self.offsets[low])
        })
    }

    /// Records `C` for `model_hash`'s low byte from one plain fold.
    fn record(&mut self, model_hash: u64, folded: u64) {
        let low = model_hash as u8 as usize;
        self.offsets[low] = folded.wrapping_sub(self.scale.wrapping_mul(model_hash));
        self.filled[low / 64] |= 1 << (low % 64);
    }
}

/// A pattern union resolved against one item set: the union's share of a
/// [`UnitKey`], the same for every session that ranks those items.
///
/// Selectors are resolved against the item universe, so label-id
/// differences between queries (e.g. derived `@pred:` labels interned in
/// different orders) cannot split or — worse — merge units that differ in
/// content.
#[derive(Debug)]
pub(crate) struct ResolvedUnion {
    /// Dense id of `patterns` within the resolver: two resolved unions carry
    /// the same id exactly when their canonical patterns are equal, even if
    /// they came from different queries.
    content: usize,
    patterns: Arc<[CanonicalPattern]>,
    /// The union to hand to the solver: the original patterns reordered into
    /// canonical order (and with duplicates dropped), so estimates cannot
    /// depend on the order the query grounding happened to emit.
    pub(crate) ordered: Arc<PatternUnion>,
    fold: UnionFold,
}

impl ResolvedUnion {
    /// The owned key of the unit `session` forms with this union.
    pub(crate) fn key_for(&self, session: &Session) -> UnitKey {
        UnitKey {
            model_key: session.model_key(),
            patterns: Arc::clone(&self.patterns),
        }
    }

    /// [`UnitKey::stable_hash`] of that unit, from the session's
    /// [`Session::model_key_hash`], without building the key: after the
    /// first model hash with a given low byte, one multiply and one add.
    pub(crate) fn stable_hash(&mut self, model_hash: u64) -> u64 {
        self.fold.stable_hash(&self.patterns, model_hash)
    }

    /// That unit's identity within the resolver that produced `self`:
    /// borrowed, so deduplicating a plan clones nothing per session. Two
    /// sessions get equal identities exactly when their [`UnitKey`]s are
    /// equal.
    pub(crate) fn unit_of<'s>(&self, session: &'s Session) -> PlannedUnit<'s> {
        PlannedUnit {
            content: self.content,
            model_hash: session.model_key_hash(),
            phi_bits: session.model().phi().to_bits(),
            sigma: session.model().sigma().items(),
        }
    }
}

/// See [`ResolvedUnion::unit_of`]. Equality compares the whole model (σ and
/// φ), so deduplication is collision-free; the hash reads only the content
/// id and the session's model hash, which equal units share and which are
/// already computed, so hashing a unit walks no σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannedUnit<'s> {
    content: usize,
    model_hash: u64,
    phi_bits: u64,
    sigma: &'s [Item],
}

impl Hash for PlannedUnit<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.content);
        state.write_u64(self.model_hash);
    }
}

/// A [`Hasher`] for map keys that are already hashes or dense ids — content
/// hashes, `(hash, fingerprint)` pairs, resolver ids, addresses — where
/// SipHash's rounds buy nothing. Each word is folded in with one multiply,
/// and `finish` runs the MurmurHash3 finalizer, so the low bits a table
/// indexes by depend on every input bit (FNV-1a's own low bits depend only
/// on the inputs' low bits). Built by [`PremixedState`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PremixedHasher(u64);

/// The [`BuildHasher`] of maps keyed by hashes. Unit content arrives from
/// outside the program (a session inserted over the wire), so each map
/// draws a seed from std's per-process random keys: bucket positions cannot
/// be worked out ahead to crowd one bucket. No such map is iterated where
/// order reaches an answer, a count or a persisted byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PremixedState {
    seed: u64,
}

impl Default for PremixedState {
    fn default() -> Self {
        PremixedState {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for PremixedState {
    type Hasher = PremixedHasher;

    fn build_hasher(&self) -> PremixedHasher {
        PremixedHasher(self.seed)
    }
}

impl Hasher for PremixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A union and the labeling it is read under, by address.
type Source = (*const PatternUnion, *const Labeling);

/// Resolves the unions of one plan (or one wave of plans) to canonical
/// form, once per distinct (union, labeling, item set) instead of once per
/// session: a query without a session-join atom hands every session the
/// same union, and sessions of one p-relation rank the same items.
///
/// Item sets are passed as `Session::sorted_items`: sorted ascending, each
/// item once. Under that contract two sessions rank the same items exactly
/// when their slices are equal, so matching a session to a known item set
/// is a slice comparison, and the slice is the sorted universe selectors
/// are resolved against.
///
/// Unions and labelings are told apart by address — they are borrowed for
/// the resolver's lifetime, so an address names one object — which is only a
/// short cut to a result that is a pure function of their content.
#[derive(Debug, Default)]
pub(crate) struct UnionResolver<'a> {
    /// Per (union, labeling): the sorted item sets met so far, each with its
    /// index into `resolved`.
    by_source: HashMap<Source, Vec<(Vec<Item>, usize)>, PremixedState>,
    resolved: Vec<ResolvedUnion>,
    content_ids: HashMap<Arc<[CanonicalPattern]>, usize>,
    borrows: std::marker::PhantomData<&'a PatternUnion>,
}

impl<'a> UnionResolver<'a> {
    /// `union` under `labeling`, resolved against `sorted_items`, a
    /// session's [`Session::sorted_items`].
    pub(crate) fn resolve(
        &mut self,
        union: &'a PatternUnion,
        labeling: &'a Labeling,
        sorted_items: &[Item],
    ) -> &mut ResolvedUnion {
        debug_assert!(
            sorted_items.windows(2).all(|w| w[0] < w[1]),
            "item sets are passed sorted"
        );
        let item_sets = self
            .by_source
            .entry((union as *const _, labeling as *const _))
            .or_default();
        let known = item_sets
            .iter()
            .find(|(items, _)| items.as_slice() == sorted_items);
        let index = match known {
            Some(&(_, index)) => index,
            None => {
                let (patterns, ordered) = canonicalize_union(union, sorted_items, labeling);
                let next_id = self.content_ids.len();
                let content = *self
                    .content_ids
                    .entry(Arc::clone(&patterns))
                    .or_insert(next_id);
                item_sets.push((sorted_items.to_vec(), self.resolved.len()));
                self.resolved.push(ResolvedUnion {
                    content,
                    patterns,
                    ordered: Arc::new(ordered),
                    fold: UnionFold::default(),
                });
                self.resolved.len() - 1
            }
        };
        &mut self.resolved[index]
    }
}

/// SplitMix64 finalizer: a specified, stable bijection on `u64` with good
/// avalanche behaviour.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical patterns of `union` over `universe` (sorted by canonical
/// form, deduplicated) and the union's own members in that order.
fn canonicalize_union(
    union: &PatternUnion,
    universe: &[Item],
    labeling: &Labeling,
) -> (Arc<[CanonicalPattern]>, PatternUnion) {
    let mut canonical: Vec<(CanonicalPattern, &Pattern)> = union
        .patterns()
        .iter()
        .map(|p| (canonicalize_pattern(p, universe, labeling), p))
        .collect();
    canonical.sort_by(|(a, _), (b, _)| a.cmp(b));
    canonical.dedup_by(|(a, _), (b, _)| a == b);
    let (patterns, members): (Vec<CanonicalPattern>, Vec<Pattern>) =
        canonical.into_iter().map(|(c, p)| (c, p.clone())).unzip();
    let ordered = PatternUnion::new(members)
        .expect("canonical order is non-empty: built from a non-empty union");
    (patterns.into(), ordered)
}

/// `universe` is sorted, and candidates come back in universe order.
fn canonicalize_pattern(
    pattern: &Pattern,
    universe: &[Item],
    labeling: &Labeling,
) -> CanonicalPattern {
    let nodes = pattern
        .nodes()
        .iter()
        .map(|sel| sel.candidates(universe, labeling))
        .collect();
    (nodes, pattern.edges().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use ppd_patterns::NodeSelector;
    use ppd_rim::{MallowsModel, Ranking};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::hash::BuildHasher;

    fn session(phi: f64) -> Session {
        Session::new(
            vec![Value::from("s")],
            MallowsModel::new(Ranking::identity(4), phi).unwrap(),
        )
    }

    fn labeling() -> Labeling {
        let mut lab = Labeling::new();
        for i in 0..4u32 {
            lab.add(i, i % 2);
        }
        lab
    }

    fn two_label(l: u32, r: u32) -> Pattern {
        Pattern::two_label(NodeSelector::single(l), NodeSelector::single(r))
    }

    #[test]
    fn member_order_does_not_change_the_key() {
        let s = session(0.5);
        let lab = labeling();
        let u1 = PatternUnion::new(vec![two_label(0, 1), two_label(1, 0)]).unwrap();
        let u2 = PatternUnion::new(vec![two_label(1, 0), two_label(0, 1)]).unwrap();
        let (k1, o1) = UnitKey::new(&s, &u1, &lab);
        let (k2, o2) = UnitKey::new(&s, &u2, &lab);
        assert_eq!(k1, k2);
        assert_eq!(k1.stable_hash(), k2.stable_hash());
        assert_eq!(o1, o2);
    }

    #[test]
    fn duplicate_members_are_merged() {
        let s = session(0.5);
        let lab = labeling();
        let u = PatternUnion::new(vec![two_label(0, 1), two_label(0, 1)]).unwrap();
        let (_, ordered) = UnitKey::new(&s, &u, &lab);
        assert_eq!(ordered.num_patterns(), 1);
    }

    #[test]
    fn label_ids_with_equal_candidate_sets_share_a_key() {
        // Label 5 covers exactly the items label 1 covers: selectors over
        // either are semantically identical, so the keys must collide.
        let s = session(0.5);
        let mut lab = labeling();
        for i in 0..4u32 {
            if i % 2 == 1 {
                lab.add(i, 5);
            }
        }
        let (k1, _) = UnitKey::new(&s, &PatternUnion::singleton(two_label(0, 1)).unwrap(), &lab);
        let (k2, _) = UnitKey::new(&s, &PatternUnion::singleton(two_label(0, 5)).unwrap(), &lab);
        assert_eq!(k1, k2);
    }

    #[test]
    fn model_and_union_content_split_keys_and_seeds() {
        let lab = labeling();
        let u = PatternUnion::singleton(two_label(0, 1)).unwrap();
        let (k1, _) = UnitKey::new(&session(0.5), &u, &lab);
        let (k2, _) = UnitKey::new(&session(0.3), &u, &lab);
        let (k3, _) = UnitKey::new(
            &session(0.5),
            &PatternUnion::singleton(two_label(1, 0)).unwrap(),
            &lab,
        );
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1.seed(42), k2.seed(42));
        assert_ne!(k1.seed(42), k3.seed(42));
        // The seed depends on the base seed, too.
        assert_ne!(k1.seed(42), k1.seed(43));
        // And is a pure function of content.
        assert_eq!(
            k1.seed(42),
            UnitKey::new(&session(0.5), &u, &lab).0.seed(42)
        );
    }

    /// The hash, the seeds and the member order of one fixed instance, as
    /// the engine computed them before keying was hoisted out of the
    /// per-session loop (PR 11). Cache keys, segment stores and every
    /// sampled estimate hang off these numbers.
    #[test]
    fn stable_hash_and_seed_are_pinned() {
        let s = Session::new(
            vec![Value::from("golden")],
            MallowsModel::new(Ranking::new(vec![2, 0, 3, 1]).unwrap(), 0.3).unwrap(),
        );
        let mut lab = Labeling::new();
        lab.add_all(0, [0, 2]);
        lab.add_all(1, [1]);
        lab.add_all(2, [0]);
        lab.add_all(3, [1, 2]);
        let chain = Pattern::new(
            vec![
                NodeSelector::single(0),
                NodeSelector::single(1),
                NodeSelector::all_of([1, 2]),
            ],
            vec![(0, 1), (1, 2)],
        )
        .unwrap();
        let u = PatternUnion::new(vec![two_label(1, 0), chain.clone(), two_label(1, 0)]).unwrap();
        let (k, ordered) = UnitKey::new(&s, &u, &lab);
        assert_eq!(s.model_key_hash(), 0x3a14_0e52_4078_7c79);
        assert_eq!(k.stable_hash(), 0x86b1_8600_b450_871f);
        assert_eq!(k.seed(42), 0x14ac_e570_adfd_b5ab);
        assert_eq!(k.seed(0), 0x7232_4f1d_0956_8bf0);
        assert_eq!(ordered.patterns(), [chain, two_label(1, 0)]);
        // The planning path folds the same hash without building the key.
        let mut resolver = UnionResolver::default();
        let resolved = resolver.resolve(&u, &lab, s.sorted_items());
        assert_eq!(resolved.stable_hash(s.model_key_hash()), k.stable_hash());
        assert_eq!(resolved.key_for(&s), k);
    }

    /// A random canonical union over items `0..24`: up to four patterns of
    /// up to four nodes, each node a sorted item set, with random edges.
    fn random_patterns(rng: &mut StdRng) -> Vec<CanonicalPattern> {
        (0..rng.gen_range(1..5usize))
            .map(|_| {
                let nodes: Vec<CanonicalNode> = (0..rng.gen_range(1..5usize))
                    .map(|_| (0..24).filter(|_| rng.gen_range(0..4u32) == 0).collect())
                    .collect();
                let edges = (0..rng.gen_range(0..4usize))
                    .map(|_| (rng.gen_range(0..nodes.len()), rng.gen_range(0..nodes.len())))
                    .collect();
                (nodes, edges)
            })
            .collect()
    }

    #[test]
    fn the_fold_table_equals_the_plain_fold() {
        let mut rng = StdRng::seed_from_u64(2016);
        let mut table_hits = 0;
        for _ in 0..200 {
            let patterns = random_patterns(&mut rng);
            // 600 model hashes over 16 low bytes: most fold through a
            // recorded offset. High bits are random, so the multiply term
            // is what tells them apart.
            let mut fold = UnionFold::default();
            for _ in 0..600 {
                let h = rng.gen::<u64>() & !0xff | u64::from(rng.gen_range(0..16u8));
                if matches!(&fold, UnionFold::Table(t) if t.get(h).is_some()) {
                    table_hits += 1;
                }
                assert_eq!(fold.stable_hash(&patterns, h), fold_patterns(h, &patterns));
            }
            // Fully random hashes too, and repeats of each.
            for _ in 0..300 {
                let h = rng.gen::<u64>();
                let plain = fold_patterns(h, &patterns);
                assert_eq!(fold.stable_hash(&patterns, h), plain);
                assert_eq!(fold.stable_hash(&patterns, h), plain);
            }
        }
        assert!(table_hits > 100_000, "{table_hits} table hits");
    }

    #[test]
    fn a_union_one_model_meets_builds_no_table() {
        let patterns = random_patterns(&mut StdRng::seed_from_u64(7));
        let mut fold = UnionFold::default();
        for h in [0x1234u64, 0x1234] {
            assert_eq!(fold.stable_hash(&patterns, h), fold_patterns(h, &patterns));
        }
        assert!(matches!(fold, UnionFold::One(0x1234, _)));
        // The second distinct hash builds it, the first one's offset
        // already recorded.
        assert_eq!(
            fold.stable_hash(&patterns, 0x5634),
            fold_patterns(0x5634, &patterns)
        );
        let UnionFold::Table(table) = &fold else {
            panic!("a second model hash builds the table")
        };
        assert_eq!(table.get(0x9934), Some(fold_patterns(0x9934, &patterns)));
    }

    #[test]
    fn the_resolver_keys_on_the_item_set_not_only_on_the_union() {
        // One union and labeling, two sessions ranking different items:
        // label 0 selects {0, 2} among the first session's items and only
        // {2} among the second's, so the two may not share a resolution.
        let lab = labeling();
        let u = PatternUnion::singleton(two_label(0, 1)).unwrap();
        let wide = session(0.5);
        let narrow = Session::new(
            vec![Value::from("s")],
            MallowsModel::new(Ranking::new(vec![3, 2, 1]).unwrap(), 0.5).unwrap(),
        );
        let mut resolver = UnionResolver::default();
        let mut planned = Vec::new();
        for s in [&wide, &narrow, &wide] {
            let resolved = resolver.resolve(&u, &lab, s.sorted_items());
            assert_eq!(resolved.key_for(s), UnitKey::new(s, &u, &lab).0);
            planned.push(resolved.unit_of(s));
        }
        assert_ne!(planned[0], planned[1]);
        assert_eq!(planned[0], planned[2]);
        assert_eq!(resolver.resolved.len(), 2, "one resolution per item set");
        // A permutation of the same items is the same item set.
        let permuted = Session::new(
            vec![Value::from("s")],
            MallowsModel::new(Ranking::new(vec![1, 3, 0, 2]).unwrap(), 0.5).unwrap(),
        );
        resolver.resolve(&u, &lab, permuted.sorted_items());
        assert_eq!(resolver.resolved.len(), 2);
    }

    #[test]
    fn planned_units_sharing_content_and_model_hash_stay_distinct_by_model() {
        // A forged model-hash collision: equal content id and model hash,
        // different σ (or φ). The map must keep them apart.
        let (sigma, swapped) = ([0u32, 1, 2, 3], [1u32, 0, 2, 3]);
        let a = PlannedUnit {
            content: 3,
            model_hash: 0xfeed,
            phi_bits: 0.5f64.to_bits(),
            sigma: &sigma,
        };
        let b = PlannedUnit {
            sigma: &swapped,
            ..a
        };
        let c = PlannedUnit {
            phi_bits: 0.25f64.to_bits(),
            ..a
        };
        let state = PremixedState::default();
        let hash = |unit: &PlannedUnit| state.hash_one(unit);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&c));
        let mut map: HashMap<PlannedUnit, usize, PremixedState> = HashMap::default();
        for (index, unit) in [a, b, c].into_iter().enumerate() {
            assert_eq!(map.insert(unit, index), None);
        }
        assert_eq!(map.len(), 3);
        assert_eq!((map[&a], map[&b], map[&c]), (0, 1, 2));
    }

    #[test]
    fn premixed_hashes_spread_high_bit_differences_into_low_bits() {
        // Keys that differ only above bit 40 — FNV-1a's low bits follow
        // only its inputs' low bits, so such keys are not far-fetched —
        // must still land in distinct low-bit buckets.
        let state = PremixedState::default();
        let mut buckets: Vec<u64> = (0..256u64)
            .map(|k| state.hash_one(k << 40) & 0xfff)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 240, "{} distinct buckets", buckets.len());
        // Byte-wise writes fold like whole words.
        let mut bytes = state.build_hasher();
        bytes.write(&7u64.to_le_bytes());
        assert_eq!(bytes.finish(), state.hash_one(7u64));
        // Each map draws its own seed.
        assert_ne!(
            state.hash_one(7u64),
            PremixedState::default().hash_one(7u64)
        );
    }

    #[test]
    fn equal_content_from_different_unions_is_one_unit() {
        // Two union objects (as two groundings of one query produce) with
        // equal canonical content: their sessions must deduplicate.
        let s = session(0.5);
        let lab = labeling();
        let u1 = PatternUnion::new(vec![two_label(0, 1), two_label(1, 0)]).unwrap();
        let u2 = PatternUnion::new(vec![two_label(1, 0), two_label(0, 1)]).unwrap();
        let items = s.model().sigma().items();
        let mut resolver = UnionResolver::default();
        let first = resolver.resolve(&u1, &lab, items).unit_of(&s);
        let second = resolver.resolve(&u2, &lab, items).unit_of(&s);
        assert_eq!(first, second);
    }
}
