//! Atomic propositions and state labelings (Section 2.5 of the thesis).

use std::collections::BTreeSet;

/// A labeling function `Label : S → 2^AP` assigning to every state the set of
/// atomic propositions valid in it.
///
/// Atomic propositions are plain strings; a state `s` with `p ∈ Label(s)` is
/// called a *p-state*.
///
/// ```
/// let mut l = mrmc_ctmc::Labeling::new(3);
/// l.add(0, "idle");
/// l.add(2, "busy");
/// assert!(l.has(0, "idle"));
/// assert_eq!(l.states_with("busy"), vec![false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Labeling {
    per_state: Vec<BTreeSet<String>>,
    declared: BTreeSet<String>,
}

impl Labeling {
    /// An empty labeling over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Labeling {
            per_state: vec![BTreeSet::new(); num_states],
            declared: BTreeSet::new(),
        }
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.per_state.len()
    }

    /// Declare `ap` as part of the vocabulary without assigning it to a
    /// state. Assigning a proposition with [`add`](Labeling::add) declares
    /// it implicitly, so this is only needed for propositions that may end
    /// up unused (the `.lab` file's `#DECLARATION` block); the lint pass
    /// reports declared-but-unused propositions.
    pub fn declare(&mut self, ap: impl Into<String>) -> &mut Self {
        self.declared.insert(ap.into());
        self
    }

    /// Every declared proposition (explicitly via
    /// [`declare`](Labeling::declare) or implicitly via
    /// [`add`](Labeling::add)), sorted and de-duplicated.
    pub fn declared(&self) -> Vec<&str> {
        self.declared.iter().map(String::as_str).collect()
    }

    /// Make `ap` valid in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn add(&mut self, state: usize, ap: impl Into<String>) -> &mut Self {
        let ap = ap.into();
        self.declared.insert(ap.clone());
        self.per_state[state].insert(ap);
        self
    }

    /// `true` when `ap ∈ Label(state)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn has(&self, state: usize, ap: &str) -> bool {
        self.per_state[state].contains(ap)
    }

    /// The set of propositions valid in `state`, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn of_state(&self, state: usize) -> impl Iterator<Item = &str> {
        self.per_state[state].iter().map(String::as_str)
    }

    /// The characteristic vector of the set of `ap`-states.
    pub fn states_with(&self, ap: &str) -> Vec<bool> {
        self.per_state.iter().map(|s| s.contains(ap)).collect()
    }

    /// The propositions valid in *every* one of `states`, in lexicographic
    /// order — the labels a lumping quotient can safely keep on a block.
    /// Empty for an empty state set.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of bounds.
    pub fn common_to(&self, states: &[usize]) -> Vec<&str> {
        let Some((&first, rest)) = states.split_first() else {
            return Vec::new();
        };
        self.per_state[first]
            .iter()
            .filter(|ap| rest.iter().all(|&s| self.per_state[s].contains(*ap)))
            .map(String::as_str)
            .collect()
    }

    /// The labeling of a quotient whose state `b` is the block
    /// `blocks[b]` of this labeling's states: each block keeps the
    /// propositions [`common_to`](Labeling::common_to) its members, and the
    /// declared vocabulary carries over.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of bounds.
    pub fn quotient(&self, blocks: &[Vec<usize>]) -> Labeling {
        let per_state = blocks
            .iter()
            .map(|members| {
                self.common_to(members)
                    .into_iter()
                    .map(str::to_owned)
                    .collect()
            })
            .collect();
        Labeling {
            per_state,
            declared: self.declared.clone(),
        }
    }

    /// Every proposition used anywhere in the labeling, sorted and
    /// de-duplicated.
    pub fn all_propositions(&self) -> Vec<&str> {
        let mut set = BTreeSet::new();
        for s in &self.per_state {
            for ap in s {
                set.insert(ap.as_str());
            }
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelan_labeling_of_example_2_4() {
        // States 1..5 of Figure 2.2, zero-indexed here.
        let mut l = Labeling::new(5);
        l.add(0, "off");
        l.add(1, "sleep");
        l.add(2, "idle");
        l.add(3, "receive").add(3, "busy");
        l.add(4, "transmit").add(4, "busy");

        assert!(l.has(3, "busy"));
        assert!(l.has(4, "busy"));
        assert!(!l.has(2, "busy"));
        assert_eq!(l.states_with("busy"), vec![false, false, false, true, true]);
        assert_eq!(
            l.all_propositions(),
            vec!["busy", "idle", "off", "receive", "sleep", "transmit"]
        );
        let aps: Vec<&str> = l.of_state(3).collect();
        assert_eq!(aps, vec!["busy", "receive"]);
    }

    #[test]
    fn quotient_keeps_common_propositions_and_the_vocabulary() {
        let mut l = Labeling::new(4);
        l.declare("unused");
        l.add(0, "a").add(0, "b");
        l.add(1, "a");
        l.add(2, "b").add(2, "c");
        let blocks = vec![vec![0, 1], vec![2], vec![3]];
        let q = l.quotient(&blocks);

        let mut expected = Labeling::new(3);
        for (b, members) in blocks.iter().enumerate() {
            for ap in l.common_to(members) {
                expected.add(b, ap);
            }
        }
        for ap in l.declared() {
            expected.declare(ap);
        }
        assert_eq!(q, expected);
        assert_eq!(q.of_state(0).collect::<Vec<_>>(), vec!["a"]);
        assert!(q.declared().contains(&"unused"));
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut l = Labeling::new(1);
        l.add(0, "a").add(0, "a");
        assert_eq!(l.of_state(0).count(), 1);
    }

    #[test]
    fn empty_labeling() {
        let l = Labeling::new(2);
        assert_eq!(l.num_states(), 2);
        assert!(l.all_propositions().is_empty());
        assert!(l.declared().is_empty());
        assert_eq!(l.states_with("x"), vec![false, false]);
    }

    #[test]
    fn declarations_track_the_vocabulary() {
        let mut l = Labeling::new(2);
        l.declare("unused").add(0, "used");
        assert_eq!(l.declared(), vec!["unused", "used"]);
        // Only `used` actually labels a state.
        assert_eq!(l.all_propositions(), vec!["used"]);
        // Declaring is idempotent and does not assign.
        l.declare("used");
        assert!(!l.has(0, "unused"));
        assert_eq!(l.declared().len(), 2);
    }

    #[test]
    #[should_panic]
    fn add_out_of_bounds_panics() {
        Labeling::new(1).add(1, "a");
    }

    #[test]
    fn common_to_intersects_member_labels() {
        let mut l = Labeling::new(4);
        l.add(0, "up").add(0, "fast");
        l.add(1, "up").add(1, "slow");
        l.add(2, "up").add(2, "fast");
        assert_eq!(l.common_to(&[0, 1, 2]), vec!["up"]);
        assert_eq!(l.common_to(&[0, 2]), vec!["fast", "up"]);
        assert_eq!(l.common_to(&[3]), Vec::<&str>::new());
        assert_eq!(l.common_to(&[]), Vec::<&str>::new());
        // The state-3 member empties every intersection.
        assert!(l.common_to(&[0, 3]).is_empty());
    }
}
