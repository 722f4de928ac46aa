//! The round-based refinement that the worklist refinement replaced, kept
//! as a reference oracle: every round re-signs every state, impulse
//! violations are fixed one per full re-refinement, and the `R103`/`R104`
//! attribution partitions come from two extra refinements. The
//! differential tests below assert that [`super::refine`] returns the same
//! partition and the same attribution pairs at every observation level.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mrmc_ctmc::CtmcBuilder;
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::phone::{phone, phone_with_impulses};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::{tmr, wavelan, TmrConfig};
use mrmc_mrm::{ImpulseRewards, Mrm, Partition, StateRewards};
use mrmc_obs::MetricsRecorder;
use mrmc_sparse::rng::Xoshiro256StarStar;

use super::{refine as worklist_refine, Observation, Refinement};

/// What the differential tests compare.
#[derive(Debug, PartialEq)]
struct Outcome {
    partition: Partition,
    reward_blocked: Option<(usize, usize)>,
    impulse_blocked: Option<(usize, usize)>,
}

/// The reference analysis and the total rounds of every refinement it ran.
fn reference(mrm: &Mrm, relevant_aps: &[String], observation: Observation) -> (Outcome, u64) {
    let (partition, rounds) = refine(
        mrm,
        relevant_aps,
        observation.rates,
        observation.rewards,
        observation.rewards,
    );
    if !observation.rewards {
        let outcome = Outcome {
            partition,
            reward_blocked: None,
            impulse_blocked: None,
        };
        return (outcome, rounds);
    }
    let (p_rate, rate_rounds) = refine(mrm, relevant_aps, true, false, false);
    let (p_state, state_rounds) = refine(mrm, relevant_aps, true, true, false);
    let outcome = Outcome {
        reward_blocked: first_split_pair(&p_rate, &p_state),
        impulse_blocked: first_split_pair(&p_state, &partition),
        partition,
    };
    (outcome, rounds + rate_rounds + state_rounds)
}

/// The worklist analysis and the rounds its refinement event reported.
fn worklist(mrm: &Mrm, relevant_aps: &[String], observation: Observation) -> (Outcome, u64) {
    let metrics = Arc::new(MetricsRecorder::new());
    let Refinement {
        partition,
        reward_blocked,
        impulse_blocked,
    } = mrmc_obs::with_recorder(metrics.clone(), || {
        worklist_refine(mrm, relevant_aps, observation)
    });
    let outcome = Outcome {
        partition,
        reward_blocked,
        impulse_blocked,
    };
    (outcome, metrics.take().lumping_rounds)
}

/// The coarsest partition matching the requested observation level, and
/// the number of signature rounds it took.
fn refine(
    mrm: &Mrm,
    relevant_aps: &[String],
    use_rates: bool,
    use_state_rewards: bool,
    use_impulses: bool,
) -> (Partition, u64) {
    let n = mrm.num_states();
    let mut keys: HashMap<(Vec<bool>, u64), usize> = HashMap::new();
    let assignment: Vec<usize> = (0..n)
        .map(|s| {
            let aps: Vec<bool> = relevant_aps
                .iter()
                .map(|ap| mrm.labeling().has(s, ap))
                .collect();
            let rho = if use_state_rewards {
                mrm.state_reward(s).to_bits()
            } else {
                0
            };
            let next = keys.len();
            *keys.entry((aps, rho)).or_insert(next)
        })
        .collect();
    let mut partition = Partition::from_assignment(&assignment);
    if !use_rates {
        return (partition, 0);
    }

    let mut rounds = 0u64;
    let partition = 'outer: loop {
        loop {
            rounds += 1;
            let refined = split_by_signature(mrm, &partition, use_impulses);
            if refined.num_blocks() == partition.num_blocks() {
                break;
            }
            partition = refined;
        }
        if !use_impulses {
            break 'outer partition;
        }
        let Some((source, block)) = find_impulse_violation(mrm, &partition) else {
            break 'outer partition;
        };
        partition = split_block_by_incoming_impulse(mrm, &partition, source, block);
    };
    (partition, rounds)
}

/// One refinement round: group states by their current block plus their
/// per-target-block signature.
fn split_by_signature(mrm: &Mrm, partition: &Partition, use_impulses: bool) -> Partition {
    #[derive(Hash, PartialEq, Eq)]
    struct Signature {
        block: usize,
        rates: Vec<(usize, u64)>,
        impulses: Vec<(usize, Vec<u64>)>,
    }

    let n = mrm.num_states();
    let k = partition.num_blocks();
    let mut sums = vec![0.0_f64; k];
    let mut touched: Vec<usize> = Vec::new();
    let mut keys: HashMap<Signature, usize> = HashMap::new();
    let assignment: Vec<usize> = (0..n)
        .map(|s| {
            let b = partition.block_of(s);
            let mut impulse_map: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for (t, r) in mrm.ctmc().rates().row(s) {
                let c = partition.block_of(t);
                if c == b {
                    continue;
                }
                if sums[c] == 0.0 {
                    touched.push(c);
                }
                sums[c] += r;
                if use_impulses {
                    impulse_map
                        .entry(c)
                        .or_default()
                        .push(mrm.impulse_reward(s, t).to_bits());
                }
            }
            touched.sort_unstable();
            let rates: Vec<(usize, u64)> =
                touched.iter().map(|&c| (c, sums[c].to_bits())).collect();
            for &c in &touched {
                sums[c] = 0.0;
            }
            touched.clear();
            let impulses: Vec<(usize, Vec<u64>)> = impulse_map
                .into_iter()
                .map(|(c, mut vs)| {
                    vs.sort_unstable();
                    vs.dedup();
                    (c, vs)
                })
                .collect();
            let next = keys.len();
            *keys
                .entry(Signature {
                    block: b,
                    rates,
                    impulses,
                })
                .or_insert(next)
        })
        .collect();
    Partition::from_assignment(&assignment)
}

/// The first `(source state, block to split)` impulse-uniformity violation.
fn find_impulse_violation(mrm: &Mrm, partition: &Partition) -> Option<(usize, usize)> {
    for s in 0..mrm.num_states() {
        let b = partition.block_of(s);
        let mut per_block: HashMap<usize, u64> = HashMap::new();
        for (t, _) in mrm.ctmc().rates().row(s) {
            let c = partition.block_of(t);
            let v = mrm.impulse_reward(s, t).to_bits();
            if c == b {
                if v != 0 {
                    return Some((s, b));
                }
            } else if let Some(&prev) = per_block.get(&c) {
                if prev != v {
                    return Some((s, c));
                }
            } else {
                per_block.insert(c, v);
            }
        }
    }
    None
}

/// Split `block` by the impulse its members receive from `source`.
fn split_block_by_incoming_impulse(
    mrm: &Mrm,
    partition: &Partition,
    source: usize,
    block: usize,
) -> Partition {
    let mut from_source: HashMap<usize, u64> = HashMap::new();
    for (t, _) in mrm.ctmc().rates().row(source) {
        if partition.block_of(t) == block {
            from_source.insert(t, mrm.impulse_reward(source, t).to_bits());
        }
    }
    let k = partition.num_blocks();
    let mut keys: HashMap<Option<u64>, usize> = HashMap::new();
    let mut assignment = partition.assignment().to_vec();
    for (t, slot) in assignment.iter_mut().enumerate() {
        if *slot == block {
            let next = keys.len();
            *slot = k + *keys.entry(from_source.get(&t).copied()).or_insert(next);
        }
    }
    Partition::from_assignment(&assignment)
}

/// The first pair of states sharing a `coarse` block but split in `fine`.
fn first_split_pair(coarse: &Partition, fine: &Partition) -> Option<(usize, usize)> {
    let mut first_seen: Vec<Option<(usize, usize)>> = vec![None; coarse.num_blocks()];
    for s in 0..coarse.num_states() {
        match first_seen[coarse.block_of(s)] {
            None => first_seen[coarse.block_of(s)] = Some((s, fine.block_of(s))),
            Some((s0, fb0)) => {
                if fine.block_of(s) != fb0 {
                    return Some((s0, s));
                }
            }
        }
    }
    None
}

const LEVELS: [Observation; 3] = [
    Observation {
        rates: false,
        rewards: false,
    },
    Observation {
        rates: true,
        rewards: false,
    },
    Observation {
        rates: true,
        rewards: true,
    },
];

/// Compare both refinements on `mrm` for every observation level and
/// every proposition set in `ap_sets`. Rate-only refinement must also take
/// exactly the reference's rounds (generations reproduce its rounds); a
/// reward-observing one may take no more than the reference's three
/// refinements together.
fn assert_agree(name: &str, mrm: &Mrm, ap_sets: &[Vec<&str>]) {
    for aps in ap_sets {
        let aps: Vec<String> = aps.iter().map(|&ap| ap.to_owned()).collect();
        for observation in LEVELS {
            let (expected, reference_rounds) = reference(mrm, &aps, observation);
            let (actual, rounds) = worklist(mrm, &aps, observation);
            assert_eq!(actual, expected, "{name}, aps {aps:?}, {observation:?}");
            if observation.rewards {
                assert!(
                    rounds <= reference_rounds,
                    "{name}, aps {aps:?}: {rounds} rounds > {reference_rounds}"
                );
            } else {
                assert_eq!(rounds, reference_rounds, "{name}, aps {aps:?}");
            }
        }
    }
}

/// The empty set, each declared proposition alone, and all of them.
fn ap_sets(mrm: &Mrm) -> Vec<Vec<&str>> {
    let declared = mrm.labeling().declared();
    let mut sets = vec![Vec::new()];
    sets.extend(declared.iter().map(|&ap| vec![ap]));
    sets.push(declared);
    sets
}

#[test]
fn worklist_matches_reference_on_the_case_studies() {
    for (name, mrm) in [
        ("tmr", tmr(&TmrConfig::classic())),
        ("phone", phone()),
        ("phone_with_impulses", phone_with_impulses()),
        ("wavelan", wavelan()),
    ] {
        assert_agree(name, &mrm, &ap_sets(&mrm));
    }
}

#[test]
fn worklist_matches_reference_on_the_cluster_family() {
    for n in 2..=16 {
        let mrm = cluster(&ClusterConfig::new(n));
        let ap_sets = [
            vec![],
            vec!["down"],
            vec!["premium", "down"],
            vec!["minimum", "backbone_up"],
        ];
        assert_agree(&format!("cluster({n})"), &mrm, &ap_sets);
    }
}

/// A random MRM over few rate, reward and impulse levels, so that blocks
/// stay large and impulse-uniformity violations are common.
fn coarse_random_mrm(seed: u64) -> Mrm {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let n = 6 + rng.range_usize(20);
    let mut b = CtmcBuilder::new(n);
    let mut iota = ImpulseRewards::new();
    for s in 0..n {
        for _ in 0..1 + rng.range_usize(3) {
            let t = rng.range_usize(n);
            b.transition(s, t, [0.5, 1.0, 2.0][rng.range_usize(3)]);
            let impulse = [0.0, 1.0, 3.0][rng.range_usize(3)];
            if t != s {
                iota.set(s, t, impulse).unwrap();
            }
        }
        if rng.bool_with(0.3) {
            b.label(s, "a");
        }
        if rng.bool_with(0.3) {
            b.label(s, "b");
        }
    }
    let rho = (0..n).map(|_| [0.0, 1.0][rng.range_usize(2)]).collect();
    Mrm::new(b.build().unwrap(), StateRewards::new(rho).unwrap(), iota).unwrap()
}

#[test]
fn worklist_matches_reference_on_random_models() {
    let coarse_sets = [vec![], vec!["a"], vec!["a", "b"]];
    for seed in 0..64 {
        let coarse = coarse_random_mrm(seed);
        assert_agree(&format!("coarse seed {seed}"), &coarse, &coarse_sets);

        let config = RandomMrmConfig {
            states: 8 + (seed as usize % 24),
            ..RandomMrmConfig::default()
        };
        let mrm = random_mrm(seed, &config);
        assert_agree(
            &format!("random seed {seed}"),
            &mrm,
            &[vec![], vec!["goal"]],
        );
    }
}

/// Impulse fixes do not commute. State 0 earns impulses 1 and 2 into the
/// block `{2, …, 6}`, and so does state 1 via states 4 and 5. Fixing 0
/// first and refining splits 4 from 5 by rates, which dissolves 1's
/// violation, so 4 and 6 stay lumped. Splitting by 1 as well, before
/// refining, would separate 4 from 6.
#[test]
fn impulse_fixes_follow_the_reference_order() {
    let mut b = CtmcBuilder::new(8);
    for (from, to) in [
        (0, 2),
        (0, 3),
        (1, 4),
        (1, 5),
        (2, 7),
        (3, 7),
        (4, 7),
        (5, 7),
        (6, 7),
        (4, 2),
        (5, 3),
        (6, 2),
        (7, 0),
        (7, 1),
    ] {
        b.transition(from, to, 1.0);
    }
    b.label(0, "a").label(1, "b").label(7, "z");
    let mut iota = ImpulseRewards::new();
    for (from, to, v) in [(0, 2, 1.0), (0, 3, 2.0), (1, 4, 1.0), (1, 5, 2.0)] {
        iota.set(from, to, v).unwrap();
    }
    let mrm = Mrm::new(b.build().unwrap(), StateRewards::zero(8), iota).unwrap();
    let aps = vec!["a", "b", "z"];
    assert_agree("order-sensitive", &mrm, std::slice::from_ref(&aps));
    let aps: Vec<String> = aps.into_iter().map(str::to_owned).collect();
    let (outcome, _) = worklist(&mrm, &aps, LEVELS[2]);
    assert_eq!(outcome.partition.block_of(4), outcome.partition.block_of(6));
    assert_eq!(outcome.partition.num_blocks(), 7);
}
