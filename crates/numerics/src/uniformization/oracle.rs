//! The recursive path generator that the iterative [`super::Explorer`]
//! replaced, kept as a reference oracle: one stack frame per path step, an
//! Eq. 4.6 `upper_tail` evaluation for every pruned child, and an
//! `impulse_class` search on every expanded transition. The differential
//! tests below assert that the explorer stores the same classes with the
//! same `P(σ)` bits, charges the same error bits, and counts the same work.

use mrmc_ctmc::poisson;
use mrmc_models::phone::phone_with_impulses;
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::{tmr, wavelan, TmrConfig};
use mrmc_mrm::{transform::make_absorbing, Mrm, UniformizedMrm};

use super::{Explorer, UniformOptions};
use crate::path_classes::PathClasses;
use crate::reward_structure::RewardClasses;

/// Algorithm 4.7 as the recursive generator ran it.
fn reference(
    uni: &UniformizedMrm,
    rc: &RewardClasses,
    phi: &[bool],
    psi: &[bool],
    start: usize,
    lambda_t: f64,
    options: &UniformOptions,
) -> PathClasses {
    let ctx = ExploreCtx {
        uni,
        rc,
        phi,
        psi,
        lambda_t,
        w: options.truncation,
        max_depth: options.max_depth,
        mode_pmf: options
            .improved_pruning
            .then(|| poisson::pmf(lambda_t, lambda_t.floor() as u64)),
    };

    let mut out = PathClasses::new();
    if !phi[start] && !psi[start] {
        return out;
    }
    let root_weight = (-lambda_t).exp();
    let root_pruned = match ctx.mode_pmf {
        None => root_weight < ctx.w,
        Some(mode) => mode < ctx.w,
    };
    if root_pruned {
        out.add_error(1.0);
        return out;
    }

    let mut counts = Counts {
        k: vec![0; rc.num_state_classes()],
        j: vec![0; rc.num_impulse_classes()],
    };
    counts.k[rc.state_class(start)] = 1;
    visit(&ctx, &mut counts, &mut out, start, 0, 1.0, root_weight);
    out
}

struct ExploreCtx<'a> {
    uni: &'a UniformizedMrm,
    rc: &'a RewardClasses,
    phi: &'a [bool],
    psi: &'a [bool],
    lambda_t: f64,
    w: f64,
    max_depth: u64,
    mode_pmf: Option<f64>,
}

struct Counts {
    k: Vec<u32>,
    j: Vec<u32>,
}

fn visit(
    ctx: &ExploreCtx<'_>,
    counts: &mut Counts,
    out: &mut PathClasses,
    s: usize,
    n: u64,
    path_prob: f64,
    weighted: f64,
) {
    out.count_node(n);
    if ctx.psi[s] {
        out.store(&counts.k, &counts.j, path_prob);
    }
    let next_factor = ctx.lambda_t / (n + 1) as f64;
    for (target, p, impulse) in ctx.uni.transitions(s) {
        if !ctx.phi[target] && !ctx.psi[target] {
            continue;
        }
        let child_path = path_prob * p;
        let child_weighted = weighted * next_factor * p;
        let prune = match ctx.mode_pmf {
            None => child_weighted < ctx.w,
            Some(mode) => {
                let best = if (n + 1) as f64 >= ctx.lambda_t {
                    child_weighted
                } else {
                    child_path * mode
                };
                best < ctx.w
            }
        };
        if prune || n + 1 > ctx.max_depth {
            out.add_error(child_path * poisson::upper_tail(ctx.lambda_t, n + 1));
            continue;
        }
        let sc = ctx.rc.state_class(target);
        let ic = ctx.rc.impulse_class(impulse);
        counts.k[sc] += 1;
        counts.j[ic] += 1;
        visit(ctx, counts, out, target, n + 1, child_path, child_weighted);
        counts.k[sc] -= 1;
        counts.j[ic] -= 1;
    }
}

/// Assert that two explorations agree bit for bit.
fn assert_identical(fast: &PathClasses, slow: &PathClasses, what: &str) {
    let bits = |pc: &PathClasses| -> Vec<_> {
        pc.iter()
            .map(|(key, p)| (key.clone(), p.to_bits()))
            .collect()
    };
    assert_eq!(bits(fast), bits(slow), "{what}: classes or P(σ) bits");
    assert_eq!(
        fast.error_bound().to_bits(),
        slow.error_bound().to_bits(),
        "{what}: error bound bits"
    );
    assert_eq!(
        fast.explored_nodes(),
        slow.explored_nodes(),
        "{what}: explored nodes"
    );
    assert_eq!(
        fast.stored_paths(),
        slow.stored_paths(),
        "{what}: stored paths"
    );
    assert_eq!(
        fast.truncated_paths(),
        slow.truncated_paths(),
        "{what}: truncated paths"
    );
    assert_eq!(fast.max_depth(), slow.max_depth(), "{what}: max depth");
}

/// Compare the explorer against the reference from every start state of
/// `Φ U^{[0,t]} Ψ` on `mrm`, under the literal rule, the potential rule,
/// and a depth cap that binds. One explorer serves all start states of a
/// configuration, as in [`super::until_probabilities_all`].
fn check(mrm: &Mrm, phi: &[bool], psi: &[bool], t: f64, w: f64, what: &str) {
    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    let absorbed = make_absorbing(mrm, &absorb).unwrap();
    let uni = UniformizedMrm::new(&absorbed, None).unwrap();
    let rc = RewardClasses::new(&uni);
    let lambda_t = uni.lambda() * t;
    let literal = UniformOptions::new().with_truncation(w);
    let capped = UniformOptions {
        max_depth: 3,
        ..literal
    };
    for (rule, options) in [
        ("literal", literal),
        ("improved", literal.with_improved_pruning()),
        ("capped", capped),
    ] {
        let mut explorer = Explorer::new(&uni, &rc, phi, psi, lambda_t, &options);
        let mut deepest = 0;
        for start in 0..mrm.num_states() {
            let fast = explorer.explore(start);
            let slow = reference(&uni, &rc, phi, psi, start, lambda_t, &options);
            assert_identical(&fast, &slow, &format!("{what} {rule} from {start}"));
            deepest = deepest.max(fast.max_depth());
        }
        if rule == "capped" {
            assert_eq!(deepest, 3, "{what}: the depth cap must bind");
        }
    }
}

#[test]
fn wavelan_explorations_are_bitwise_identical() {
    let m = wavelan();
    let idle = m.labeling().states_with("idle");
    let busy = m.labeling().states_with("busy");
    check(&m, &idle, &busy, 0.5, 1e-10, "wavelan idle U busy");
    let all = vec![true; m.num_states()];
    check(&m, &all, &all, 0.2, 1e-7, "wavelan performability");
}

#[test]
fn tmr_explorations_are_bitwise_identical() {
    let m = tmr(&TmrConfig::classic());
    let sup = m.labeling().states_with("Sup");
    let failed = m.labeling().states_with("failed");
    for (t, w) in [(50.0, 1e-9), (200.0, 1e-8), (400.0, 1e-10)] {
        check(&m, &sup, &failed, t, w, &format!("tmr(3) t={t}"));
    }
    for config in [
        TmrConfig::with_modules(11),
        TmrConfig::with_modules(11).variable(),
    ] {
        let m = tmr(&config);
        let sup = m.labeling().states_with("Sup");
        let failed = m.labeling().states_with("failed");
        let what = format!("tmr(11) variable={}", config.variable_failure);
        check(&m, &sup, &failed, 100.0, 1e-7, &what);
    }
}

#[test]
fn phone_explorations_are_bitwise_identical() {
    let m = phone_with_impulses();
    let phi: Vec<bool> = (0..m.num_states())
        .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
        .collect();
    let psi = m.labeling().states_with("Call_Initiated");
    check(&m, &phi, &psi, 24.0, 1e-7, "phone");
}

#[test]
fn random_explorations_are_bitwise_identical() {
    let config = RandomMrmConfig::default();
    for seed in 0..32 {
        let m = random_mrm(seed, &config);
        // Φ leaves out every fifth state, so dead targets end paths too.
        let phi: Vec<bool> = (0..m.num_states()).map(|s| s % 5 != 4).collect();
        let psi = m.labeling().states_with("goal");
        check(&m, &phi, &psi, 1.0, 1e-6, &format!("random seed {seed}"));
    }
}
