//! Property-based tests for the logic crate.
//!
//! The two contracts that the synthesis engine's correctness rests on:
//!
//! 1. **Enclosure** — for any term `t` and any point `p` in a box `B`,
//!    `eval(t, p) ∈ ieval(t, B)`, and interval formula verdicts agree with
//!    exact evaluation (True ⇒ eval true, False ⇒ eval false).
//! 2. **Simplification** — `simplify(t)` evaluates identically to `t` on
//!    every error-free input.

use cso_logic::eval::{eval_formula, eval_term};
use cso_logic::ieval::{ieval_formula, ieval_term, Tri};
use cso_logic::simplify::{simplify_formula, simplify_term};
use cso_logic::solver::{Outcome, Solver, SolverConfig};
use cso_logic::{BoxDomain, CmpOp, Formula, Term, VarId};
use cso_numeric::{Interval, Rat};
use cso_runtime::prop::{self, int_in, one_of, recursive, vec_of, zip2, zip3, Config, Gen};
use cso_runtime::{prop_assert, prop_assert_eq};

const NVARS: usize = 3;

fn cfg128() -> Config {
    Config { cases: 128, ..Config::default() }
}

/// Random division-free term over NVARS variables (division would make the
/// "error-free" precondition fiddly; dedicated unit tests cover Div).
fn arb_term() -> Gen<Term> {
    let leaf = one_of(vec![
        int_in(-50, 49).map(Term::int),
        int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize))),
    ]);
    recursive(leaf, 4, |inner| {
        one_of(vec![
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.min(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.max(b)),
            inner.clone().map(Term::neg),
            zip3(inner.clone(), inner.clone(), inner)
                .map(|(c, a, b)| Term::ite(c.ge(Term::int(0)), a, b)),
        ])
    })
}

fn arb_formula() -> Gen<Formula> {
    let atom = zip3(arb_term(), arb_term(), int_in(0, 5)).map(|(a, b, op)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        Formula::cmp(op, a, b)
    });
    recursive(atom, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1, 2).map(Formula::and),
            vec_of(inner.clone(), 1, 2).map(Formula::or),
            inner.map(Formula::not),
        ])
    })
}

/// A box over NVARS vars plus a point inside it.
fn arb_box_and_point() -> Gen<(BoxDomain, Vec<Rat>)> {
    vec_of(zip3(int_in(-20, 19), int_in(0, 9), int_in(0, 100)), NVARS, NVARS).map(|dims| {
        let mut dom = BoxDomain::with_len(NVARS);
        let mut pt = Vec::new();
        for (i, (lo, w, frac)) in dims.into_iter().enumerate() {
            let lo_r = Rat::from_int(lo);
            let hi_r = Rat::from_int(lo + w);
            dom.set(VarId::from_index(i), Interval::new(lo_r.to_f64(), hi_r.to_f64()));
            // Point at lo + w * frac/100: exactly representable rational.
            let p = &lo_r + &(Rat::from_int(w) * Rat::from_frac(frac, 100));
            pt.push(p);
        }
        (dom, pt)
    })
}

#[test]
fn term_enclosure() {
    prop::check_with(
        &cfg128(),
        "term_enclosure",
        &zip2(arb_box_and_point(), arb_term()),
        |((dom, pt), t)| {
            let exact = eval_term(t, pt).expect("division-free term");
            let iv = ieval_term(t, dom);
            prop_assert!(
                iv.contains_f64(exact.to_f64())
                    // Allow one ulp of slack when converting the exact value itself.
                    || iv.contains_f64(exact.to_f64().next_down())
                    || iv.contains_f64(exact.to_f64().next_up()),
                "value {exact} outside enclosure {iv} for {t}"
            );
            Ok(())
        },
    );
}

#[test]
fn formula_verdict_sound() {
    prop::check_with(
        &cfg128(),
        "formula_verdict_sound",
        &zip2(arb_box_and_point(), arb_formula()),
        |((dom, pt), f)| {
            let exact = eval_formula(f, pt).expect("division-free formula");
            match ieval_formula(f, dom) {
                Tri::True => prop_assert!(exact, "Tri::True but point falsifies {f}"),
                Tri::False => prop_assert!(!exact, "Tri::False but point satisfies {f}"),
                Tri::Unknown => {}
            }
            Ok(())
        },
    );
}

#[test]
fn simplify_term_preserves_semantics() {
    prop::check_with(
        &cfg128(),
        "simplify_term_preserves_semantics",
        &zip2(arb_box_and_point(), arb_term()),
        |((_, pt), t)| {
            let s = simplify_term(t);
            let a = eval_term(t, pt).unwrap();
            let b = eval_term(&s, pt).unwrap();
            prop_assert_eq!(a, b, "simplify changed {} -> {}", t, s);
            Ok(())
        },
    );
}

#[test]
fn simplify_formula_preserves_semantics() {
    prop::check_with(
        &cfg128(),
        "simplify_formula_preserves_semantics",
        &zip2(arb_box_and_point(), arb_formula()),
        |((_, pt), f)| {
            let s = simplify_formula(f);
            let a = eval_formula(f, pt).unwrap();
            let b = eval_formula(&s, pt).unwrap();
            prop_assert_eq!(a, b, "simplify changed {} -> {}", f, s);
            Ok(())
        },
    );
}

#[test]
fn simplify_never_grows() {
    prop::check_with(&cfg128(), "simplify_never_grows", &arb_term(), |t| {
        prop_assert!(simplify_term(t).size() <= t.size());
        Ok(())
    });
}

#[test]
fn solver_sat_models_are_certified() {
    prop::check_with(&cfg128(), "solver_sat_models_are_certified", &arb_formula(), |f| {
        let mut dom = BoxDomain::with_len(NVARS);
        for i in 0..NVARS {
            dom.set(VarId::from_index(i), Interval::new(-10.0, 10.0));
        }
        let cfg = SolverConfig { max_boxes: 2_000, initial_samples: 64, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        // Unsat / DeltaUnsat / Exhausted are all acceptable for random
        // formulas; only a Sat claim carries a certificate to check.
        if let Outcome::Sat(m) = s.solve(f, &dom) {
            prop_assert!(eval_formula(f, m.values()).unwrap(), "uncertified model for {}", f);
            // Model inside the box.
            for (i, v) in m.values().iter().enumerate() {
                let x = v.to_f64();
                prop_assert!((-10.0..=10.0).contains(&x), "var {i} = {x} out of box");
            }
        }
        Ok(())
    });
}

#[test]
fn solver_unsat_is_sound() {
    prop::check_with(
        &cfg128(),
        "solver_unsat_is_sound",
        &zip2(arb_term(), int_in(1, 49)),
        |(t, k)| {
            // t - t + k > 2k is always false; solver must never claim Sat.
            let f = t.clone().sub(t.clone()).add(Term::int(*k)).gt(Term::int(2 * k));
            let mut dom = BoxDomain::with_len(NVARS);
            for i in 0..NVARS {
                dom.set(VarId::from_index(i), Interval::new(-5.0, 5.0));
            }
            let cfg =
                SolverConfig { max_boxes: 5_000, initial_samples: 16, ..SolverConfig::default() };
            let mut s = Solver::new(cfg);
            let out = s.solve(&f, &dom);
            prop_assert!(!matches!(out, Outcome::Sat(_)), "claimed sat for unsat formula");
            Ok(())
        },
    );
}

/// Random term over NVARS variables *with* division and inexact rational
/// constants (e.g. `1/3`, whose `f64` enclosure must be widened outward).
/// Only the tape differential properties use it: they compare the two
/// evaluators bit for bit, errors included, so partiality is welcome.
fn arb_term_partial() -> Gen<Term> {
    let leaf = one_of(vec![
        int_in(-50, 49).map(Term::int),
        zip2(int_in(-9, 9), int_in(1, 7)).map(|(n, d)| Term::constant(Rat::from_frac(n, d))),
        int_in(0, NVARS as i64 - 1).map(|i| Term::var(VarId::from_index(i as usize))),
    ]);
    recursive(leaf, 3, |inner| {
        one_of(vec![
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.add(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.sub(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.mul(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.div(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.min(b)),
            zip2(inner.clone(), inner.clone()).map(|(a, b)| a.max(b)),
            zip3(inner.clone(), inner.clone(), inner)
                .map(|(c, a, b)| Term::ite(c.ge(Term::int(0)), a, b)),
        ])
    })
}

fn arb_formula_partial() -> Gen<Formula> {
    let atom = zip3(arb_term_partial(), arb_term_partial(), int_in(0, 5)).map(|(a, b, op)| {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op as usize];
        Formula::cmp(op, a, b)
    });
    recursive(atom, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1, 3).map(Formula::and),
            vec_of(inner.clone(), 1, 2).map(Formula::or),
            inner.map(Formula::not),
        ])
    })
}

/// The compiled tape's interval interpreter is decision-identical to the
/// tree walker: for every conjunct of the prepared query and every box,
/// the batched tape verdict equals `ieval_formula` — including on random
/// *sub-boxes* of the seed domain, where domain seeding may replay cached
/// decided verdicts instead of re-evaluating.
#[test]
fn tape_interval_verdicts_match_tree_walker() {
    use cso_logic::{CompiledQuery, TapeScratch};
    prop::check_with(
        &cfg128(),
        "tape_interval_verdicts_match_tree_walker",
        &zip2(arb_box_and_point(), arb_formula_partial()),
        |((dom, pt), f)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) }; // trivial query
                                                             // A sub-box of the seed domain: shrink each dim toward `pt`.
            let mut sub = dom.clone();
            for (i, iv) in dom.intervals().iter().enumerate() {
                let p = pt[i].to_f64();
                sub.set(VarId::from_index(i), Interval::new((iv.lo() + p) / 2.0, p.max(iv.lo())));
            }
            let mut scratch = TapeScratch::new();
            let cis: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
            let mut out = Vec::new();
            tape.verdicts(&[dom, &sub], &cis, &mut scratch, &mut out);
            for (b, d) in [dom, &sub].into_iter().enumerate() {
                for (j, c) in q.conjuncts.iter().enumerate() {
                    let tree = ieval_formula(c, d);
                    let got = out[b * cis.len() + j];
                    prop_assert_eq!(got, tree, "conjunct {} of {} over box {}", j, f, b);
                }
            }
            Ok(())
        },
    );
}

/// The tape's exact interpreter replays `eval_formula` bit for bit —
/// same verdicts, same errors (division by zero surfaces from the same
/// operand order, untaken `ite` branches never evaluate).
#[test]
fn tape_exact_eval_matches_eval_formula() {
    use cso_logic::{CompiledQuery, ExactScratch, TapeScratch};
    prop::check_with(
        &cfg128(),
        "tape_exact_eval_matches_eval_formula",
        &zip2(arb_box_and_point(), arb_formula_partial()),
        |((dom, pt), f)| {
            let q = CompiledQuery::prepare(f, Some(dom), true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let tree = eval_formula(&q.simplified, pt);
            let mut ex = ExactScratch::new();
            let got = tape.eval_exact(pt, &mut ex);
            prop_assert_eq!(&got, &tree, "exact replay diverged on {}", f);
            // The interval point fast path is sound: a refuted point can
            // never be a model.
            let mut iv = TapeScratch::new();
            if tape.refutes_point(pt, &mut iv) {
                prop_assert!(!matches!(tree, Ok(true)), "refutes_point rejected a model of {}", f);
            }
            Ok(())
        },
    );
}

/// Batched SoA evaluation is just a layout change: verdicts over a batch
/// of boxes equal the verdicts of each box evaluated alone.
#[test]
fn tape_batched_verdicts_match_single_box() {
    use cso_logic::{CompiledQuery, TapeScratch};
    prop::check_with(
        &cfg128(),
        "tape_batched_verdicts_match_single_box",
        &zip3(arb_box_and_point(), arb_box_and_point(), arb_formula_partial()),
        |((d1, _), (d2, _), f)| {
            let q = CompiledQuery::prepare(f, None, true);
            let Some(tape) = &q.tape else { return Ok(()) };
            let cis: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
            let mut scratch = TapeScratch::new();
            let mut batched = Vec::new();
            tape.verdicts(&[d1, d2], &cis, &mut scratch, &mut batched);
            for (b, d) in [d1, d2].into_iter().enumerate() {
                let mut single = Vec::new();
                tape.verdicts(&[d], &cis, &mut scratch, &mut single);
                prop_assert_eq!(
                    &batched[b * cis.len()..(b + 1) * cis.len()],
                    &single[..],
                    "batch row {} diverged for {}",
                    b,
                    f
                );
            }
            Ok(())
        },
    );
}

/// Shrinking smoke test: force a failure on a structural property and
/// check the harness hands back a *minimal* term, not the first random
/// counterexample. "Contains a Mul node" should shrink to a bare product
/// of two leaves (size 3).
#[test]
fn shrinking_reaches_minimal_term() {
    fn has_mul(t: &Term) -> bool {
        t.size() >= 3 && format!("{t}").contains('*')
    }
    let out = prop::check_result(&Config::default(), &arb_term(), &|t: &Term| {
        if has_mul(t) {
            Err(prop::CaseError::Fail(format!("found mul in {t}")))
        } else {
            Ok(())
        }
    });
    let failure = out.expect_err("mul terms are reachable");
    assert!(has_mul(&failure.value), "shrunk value still fails");
    assert!(
        failure.value.size() <= 3,
        "minimal mul term has two leaf operands, got {} (size {})",
        failure.value,
        failure.value.size()
    );
}
