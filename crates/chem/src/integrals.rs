//! Synthetic integral kernels.
//!
//! ACES III computes blocks of two-electron integrals on demand ("rather than
//! storing the entire array, each block of V is computed on demand using the
//! intrinsic super instruction compute_integrals") because the full array
//! would take ~800 GB. The reproduction keeps that structure with a
//! deterministic synthetic generator: smooth, decaying, permutationally
//! plausible values that are a pure function of the *global* element
//! coordinates — so every worker computes identical blocks, results are
//! reproducible, and reference values for tests are computable
//! independently.

use sia_runtime::trace::CostModel;
use sia_runtime::{SuperArg, SuperRegistry};
use std::sync::Arc;

/// The value of a synthetic two-electron integral ⟨μν|λσ⟩ at 0-based global
/// coordinates. Decays with index separation like a Coulomb kernel and keeps
/// the ⟨μν|λσ⟩ = ⟨λσ|μν⟩ = ⟨νμ|σλ⟩ symmetries.
pub fn eri(mu: usize, nu: usize, la: usize, si: usize) -> f64 {
    let d1 = mu.abs_diff(nu) as f64;
    let d2 = la.abs_diff(si) as f64;
    let d3 = (mu + nu).abs_diff(la + si) as f64;
    // Symmetric under μ↔ν, λ↔σ, and bra↔ket by construction.
    let charge = 1.0 + ((mu + nu + la + si) * 3 % 5) as f64 * 0.1;
    charge / ((1.0 + d1 + d2) * (1.0 + 0.5 * d3))
}

/// Decay rate of [`eri_screened`] per unit of bra/ket index separation.
/// Steep enough that blocks between well-separated segments fall below any
/// practical screening threshold (exp(-8·3) ≈ 4e-11 already).
pub const SCREENED_DECAY: f64 = 8.0;

/// A *screened* synthetic two-electron integral: [`eri`] damped by
/// exponential decay in the bra and ket index separations, the way integrals
/// over localized orbitals decay with distance (the regime Schwarz/Cauchy
/// screening exploits in production codes). Same symmetries as [`eri`];
/// most far-off-diagonal blocks have Frobenius norms far below 1e-10.
pub fn eri_screened(mu: usize, nu: usize, la: usize, si: usize) -> f64 {
    let d1 = mu.abs_diff(nu) as f64;
    let d2 = la.abs_diff(si) as f64;
    eri(mu, nu, la, si) * (-SCREENED_DECAY * (d1 + d2)).exp()
}

/// A synthetic one-electron (core Hamiltonian) element at 0-based global
/// coordinates.
pub fn oei(mu: usize, nu: usize) -> f64 {
    let d = mu.abs_diff(nu) as f64;
    let diag = if mu == nu {
        -2.0 - (mu % 7) as f64 * 0.2
    } else {
        0.0
    };
    diag - 0.5 / (1.0 + d * d)
}

/// A synthetic orbital energy (for MP2/CCSD denominators): occupied orbitals
/// negative, virtuals positive, monotone.
pub fn orbital_energy(p: usize, n_occ: usize) -> f64 {
    if p < n_occ {
        -2.0 + 1.5 * (p as f64 / n_occ.max(1) as f64)
    } else {
        0.2 + 0.01 * (p - n_occ) as f64
    }
}

/// A rank-`R` block argument taken apart: extents, the 0-based global
/// coordinate of its first element along each axis, and its storage.
struct Tile<'a, const R: usize> {
    dims: [usize; R],
    origin: [usize; R],
    data: &'a mut [f64],
}

/// The block argument of `who`, a kernel defined on rank-`R` blocks only.
/// `seg` turns the block's 1-based segment coordinates into its origin.
fn tile_of_rank<'a, const R: usize>(
    args: &'a mut [SuperArg],
    seg: usize,
    who: &str,
) -> Result<Tile<'a, R>, String> {
    let segs = args[0].segs()?;
    let segs: [i64; R] = segs
        .try_into()
        .map_err(|_| format!("{who} expects {R} segment coordinates, got {}", segs.len()))?;
    let block = args[0].block_mut()?;
    let shape = *block.shape();
    if shape.rank() != R {
        return Err(format!("{who} expects a rank-{R} block"));
    }
    let (mut dims, mut origin) = ([0usize; R], [0usize; R]);
    for d in 0..R {
        dims[d] = shape.dim(d);
        let first = usize::try_from(segs[d] - 1)
            .map_err(|_| format!("{who}: segment coordinate {} below 1", segs[d]))?;
        origin[d] = first * seg;
    }
    Ok(Tile {
        dims,
        origin,
        data: block.data_mut(),
    })
}

/// `x = elem(&row(i0,i1,i2), x, i3)` over a row-major rank-4 block: plain
/// nested loops and statically dispatched closures, with whatever depends on
/// the three outer indices alone computed once per row of the innermost.
fn map_rank4<T>(
    t: Tile<'_, 4>,
    row: impl Fn(usize, usize, usize) -> T,
    elem: impl Fn(&T, f64, usize) -> f64,
) {
    let [d0, d1, d2, d3] = t.dims;
    assert_eq!(t.data.len(), d0 * d1 * d2 * d3, "block length mismatch");
    let mut rows = t.data.chunks_exact_mut(d3);
    for i0 in 0..d0 {
        for i1 in 0..d1 {
            for i2 in 0..d2 {
                let outer = row(i0, i1, i2);
                let xs = rows.next().expect("d0*d1*d2 rows of d3");
                for (i3, x) in xs.iter_mut().enumerate() {
                    *x = elem(&outer, *x, i3);
                }
            }
        }
    }
}

/// [`map_rank4`] for a rank-2 block.
fn fill_rank2(t: Tile<'_, 2>, f: impl Fn(usize, usize) -> f64) {
    assert_eq!(t.data.len(), t.dims[0] * t.dims[1], "block length mismatch");
    for (i0, row) in t.data.chunks_exact_mut(t.dims[1]).enumerate() {
        for (i1, x) in row.iter_mut().enumerate() {
            *x = f(t.origin[0] + i0, t.origin[1] + i1);
        }
    }
}

/// The least and greatest `|a − b|` over `a` in `a0..a0 + na` and `b` in
/// `b0..b0 + nb`, both ranges non-empty.
fn separation_range(a0: usize, na: usize, b0: usize, nb: usize) -> (usize, usize) {
    let (a1, b1) = (a0 + na - 1, b0 + nb - 1);
    let least = b0.saturating_sub(a1).max(a0.saturating_sub(b1));
    (least, a1.abs_diff(b0).max(b1.abs_diff(a0)))
}

/// [`eri`] — or [`eri_screened`] if `screened` — over a rank-4 block, one
/// row of the innermost axis σ at a time, bit for bit the scalar function
/// at every element:
/// * `1 + |μ−ν|`, `μ+ν−λ` and `λ` are taken once per row;
/// * the charge `(μ+ν+λ+σ)·3 mod 5` has period 5 along σ, so a row's
///   charges are a window into one table laid out once per block;
/// * `|λ−σ|` and `|μ+ν−λ−σ|` are exact in `f64`, which leaves the inner
///   loop one division and a few multiplies and adds, free to vectorize;
/// * the screening `exp(−8·k)` depends only on the integer
///   `k = |μ−ν| + |λ−σ|`, so it comes from a table over the block's own
///   range of `k` — each entry is the very `exp` the scalar takes, since
///   `d1 + d2` is `k` exactly — laid out as one row of factors per
///   (`|μ−ν|`, λ).
fn fill_eri(t: Tile<'_, 4>, screened: bool) {
    let [n0, n1, n2, n3] = t.dims;
    let o = t.origin;
    assert_eq!(t.data.len(), n0 * n1 * n2 * n3, "block length mismatch");
    if t.data.is_empty() {
        return;
    }
    let sigma: Vec<f64> = (o[3]..o[3] + n3).map(|s| s as f64).collect();
    // `charges[p..p + n3]` is the row whose μ+ν+λ+σ₀ ≡ p (mod 5).
    let charges: Vec<f64> = (0..n3 + 4)
        .map(|j| 1.0 + (j * 3 % 5) as f64 * 0.1)
        .collect();
    // `damping[(b·n2 + i2)·n3..][..n3]` is the row at |μ−ν| = bra_least + b
    // and λ = o[2] + i2.
    let (bra_least, damping) = if screened {
        let (bra_least, bra_most) = separation_range(o[0], n0, o[1], n1);
        let (ket_least, ket_most) = separation_range(o[2], n2, o[3], n3);
        let decay: Vec<f64> = (bra_least + ket_least..=bra_most + ket_most)
            .map(|k| (-SCREENED_DECAY * k as f64).exp())
            .collect();
        let mut damping = Vec::with_capacity((bra_most - bra_least + 1) * n2 * n3);
        for b in 0..=bra_most - bra_least {
            for la in o[2]..o[2] + n2 {
                damping.extend((o[3]..o[3] + n3).map(|si| decay[b + la.abs_diff(si) - ket_least]));
            }
        }
        (bra_least, damping)
    } else {
        (0, Vec::new())
    };
    let mut rows = t.data.chunks_exact_mut(n3);
    for mu in o[0]..o[0] + n0 {
        for nu in o[1]..o[1] + n1 {
            let bra = 1.0 + mu.abs_diff(nu) as f64;
            for (i2, la) in (o[2]..o[2] + n2).enumerate() {
                let xs = rows.next().expect("n0*n1*n2 rows of n3");
                let phase = (mu + nu + la + o[3]) % 5;
                let row = xs.iter_mut().zip(&sigma).zip(&charges[phase..phase + n3]);
                let (lam, gap) = (la as f64, (mu + nu) as f64 - la as f64);
                let denominator = |s: f64| (bra + (lam - s).abs()) * (1.0 + 0.5 * (gap - s).abs());
                if screened {
                    let from = ((mu.abs_diff(nu) - bra_least) * n2 + i2) * n3;
                    for (((x, &s), &c), &d) in row.zip(&damping[from..from + n3]) {
                        *x = c / denominator(s) * d;
                    }
                } else {
                    for ((x, &s), &c) in row {
                        *x = c / denominator(s);
                    }
                }
            }
        }
    }
}

/// `compute_integrals` and its screened twin: [`eri`] (or [`eri_screened`])
/// on a rank-4 block, [`oei`] on a rank-2 block, zero on any other.
fn fill_integrals(args: &mut [SuperArg], seg: usize, screened: bool) -> Result<(), String> {
    match args[0].block_mut()?.shape().rank() {
        4 => fill_eri(tile_of_rank(args, seg, "compute_integrals")?, screened),
        2 => fill_rank2(tile_of_rank(args, seg, "compute_integrals")?, oei),
        _ => args[0].block_mut()?.data_mut().fill(0.0),
    }
    Ok(())
}

/// `compute_eps_*`: orbital energies of a rank-1 block whose first global
/// orbital is `first` past the block's own origin.
fn fill_energies(
    args: &mut [SuperArg],
    seg: usize,
    first: usize,
    n_occ: usize,
) -> Result<(), String> {
    let t = tile_of_rank::<1>(args, seg, "compute_eps")?;
    for (i, x) in t.data.iter_mut().enumerate() {
        *x = orbital_energy(t.origin[0] + first + i, n_occ);
    }
    Ok(())
}

/// `x = g(x, εi + εj − εa − εb)` over a block indexed `(i,a,j,b)` (the
/// MP2/CCSD energy denominator, virtuals offset by `n_occ` globals). The
/// sum is taken left to right, so `(εi + εj) − εa` is computed once per
/// `(i,a,j)` and only `− εb` is left to the inner loop.
fn map_denominator(
    args: &mut [SuperArg],
    seg: usize,
    n_occ: usize,
    who: &str,
    g: impl Fn(f64, f64) -> f64,
) -> Result<(), String> {
    let t = tile_of_rank::<4>(args, seg, who)?;
    let (o, dims) = (t.origin, t.dims);
    let energies = |first: usize, n: usize| -> Vec<f64> {
        (first..first + n)
            .map(|p| orbital_energy(p, n_occ))
            .collect()
    };
    let (ei, ea) = (energies(o[0], dims[0]), energies(o[1] + n_occ, dims[1]));
    let (ej, eb) = (energies(o[2], dims[2]), energies(o[3] + n_occ, dims[3]));
    map_rank4(
        t,
        |i, a, j| ei[i] + ej[j] - ea[a],
        |iaj, x, b| g(x, iaj - eb[b]),
    );
    Ok(())
}

/// Registers the chemistry kernels on a registry:
///
/// * `compute_integrals B(μ,ν,λ,σ)` — synthetic ERIs;
/// * `compute_oei B(μ,ν)` — synthetic core Hamiltonian;
/// * `compute_eps_occ B(p)` / `compute_eps_virt B(p)` — orbital energies
///   (virtuals offset by `n_occ` globals);
/// * `invert_denominator B(i,a,j,b)` — replaces each element with
///   `1 / (εi + εj − εa − εb)` (the MP2/CCSD energy denominator);
/// * `scale_by_denominator B(i,a,j,b)` — divides each element by it.
///
/// `seg` must equal the SIP's segment size; `n_occ` fixes the occupied count
/// for energies/denominators.
pub fn register_integrals(reg: &mut SuperRegistry, seg: usize, n_occ: usize) {
    reg.register("compute_integrals", move |args, _env| {
        fill_integrals(args, seg, false)
    });
    reg.register("compute_screened_integrals", move |args, _env| {
        fill_integrals(args, seg, true)
    });
    reg.register("compute_oei", move |args, _env| {
        fill_rank2(tile_of_rank(args, seg, "compute_oei")?, oei);
        Ok(())
    });
    reg.register("compute_eps_occ", move |args, _env| {
        fill_energies(args, seg, 0, n_occ)
    });
    reg.register("compute_eps_virt", move |args, _env| {
        fill_energies(args, seg, n_occ, n_occ)
    });
    reg.register("invert_denominator", move |args, _env| {
        map_denominator(args, seg, n_occ, "invert_denominator", |_, d| 1.0 / d)
    });
    // Elementwise product against a freshly computed denominator block:
    // B *= 1/(εi+εj−εa−εb). Used by MP2/CCSD amplitude updates.
    reg.register("scale_by_denominator", move |args, _env| {
        map_denominator(args, seg, n_occ, "scale_by_denominator", |x, d| x / d)
    });
}

/// Cost model for the trace generator: two-electron integral evaluation over
/// contracted Gaussian basis sets costs hundreds of flops per output element
/// (primitive quartets × contraction depth; ~500/element is representative
/// for triple-zeta sets of the era), other kernels a handful per element.
pub fn integral_cost_model() -> CostModel {
    Arc::new(|name, shapes| {
        let elems: u64 = shapes.iter().map(|s| s.len() as u64).sum();
        match name {
            "compute_integrals" | "compute_screened_integrals" => 500 * elems,
            "compute_oei" => 50 * elems,
            _ => 4 * elems,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::{Block, Shape};
    use sia_runtime::SuperEnv;

    #[test]
    fn eri_symmetries() {
        for (m, n, l, s) in [(0, 3, 5, 2), (1, 1, 4, 7), (9, 2, 0, 0)] {
            let v = eri(m, n, l, s);
            assert_eq!(v, eri(l, s, m, n), "bra-ket symmetry");
            assert_eq!(v, eri(n, m, s, l), "index-swap symmetry");
        }
    }

    #[test]
    fn eri_decays() {
        assert!(eri(0, 0, 0, 0) > eri(0, 10, 0, 10));
        assert!(eri(0, 1, 0, 1) > eri(0, 1, 40, 41));
    }

    #[test]
    fn oei_diagonal_dominant_negative() {
        assert!(oei(3, 3) < oei(3, 4));
        assert!(oei(0, 0) < -1.0);
    }

    #[test]
    fn orbital_energies_ordered() {
        let nocc = 5;
        for p in 0..nocc {
            assert!(orbital_energy(p, nocc) < 0.0);
        }
        for p in nocc..nocc + 5 {
            assert!(orbital_energy(p, nocc) > 0.0);
        }
        assert!(orbital_energy(0, nocc) < orbital_energy(4, nocc));
    }

    #[test]
    fn registered_kernel_fills_globals() {
        let mut reg = SuperRegistry::new();
        register_integrals(&mut reg, 2, 2);
        let mut args = vec![SuperArg::Block {
            segs: vec![2, 1, 1, 1],
            block: Block::zeros(Shape::new(&[2, 2, 2, 2])),
        }];
        reg.invoke(
            "compute_integrals",
            &mut args,
            &SuperEnv {
                worker: 0,
                workers: 1,
            },
        )
        .unwrap();
        let b = args[0].block_mut().unwrap();
        // Element (0,0,0,0) of block (2,1,1,1) is global (2,0,0,0).
        assert!((b.get(&[0, 0, 0, 0]) - eri(2, 0, 0, 0)).abs() < 1e-15);
        assert!((b.get(&[1, 1, 1, 1]) - eri(3, 1, 1, 1)).abs() < 1e-15);
    }

    fn invoke(name: &str, seg: usize, n_occ: usize, segs: &[i64], block: Block) -> Block {
        let mut reg = SuperRegistry::new();
        register_integrals(&mut reg, seg, n_occ);
        let mut args = vec![SuperArg::Block {
            segs: segs.to_vec(),
            block,
        }];
        let env = SuperEnv {
            worker: 0,
            workers: 1,
        };
        reg.invoke(name, &mut args, &env).unwrap();
        args[0].block_mut().unwrap().clone()
    }

    /// The loop kernels produce, bit for bit, what the scalar functions
    /// return at every element's global coordinates — at the first segment
    /// and at offset ones, on extents that differ per axis.
    #[test]
    fn block_kernels_are_bitwise_the_scalar_functions() {
        let n_occ = 7;
        // The integral kernels work a row of σ at a time: rows shorter and
        // longer than the charge's period 5, several rows per block, and a
        // 16⁴ block whose screening table starts above separation 0.
        for (seg, segs, dims) in [
            (5, [1i64, 1, 1, 1], [2, 5, 3, 4]),
            (5, [3, 1, 4, 2], [2, 5, 3, 4]),
            (7, [1, 1, 1, 1], [3, 2, 4, 7]),
            (7, [3, 1, 4, 2], [3, 2, 4, 7]),
            (16, [2, 4, 1, 5], [16, 16, 16, 16]),
        ] {
            let g = |d: usize, i: usize| (segs[d] as usize - 1) * seg + i;
            let shape = Shape::new(&dims);
            for (name, f) in [
                (
                    "compute_integrals",
                    eri as fn(usize, usize, usize, usize) -> f64,
                ),
                ("compute_screened_integrals", eri_screened),
            ] {
                let b = invoke(name, seg, n_occ, &segs, Block::zeros(shape));
                for idx in shape.indices() {
                    let want = f(g(0, idx[0]), g(1, idx[1]), g(2, idx[2]), g(3, idx[3]));
                    assert_eq!(b.get(&idx[..4]).to_bits(), want.to_bits(), "{name} {idx:?}");
                }
            }
        }
        let seg = 5;
        for segs in [[1i64, 1, 1, 1], [3, 1, 4, 2]] {
            let g = |d: usize, i: usize| (segs[d] as usize - 1) * seg + i;
            let shape4 = Shape::new(&[2, 5, 3, 4]);
            let shape2 = Shape::new(&[4, 5]);
            for name in ["compute_integrals", "compute_oei"] {
                let b = invoke(name, seg, n_occ, &segs[..2], Block::zeros(shape2));
                for idx in shape2.indices() {
                    let want = oei(g(0, idx[0]), g(1, idx[1]));
                    assert_eq!(b.get(&idx[..2]).to_bits(), want.to_bits(), "{name} {idx:?}");
                }
            }
            // Denominators, in the order the scalar expression sums them.
            let start = Block::from_fn(shape4, |i| {
                1.0 + (i[0] + 2 * i[1] + 3 * i[2] + 5 * i[3]) as f64
            });
            let inverted = invoke("invert_denominator", seg, n_occ, &segs, start.clone());
            let scaled = invoke("scale_by_denominator", seg, n_occ, &segs, start.clone());
            for idx in shape4.indices() {
                let idx = &idx[..4];
                let e = |d: usize, virt: usize| orbital_energy(g(d, idx[d]) + virt, n_occ);
                let denom = e(0, 0) + e(2, 0) - e(1, n_occ) - e(3, n_occ);
                assert_eq!(inverted.get(idx).to_bits(), (1.0 / denom).to_bits());
                assert_eq!(
                    scaled.get(idx).to_bits(),
                    (start.get(idx) / denom).to_bits()
                );
            }
            let occ = invoke(
                "compute_eps_occ",
                seg,
                n_occ,
                &segs[..1],
                Block::zeros(Shape::new(&[5])),
            );
            let virt = invoke(
                "compute_eps_virt",
                seg,
                n_occ,
                &segs[..1],
                Block::zeros(Shape::new(&[5])),
            );
            for i in 0..5 {
                assert_eq!(
                    occ.get(&[i]).to_bits(),
                    orbital_energy(g(0, i), n_occ).to_bits()
                );
                assert_eq!(
                    virt.get(&[i]).to_bits(),
                    orbital_energy(g(0, i) + n_occ, n_occ).to_bits()
                );
            }
        }
    }

    #[test]
    fn kernels_reject_blocks_of_the_wrong_rank() {
        let mut reg = SuperRegistry::new();
        register_integrals(&mut reg, 2, 2);
        let env = SuperEnv {
            worker: 0,
            workers: 1,
        };
        for name in ["invert_denominator", "scale_by_denominator", "compute_oei"] {
            let mut args = vec![SuperArg::Block {
                segs: vec![1, 1, 1],
                block: Block::zeros(Shape::new(&[2, 2, 2])),
            }];
            assert!(reg.invoke(name, &mut args, &env).is_err(), "{name}");
        }
    }

    #[test]
    fn denominators_negative_for_ground_state() {
        let mut reg = SuperRegistry::new();
        register_integrals(&mut reg, 2, 4);
        let mut args = vec![SuperArg::Block {
            segs: vec![1, 1, 1, 1],
            block: Block::filled(Shape::new(&[2, 2, 2, 2]), 1.0),
        }];
        reg.invoke(
            "invert_denominator",
            &mut args,
            &SuperEnv {
                worker: 0,
                workers: 1,
            },
        )
        .unwrap();
        let b = args[0].block_mut().unwrap();
        assert!(
            b.data().iter().all(|&x| x < 0.0),
            "εocc − εvirt denominators are negative"
        );
    }

    #[test]
    fn cost_model_charges_integrals_more() {
        let cm = integral_cost_model();
        let shapes = [Shape::new(&[4, 4])];
        assert!(cm("compute_integrals", &shapes) > cm("other", &shapes));
    }
}
