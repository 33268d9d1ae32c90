//! Synthetic molecules: ligands and a binding pocket.

use antarex_sim::workload::lognormal;
use rand::Rng;

/// One atom: position plus van-der-Waals radius and partial charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Position in Å.
    pub pos: [f64; 3],
    /// Van-der-Waals radius in Å.
    pub radius: f64,
    /// Partial charge (electron units).
    pub charge: f64,
}

/// A small-molecule ligand.
#[derive(Debug, Clone, PartialEq)]
pub struct Ligand {
    /// Library identifier.
    pub id: u64,
    /// Atoms around the centroid.
    pub atoms: Vec<Atom>,
}

impl Ligand {
    /// Number of heavy atoms.
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// Geometric centroid.
    pub(crate) fn centroid(&self) -> [f64; 3] {
        let n = self.atoms.len().max(1) as f64;
        let mut c = [0.0; 3];
        for atom in &self.atoms {
            for (axis, coord) in c.iter_mut().enumerate() {
                *coord += atom.pos[axis] / n;
            }
        }
        c
    }
}

/// A rigid binding pocket: negative-space probe spheres plus their
/// chemical preference.
#[derive(Debug, Clone, PartialEq)]
pub struct Pocket {
    /// Probe spheres the ligand should fill.
    pub spheres: Vec<Atom>,
}

impl Pocket {
    /// Number of probe spheres.
    pub(crate) fn size(&self) -> usize {
        self.spheres.len()
    }
}

/// Generates a random ligand with the given atom count: a self-avoiding
/// blob of atoms within a ~1 Å bond-length scale.
pub fn generate_ligand(id: u64, atoms: usize, rng: &mut impl Rng) -> Ligand {
    let mut list = Vec::with_capacity(atoms);
    let mut pos = [0.0f64; 3];
    for _ in 0..atoms {
        for p in &mut pos {
            *p += rng.gen_range(-0.9..0.9);
        }
        list.push(Atom {
            pos,
            radius: rng.gen_range(1.2..1.9),
            charge: rng.gen_range(-0.5..0.5),
        });
    }
    Ligand { id, atoms: list }
}

/// Generates a screening library with lognormal molecule sizes
/// (median `median_atoms`, log-σ 0.5: a realistic 8–120 atom spread).
pub fn generate_library(count: usize, median_atoms: usize, rng: &mut impl Rng) -> Vec<Ligand> {
    (0..count)
        .map(|i| {
            let atoms = ((median_atoms as f64) * lognormal(rng, 0.0, 0.5))
                .round()
                .clamp(4.0, 250.0) as usize;
            generate_ligand(i as u64, atoms, rng)
        })
        .collect()
}

/// Generates a pocket of `spheres` probe points in a rough ellipsoid.
pub fn generate_pocket(spheres: usize, rng: &mut impl Rng) -> Pocket {
    let spheres = (0..spheres)
        .map(|_| Atom {
            pos: [
                rng.gen_range(-6.0..6.0),
                rng.gen_range(-4.0..4.0),
                rng.gen_range(-4.0..4.0),
            ],
            radius: rng.gen_range(1.4..2.2),
            charge: rng.gen_range(-0.4..0.4),
        })
        .collect();
    Pocket { spheres }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ligand_generation_is_connected_ish() {
        let mut rng = StdRng::seed_from_u64(1);
        let ligand = generate_ligand(0, 30, &mut rng);
        assert_eq!(ligand.size(), 30);
        // consecutive atoms are within bonding-ish distance
        for pair in ligand.atoms.windows(2) {
            let d: f64 = (0..3)
                .map(|k| (pair[0].pos[k] - pair[1].pos[k]).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(d < 2.0, "chain break: {d}");
        }
    }

    #[test]
    fn library_sizes_are_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(2);
        let library = generate_library(500, 24, &mut rng);
        let mut sizes: Vec<usize> = library.iter().map(Ligand::size).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        assert!((18..=32).contains(&median), "median {median}");
        let max = *sizes.last().unwrap();
        assert!(max > median * 2, "max {max} vs median {median}");
        // ids are unique and sequential
        assert_eq!(library[7].id, 7);
    }

    #[test]
    fn centroid_of_symmetric_pair() {
        let ligand = Ligand {
            id: 0,
            atoms: vec![
                Atom {
                    pos: [1.0, 0.0, 0.0],
                    radius: 1.5,
                    charge: 0.0,
                },
                Atom {
                    pos: [-1.0, 0.0, 0.0],
                    radius: 1.5,
                    charge: 0.0,
                },
            ],
        };
        assert_eq!(ligand.centroid(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn pocket_generation() {
        let mut rng = StdRng::seed_from_u64(3);
        let pocket = generate_pocket(40, &mut rng);
        assert_eq!(pocket.size(), 40);
        assert!(pocket.spheres.iter().all(|s| s.radius > 0.0));
    }
}
