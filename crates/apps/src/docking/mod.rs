//! Use Case 1: computer-accelerated drug discovery.
//!
//! "Computational discovery of new drugs is a compute-intensive task ...
//! Typical problems include the prediction of properties of protein-ligand
//! complexes (such as docking and affinity) ... massively parallel, but
//! demonstrate unpredictable imbalances in the computational time" (§VII-a).
//!
//! The pipeline mirrors LiGen's geometric docking stage: each ligand is
//! rigidly rotated into a number of candidate *poses* and scored against
//! the pocket; the best pose wins. Per-ligand cost scales with
//! `atoms × pocket_spheres × poses` — and since library molecules vary
//! heavily in size, so does the runtime.

pub mod molecule;
pub(crate) mod pipeline;
pub mod scoring;

pub use molecule::{generate_library, generate_pocket, Ligand};
pub use pipeline::DockingCampaign;
pub use scoring::dock_ligand;
