//! Multi-tenant runtime pools: many concurrent data environments over
//! one shared [`MappingTable`].
//!
//! A [`TenantPool`] captures a fully-configured [`RuntimeBuilder`]
//! recipe plus one shared table; [`TenantPool::tenant`] then stamps out
//! independent [`Tenant`] runtimes, each with its own overhead ledger,
//! telemetry ring, lookup cache, and fault-plan slice, but all
//! inserting into the one shared table.
//!
//! ## Tenant lifecycle
//!
//! 1. Build a recipe (`OmpRuntime::builder()...`), hand it to
//!    [`TenantPool::new`].
//! 2. Call [`TenantPool::tenant(id)`](TenantPool::tenant) from any
//!    thread — tenants are `Send`, so a work-stealing pool can create
//!    and drive them wherever a worker is free.
//! 3. Drive the tenant exactly like an [`OmpRuntime`] (it derefs to
//!    one) and `finish()` it for a per-tenant [`RunReport`]
//!    (`RunReport` via [`Tenant::into_runtime`]).
//! 4. When every tenant has released its maps, the shared table is
//!    empty again ([`TenantPool::live_total`] == 0) — leaks are
//!    attributed per tenant by the sanitizer's windowed end-of-program
//!    scan.
//!
//! ## Isolation contract
//!
//! Tenant `id` allocates inside the host-VA window
//! `[HOST_VA_BASE + id·TENANT_VA_STRIDE, HOST_VA_BASE + (id+1)·TENANT_VA_STRIDE)`,
//! so no two tenants' extents can overlap and no tenant's table
//! mutation can change another's presence answers. Consequently a
//! tenant's results — ledger, memory digest, telemetry fold,
//! diagnostics — are byte-equal whether it runs alone or interleaved
//! with any schedule of other tenants (the soak test pins this).
//! Tenant 0's window starts at the historical `HOST_VA_BASE` with zero
//! shift and a verbatim fault plan, so a single-tenant pool run is
//! bit-identical to a plain solo runtime.

use crate::builder::RuntimeBuilder;
use crate::error::OmpError;
use crate::runtime::OmpRuntime;
use crate::table::MappingTable;
use sim_des::FaultPlan;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Host-VA bytes between consecutive tenant windows: 1 TiB, far above
/// any simulated program's footprint.
pub const TENANT_VA_STRIDE: u64 = 1 << 40;

/// Exclusive upper bound on tenant ids: the windows must fit between
/// `HOST_VA_BASE` (0x5000_0000_0000) and `POOL_VA_BASE`
/// (0x7000_0000_0000), i.e. 32 TiB of host VA.
pub const MAX_TENANTS: u32 =
    ((apu_mem::POOL_VA_BASE - apu_mem::HOST_VA_BASE) / TENANT_VA_STRIDE) as u32;

/// A factory for concurrent tenants of one shared mapping table.
#[derive(Debug, Clone)]
pub struct TenantPool {
    recipe: RuntimeBuilder,
    table: Arc<MappingTable>,
}

impl TenantPool {
    /// Wrap a fully-configured builder recipe. Every
    /// [`tenant`](Self::tenant) built later clones this recipe; the
    /// recipe's own `mem_options` VA shift and any tenant attachment are
    /// overridden per tenant.
    pub fn new(recipe: RuntimeBuilder) -> Self {
        TenantPool {
            recipe,
            table: Arc::new(MappingTable::new()),
        }
    }

    /// The shared mapping table.
    pub fn table(&self) -> &Arc<MappingTable> {
        &self.table
    }

    /// Live entries across every tenant (0 when all tenants exited
    /// their data environments cleanly).
    pub fn live_total(&self) -> usize {
        self.table.len()
    }

    /// Build tenant `id`'s runtime: the recipe, attached to the shared
    /// table, shifted into window `id`, with the fault plan re-seeded
    /// per tenant (id 0 keeps the recipe's plan verbatim, preserving
    /// solo bit-identity).
    pub fn tenant(&self, id: u32) -> Result<Tenant, OmpError> {
        if id >= MAX_TENANTS {
            return Err(OmpError::TenantOutOfRange {
                id,
                max: MAX_TENANTS,
            });
        }
        let mut recipe = self.recipe.clone();
        if id > 0 {
            if let Some(plan) = recipe.fault_plan_ref().cloned() {
                recipe = recipe.fault_plan(derive_tenant_plan(&plan, id));
            }
        }
        let rt = recipe.attach_tenant(Arc::clone(&self.table), id).build()?;
        Ok(Tenant { id, rt })
    }
}

/// Tenant `id`'s slice of a base fault plan: same spec (rates, burst,
/// deployment XNACK properties), independent random streams. Tenant 0
/// is never routed here — its plan is the base plan verbatim.
fn derive_tenant_plan(base: &FaultPlan, id: u32) -> FaultPlan {
    let seed = base
        .seed()
        .wrapping_add(u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan =
        FaultPlan::new(seed, *base.spec()).with_xnack_unavailable(base.xnack_unavailable());
    if let Some(kernels) = base.xnack_flip_after() {
        plan = plan.with_xnack_flip_after(kernels);
    }
    plan
}

/// One tenant's runtime: an [`OmpRuntime`] bound to its pool's shared
/// table and its own VA window. Derefs to the runtime, so the whole
/// data-environment API is available directly.
pub struct Tenant {
    id: u32,
    rt: OmpRuntime,
}

impl Tenant {
    /// This tenant's id (and VA-window index).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Unwrap into the runtime, e.g. to call
    /// [`OmpRuntime::finish`](crate::OmpRuntime::finish).
    pub fn into_runtime(self) -> OmpRuntime {
        self.rt
    }
}

impl Deref for Tenant {
    type Target = OmpRuntime;

    fn deref(&self) -> &OmpRuntime {
        &self.rt
    }
}

impl DerefMut for Tenant {
    fn deref_mut(&mut self) -> &mut OmpRuntime {
        &mut self.rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::mapping::MapEntry;
    use apu_mem::{AddrRange, CostModel};
    use hsa_rocr::Topology;

    fn pool(config: RuntimeConfig) -> TenantPool {
        TenantPool::new(
            OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .sanitize(true),
        )
    }

    #[test]
    fn tenant_windows_are_disjoint() {
        let p = pool(RuntimeConfig::ImplicitZeroCopy);
        let mut t0 = p.tenant(0).unwrap();
        let mut t1 = p.tenant(1).unwrap();
        let a0 = AddrRange::new(t0.host_alloc(0, 4096).unwrap(), 4096);
        let a1 = AddrRange::new(t1.host_alloc(0, 4096).unwrap(), 4096);
        assert_eq!(a0.start.as_u64() + TENANT_VA_STRIDE, a1.start.as_u64());
        t0.target_enter_data(0, &[MapEntry::to(a0)]).unwrap();
        t1.target_enter_data(0, &[MapEntry::to(a1)]).unwrap();
        assert_eq!(p.live_total(), 2);
        assert_eq!(t0.live_mappings(), 1);
        assert_eq!(t1.live_mappings(), 1);
        t0.target_exit_data(0, &[MapEntry::to(a0)], false).unwrap();
        t1.target_exit_data(0, &[MapEntry::to(a1)], false).unwrap();
        assert_eq!(p.live_total(), 0);
    }

    #[test]
    fn leaks_are_attributed_to_the_leaking_tenant_only() {
        let p = pool(RuntimeConfig::ImplicitZeroCopy);
        let mut t0 = p.tenant(0).unwrap();
        let mut t1 = p.tenant(1).unwrap();
        let a0 = AddrRange::new(t0.host_alloc(0, 4096).unwrap(), 4096);
        let a1 = AddrRange::new(t1.host_alloc(0, 4096).unwrap(), 4096);
        t0.target_enter_data(0, &[MapEntry::to(a0)]).unwrap();
        t1.target_enter_data(0, &[MapEntry::to(a1)]).unwrap();
        t1.target_exit_data(0, &[MapEntry::to(a1)], false).unwrap();
        // t0 leaks; t1 exited cleanly and must finish without findings.
        let r1 = t1.into_runtime().finish();
        assert!(r1.sanitizer.unwrap().diagnostics.is_empty());
        let r0 = t0.into_runtime().finish();
        assert_eq!(r0.sanitizer.unwrap().diagnostics.len(), 1);
    }

    #[test]
    fn out_of_range_tenant_is_rejected() {
        let p = pool(RuntimeConfig::LegacyCopy);
        assert!(matches!(
            p.tenant(MAX_TENANTS),
            Err(OmpError::TenantOutOfRange { .. })
        ));
        assert!(p.tenant(MAX_TENANTS - 1).is_ok());
    }

    #[test]
    fn derived_fault_plans_differ_per_tenant_but_keep_the_spec() {
        let base = FaultPlan::from_seed(7).with_xnack_flip_after(3);
        let d1 = derive_tenant_plan(&base, 1);
        let d2 = derive_tenant_plan(&base, 2);
        assert_ne!(d1.seed(), d2.seed());
        assert_eq!(d1.spec(), base.spec());
        assert_eq!(d1.xnack_flip_after(), Some(3));
        assert_eq!(d1.xnack_unavailable(), base.xnack_unavailable());
    }
}
