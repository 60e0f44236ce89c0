//! Prefetch-policy glue (DESIGN.md §11): the pluggable rival of the
//! compiler's hints. A policy observes first touches, faults and hint
//! calls, and answers with prefetches and releases that flow through
//! the core's ordinary hint machinery.

use oocp_policy::{PolicyActions, PolicyKind, PrefetchPolicy, TouchKind};
use oocp_sim::time::Ns;

use super::Machine;
use crate::trace::TraceEvent;

/// The policy extension's state.
#[derive(Default)]
pub(super) struct PolicyState {
    /// The installed policy. `None` under the default
    /// `PolicyKind::CompilerOnly`, which keeps every paging path
    /// bit-identical to a build without the policy subsystem.
    hooks: Option<Box<dyn PrefetchPolicy>>,
    /// Set while policy-requested actions are applied, so `do_prefetch`
    /// and `do_release` attribute the pages to the policy and tag the
    /// disk requests as policy-injected.
    pub(super) issuing: bool,
    /// Policy hooks suspended (the runtime pauses reactive policies
    /// while it is degraded to demand-only paging).
    paused: bool,
}

impl PolicyState {
    pub(super) fn new(kind: PolicyKind) -> Self {
        Self {
            hooks: oocp_policy::build(kind),
            ..Self::default()
        }
    }
}

impl Machine {
    /// Replace the installed prefetch policy. The bench harness uses
    /// this to install a replaying [`oocp_policy::HistoryReplay`] for
    /// the second pass of a record/replay run.
    pub fn set_policy(&mut self, pol: Box<dyn PrefetchPolicy>) {
        self.policy.hooks = Some(pol);
    }

    /// Name of the installed policy, if any.
    pub fn policy_name(&self) -> Option<&'static str> {
        self.policy.hooks.as_ref().map(|p| p.name())
    }

    /// The miss trace recorded by the installed policy, if it is a
    /// recorder (see [`oocp_policy::PrefetchPolicy::miss_trace`]).
    pub fn policy_miss_trace(&self) -> Option<Vec<u64>> {
        self.policy
            .hooks
            .as_ref()?
            .miss_trace()
            .map(<[u64]>::to_vec)
    }

    /// Suspend or resume the policy hooks. The runtime pauses reactive
    /// policies while it is degraded to demand-only paging (injected
    /// hint traffic is exactly what degraded mode exists to stop) and
    /// resumes them on recovery. The policy object keeps its state.
    ///
    /// The pause is machine-wide, so it only applies to the
    /// single-program machine: with registered tenants one tenant's
    /// degraded episode must not silence the policy for its neighbours,
    /// and the call is ignored.
    pub fn set_policy_enabled(&mut self, enabled: bool) {
        if self.tenancy.tenants.is_empty() {
            self.policy.paused = !enabled;
        }
    }

    /// Whether the observation hooks should fire at all.
    #[inline]
    pub(super) fn policy_ready(&self) -> bool {
        self.policy.hooks.is_some() && !self.policy.paused && self.durability.crashed.is_none()
    }

    /// Observation hook: a first demand touch (or fault) resolved.
    #[inline]
    pub(super) fn policy_touch(&mut self, vpage: u64, kind: TouchKind) {
        if self.policy_ready() {
            self.policy_observe(|pol, now, act| pol.on_touch(vpage, kind, now, act));
        }
    }

    /// Observation hook: the program issued a hint call.
    #[inline]
    pub(super) fn policy_hint(
        &mut self,
        prefetch: Option<(u64, u64)>,
        release: Option<(u64, u64)>,
    ) {
        if self.policy_ready() {
            self.policy_observe(|pol, now, act| pol.on_hint(prefetch, release, now, act));
        }
    }

    /// Observation hook: a prefetched page was reclaimed before anyone
    /// touched it.
    #[inline]
    pub(super) fn policy_evicted_unused(&mut self, vpage: u64) {
        if self.policy_ready() {
            if let Some(pol) = self.policy.hooks.as_mut() {
                pol.on_prefetch_evicted_unused(vpage);
            }
        }
    }

    /// Show the policy one observation, mirror its own counters into
    /// [`OsStats`](crate::OsStats) (so reports and baselines see them
    /// without reaching into the trait object), and apply what it asked
    /// for.
    fn policy_observe(
        &mut self,
        show: impl FnOnce(&mut dyn PrefetchPolicy, Ns, &mut PolicyActions),
    ) {
        let Some(pol) = self.policy.hooks.as_mut() else {
            return;
        };
        let mut act = PolicyActions::default();
        show(pol.as_mut(), self.now, &mut act);
        let c = pol.counters();
        self.stats.policy_window_peak = c.window_peak;
        self.stats.policy_distance_retunes = c.distance_retunes;
        self.stats.policy_late_rate_samples = c.late_rate_samples;
        if !act.is_empty() {
            self.apply_policy_actions(act);
        }
    }

    /// Apply the actions a hook requested. Injected prefetches and
    /// releases flow through the ordinary hint machinery (`do_prefetch`
    /// / `do_release`) but charge no hint-syscall time — the policy
    /// lives inside the kernel, like Linux readahead, rather than
    /// calling into it. The `issuing` flag makes those paths attribute
    /// the pages to the policy and tag the disk requests.
    fn apply_policy_actions(&mut self, act: PolicyActions) {
        self.policy.issuing = true;
        // Releases first: a streaming policy frees the pages behind its
        // window in the same action batch that extends it ahead, and the
        // freed frames must be visible to the prefetch admission check.
        for (start, count) in act.release {
            self.do_release(start, count);
        }
        for (start, count) in act.prefetch {
            // Injections get first-class spans from the same counter as
            // prefetch lifecycle spans, so the two families can never
            // collide in the Chrome-trace export and tracediff aligns
            // injections across runs instead of skipping instants.
            let span = self.next_span;
            self.next_span += 1;
            self.emit(TraceEvent::PolicyInject {
                page: start,
                count,
                span,
            });
            self.do_prefetch(start, count);
        }
        self.policy.issuing = false;
        // The deliberate rule-breaker: only `BrokenPolicy` ever asks for
        // this, and only so the timing-only oracle can prove it notices.
        for vpage in act.corrupt {
            if vpage < self.total_pages() {
                self.unshare(vpage);
                let off = (vpage * self.params.page_bytes) as usize;
                self.data[off] ^= 0xFF;
            }
        }
        self.note_free_level();
    }
}
