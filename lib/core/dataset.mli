(** Experiment samples: one per TSVC kernel the transform can vectorize. *)

type transform = Llv | Slp

val transform_to_string : transform -> string

type sample = {
  name : string;
  category : Tsvc.Category.t;
  kernel : Vir.Kernel.t;
  vk : Vvect.Vinstr.vkernel;
  vf : int;
  raw : float array;  (** scalar body instruction-class counts *)
  norm_raw : float array;
      (** counts after the [Vanalysis.Opt] normalization pipeline *)
  rated : float array;  (** block-composition features *)
  extended : float array;  (** rated + derived features (extension) *)
  absint : float array;  (** extended + abstract-interpretation columns *)
  opt : float array;
      (** absint features of the normalized body + ratio/hoist columns *)
  deps : float array;
      (** opt features + nest-wide dependence-graph and idiom columns *)
  cert : float array;
      (** deps features + certified-safe access fraction and guard-free
          flag ({!Vanalysis.Cert}) *)
  vraw : float array;  (** vector body counts (cost-target fits) *)
  exec_backend : string;  (** execution backend that ran the kernel *)
  exec_digest : string;
      (** fingerprint of the backend execution ({!Vmachine.Measure.execute}) *)
  measured : float;  (** noisy measured speedup: the ground truth *)
  scalar_cycles_iter : float;
  vector_cycles_block : float;
  scalar_total : float;
  vector_total : float;
  baseline : float;  (** baseline model's predicted speedup *)
}

val apply_transform :
  transform -> vf:int -> Vir.Kernel.t -> Vvect.Vinstr.vkernel option

(** Build samples for every entry the transform can vectorize at the
    machine's natural VF.  Entries are built on the shared domain pool
    through {!Vpar.Pool.supervised_map} (task failures, injected worker
    crashes and timeouts quarantine the sample instead of aborting the
    run) and memoized in the two-level process-wide cache described under
    {!cache_stats}, so experiments sharing a (machine, transform, config)
    combination pay for vectorization and machine-model measurement once,
    and a sweep over machines and transforms executes each scalar kernel
    once per (n, seed).

    [?repeats] (default 1) measures the speedup k times under derived
    seeds, rejects repeats outside 3.5 normalized MADs of the median, and
    keeps the median of the survivors; [repeats = 1] is the historical
    single-shot behaviour.  Samples with no usable measurement are
    quarantined into the {!health} ledger, never silently dropped.
    [?timeout_s] (default 0.5) cancels a build task whose simulated hang
    exceeds it.

    [?backend] (default {!Vexec.Backend.default}) selects the execution
    engine that actually runs each kernel; the backend id is folded into
    the cache key, so switching backends never serves samples another
    backend built. *)
val build :
  ?noise_amp:float -> ?seed:int -> ?repeats:int ->
  ?backend:Vexec.Backend.t -> ?pool:Vpar.Pool.t -> ?timeout_s:float ->
  machine:Vmachine.Descr.t -> transform:transform -> n:int ->
  Tsvc.Registry.entry list -> sample list

(** {2 Health ledger} *)

(** One sample that could not enter a dataset, and why. *)
type quarantine = {
  q_name : string;  (** kernel *)
  q_machine : string;
  q_transform : string;
  q_reason : string;
}

type health = {
  h_quarantined : quarantine list;  (** oldest first, deduplicated *)
  h_cache_corruptions : int;
      (** corrupted cache entries detected and rebuilt *)
  h_repeats_rejected : int;  (** repeat measurements discarded (MAD or
      non-finite) *)
}

(** The process-wide health ledger since the last {!health_reset}. *)
val health : unit -> health

val health_reset : unit -> unit

(** {2 Cache introspection}

    The cache has two content-keyed levels.  Both are keyed on a digest of
    the kernel's content, never on its name alone.

    - The {e sample cache} holds one build outcome per key: kernel content,
      category, machine (its plain-data fields), transform, n, noise_amp,
      seed, repeats, backend and active fault plan.  Outcomes include
      negative entries for non-vectorizable and quarantined kernels.
    - The {e run memo} under it holds one {!Vmachine.Measure.execution} per
      key: kernel content, n, seed, repeats, backend and active fault plan.
      The key omits the machine, transform, noise_amp and category: the
      scalar execution reads none of them.  A sample-cache miss takes its execution from
      here, so samples of one kernel on different machines and transforms
      share one execution.  A hit runs nothing (so the sanitizer's
      measure-site check sees first executions only); an execution that
      raises is not recorded.

    Both levels share one lifecycle: {!cache_clear} empties both, and
    {!set_cache_enabled} [false] bypasses both.  When a corrupted sample
    is evicted ([cache.corrupt] fault), its run entry is dropped too, so
    the rebuild re-executes.  The entries of one {!build} call are
    distinct kernels (no registry lists a kernel twice) and so hold
    distinct run keys: no two concurrent tasks race on one key, and every
    counter is the same at any worker count. *)

type cache_stats = { hits : int; misses : int; entries : int }

(** Sample-cache hit/miss counters since the last {!cache_clear}, plus the
    live entry count (one per cached (kernel, machine, transform, config)
    key, including negative entries for non-vectorizable kernels). *)
val cache_stats : unit -> cache_stats

(** Run-memo counters since the last {!cache_clear}: a miss is one scalar
    execution, a hit is a sample that reused one, and [entries] is the
    number of recorded executions. *)
val run_stats : unit -> cache_stats

(** Drop every cached sample and recorded execution and reset the
    counters of both levels. *)
val cache_clear : unit -> unit

(** Disable or re-enable memoization at both levels (used to time cold
    baselines).  Enabled by default; when disabled no counter moves. *)
val set_cache_enabled : bool -> unit

(** Which execution backend produced the cached samples currently live in
    the cache: [(backend, count)] sorted by backend name.  Entries with no
    execution (non-vectorizable, quarantined) are not counted. *)
val cache_backends : unit -> (string * int) list

val measured_array : sample list -> float array
val baseline_array : sample list -> float array
