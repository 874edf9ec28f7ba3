(** Trace-driven cache simulation: replay a kernel's exact accesses through
    a set-associative hierarchy built from a machine's memory parameters,
    to validate the analytic {!Memmodel}. *)

type layout

(** Contiguous array layout with inter-array gaps, indexed by array name. *)
val layout : n:int -> line_bytes:int -> Vir.Kernel.t -> layout

(** Byte address of element [idx] of [arr].
    @raise Invalid_argument for an array the kernel does not declare. *)
val address : layout -> arr:string -> idx:int -> int

type stats = {
  total_accesses : int;
  per_level : (Memmodel.level * int * int) list;
      (** level, accesses reaching it, misses at it *)
  dram_accesses : int;
  bytes_moved_per_elem : float;
}

val hierarchy_of : Descr.mem -> Cache.config list

(** Simulate every access of the scalar kernel at size [n]: a warm-up pass
    over the whole nest, then a measured pass whose accesses are counted.
    The accesses come from one of three sources ({!path}):
    - [`Stream]: kernels whose accesses are all affine and provably in
      range generate their address stream from the loop nest without
      executing the body, and account runs of iterations that provably hit
      L1 without replaying them;
    - [`Compiled]: the rest run the closure-compiled body
      ({!Vexec.Closure.compile_body} under {!Vexec.Closure.nest}) and touch
      its accesses after every iteration; on a trap the partial simulation
      is discarded and {!simulate_traced} reruns;
    - [`Interpreted]: kernels that do not lower, or whose loops never end,
      replay the reference interpreter's trace ({!simulate_traced}).
    The result is the same either way.
    @raise Vinterp.Env.Out_of_bounds on an out-of-range access, and the
    interpreter's [Invalid_argument] traps, as the interpreter does. *)
val simulate : ?seed:int -> Descr.mem -> n:int -> Vir.Kernel.t -> stats

(** The reference: the same two passes with every access taken from the
    tree-walking interpreter's trace ({!Vinterp.Env.set_trace}).  Slow;
    the differential tests hold {!simulate} to it. *)
val simulate_traced : ?seed:int -> Descr.mem -> n:int -> Vir.Kernel.t -> stats

(** Where {!simulate} takes [k]'s accesses from at size [n].  A
    [`Compiled] kernel that traps still ends on the interpreter, so a
    [`Compiled] kernel whose {!simulate} returns never used it. *)
val path :
  ?seed:int -> Descr.mem -> n:int -> Vir.Kernel.t ->
  [ `Stream | `Compiled | `Interpreted ]

(** One past the deepest level whose local miss rate exceeds 2%: where the
    stream actually lives.  2% sits below the 6.25% compulsory miss rate of
    a unit-stride f32 stream and above warm-cache noise. *)
val dominant_level : stats -> Memmodel.level

val level_rank : Memmodel.level -> int

(** Analytic vs simulated agreement, within one level of slack. *)
val agrees : analytic:Memmodel.level -> simulated:Memmodel.level -> bool
