(* Closure tier: the body and loop nest compiled to nested OCaml closures
   over a [Flat.state].  Compile once per program; the compiled nest reads
   all bind-dependent values through the state's stable arrays, so it stays
   valid across any number of [Flat.bind] calls. *)

type t = { checked : unit -> unit; unchecked : unit -> unit }
(** The nest compiled twice: [checked] guards every memory access;
    [unchecked] elides the guards on affine accesses and may only run when
    [affine_safe] holds for the current binding.  Indirect accesses stay
    guarded in both. *)

val compile : Flat.state -> t
(** Compile the full loop nest (body + reduction folds) of the state's
    program.  The result mutates the state's bound environment when run. *)

val affine_safe : Flat.state -> bool
(** Whether every affine access of the bound state provably stays inside its
    array over the whole iteration space ([Vir.Ibox] interval analysis on
    the bind-time constants, coefficients and loop ranges; a provably empty
    loop — non-positive steps included — is vacuously safe). *)

val run_bound : Flat.state -> t -> (string * float) list
(** Reset reduction accumulators, run the compiled nest over the currently
    bound environment, and return final reduction values.  The unchecked
    body runs exactly when [affine_safe] holds for the binding. *)

val run_in : Flat.state -> t -> Vinterp.Env.t -> (string * float) list
(** [Flat.bind] then [run_bound]. *)

val compile_body : ?check:bool -> Flat.state -> unit -> unit
(** Body-only compilation: one innermost iteration, reduction folds
    included, at the loop variables the state's [ivs] currently hold.
    [check] (default true) selects the bounds-guarded variant; unchecked is
    only sound when [affine_safe] holds for the binding, as in
    [run_bound].  [Vmachine.Tracesim] runs it under {!nest} to feed the
    cache simulator after every iteration. *)

val nest : Flat.state -> (unit -> unit) -> unit -> unit
(** [nest st body] wraps [body] in the program's loop drivers: every
    iteration sets [ivs] and the loop-variable mirror slots, then calls
    [body].  [compile] is [nest] over each [compile_body] variant. *)
